// Tests for the simulated Win32 API: handle discipline, per-variant handle
// behaviour, file and I/O semantics, waits, and the Table 3 hazard wiring.
#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "win32/win32.h"

namespace ballista::win32 {
namespace {

using ballista::testing::run_named_case;
using ballista::testing::shared_world;
using core::Outcome;
using sim::OsVariant;

TEST(Handles, InvalidHandleSplitsByFamily) {
  const auto& w = shared_world();
  // NT: ERROR_INVALID_HANDLE reported.
  sim::Machine nt(OsVariant::kWinNT4);
  const auto rn =
      run_named_case(w, OsVariant::kWinNT4, "CloseHandle", {"h_garbage"}, &nt);
  EXPECT_EQ(rn.outcome, Outcome::kPass);
  EXPECT_FALSE(rn.success_no_error);
  // 9x: the stub "succeeds" silently.
  sim::Machine w95(OsVariant::kWin95);
  const auto r9 =
      run_named_case(w, OsVariant::kWin95, "CloseHandle", {"h_garbage"}, &w95);
  EXPECT_EQ(r9.outcome, Outcome::kPass);
  EXPECT_TRUE(r9.success_no_error);
}

TEST(Handles, ValidHandleClosesEverywhere) {
  const auto& w = shared_world();
  for (OsVariant v : {OsVariant::kWinNT4, OsVariant::kWin95,
                      OsVariant::kWinCE}) {
    sim::Machine m(v);
    EXPECT_EQ(
        run_named_case(w, v, "CloseHandle", {"h_file_valid"}, &m).outcome,
        Outcome::kPass);
  }
}

TEST(Handles, WrongKindIsInvalid) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  // SetEvent on a file handle: ERROR_INVALID_HANDLE.
  const auto r =
      run_named_case(w, OsVariant::kWinNT4, "SetEvent", {"h_file_valid"}, &nt);
  EXPECT_FALSE(r.success_no_error);
}

TEST(CreateFileCall, DispositionsBehave) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  // OPEN_EXISTING (3) needs cnt pool... use CREATE_NEW=1 on an existing file.
  const auto r = run_named_case(
      w, OsVariant::kWinNT4, "CreateFile",
      {"path_fixture", "flags_1", "flags_0", "sa_null_ok", "cnt_1", "flags_0",
       "h_null"},
      &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);  // ERROR_FILE_EXISTS
  const auto r2 = run_named_case(
      w, OsVariant::kWinNT4, "CreateFile",
      {"path_missing", "flags_1", "flags_0", "sa_null_ok", "cnt_1", "flags_0",
       "h_null"},
      &m);
  EXPECT_TRUE(r2.success_no_error);  // created
}

TEST(Paths, NtBadPathPointerAbortsLoose9xSilent) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(
      run_named_case(w, OsVariant::kWinNT4, "DeleteFile", {"str_null"}, &nt)
          .outcome,
      Outcome::kAbort);
  sim::Machine w95(OsVariant::kWin95);
  const auto r =
      run_named_case(w, OsVariant::kWin95, "DeleteFile", {"str_null"}, &w95);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.success_no_error);
}

TEST(Paths, LongPathIsRejectedWithError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  const auto r =
      run_named_case(w, OsVariant::kWinNT4, "DeleteFile", {"path_long"}, &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);
}

TEST(FileIo, ReadWriteRoundTrip) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "WriteFile",
                           {"h_file_valid", "cbuf_64", "size_16", "buf_64",
                            "buf_null"},
                           &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "ReadFile",
                           {"h_file_valid", "buf_64", "size_16", "buf_64",
                            "buf_null"},
                           &m)
                .outcome,
            Outcome::kPass);
}

TEST(FileIo, WriteToReadOnlyHandleReportsError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  const auto r = run_named_case(w, OsVariant::kWinNT4, "WriteFile",
                                {"h_file_ro", "cbuf_64", "size_16", "buf_64",
                                 "buf_null"},
                                &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(FileIo, LockConflictsDetected) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  // Locking twice through two cases uses separate tasks/handles, so conflict
  // state does not persist (each case resets the fixture).  Exercise both
  // paths inline instead: valid lock is a pass.
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "LockFile",
                           {"h_file_valid", "size_0", "size_0", "size_16",
                            "size_0"},
                           &m)
                .outcome,
            Outcome::kPass);
  // Zero-length lock is an error.
  const auto r = run_named_case(w, OsVariant::kWinNT4, "LockFile",
                                {"h_file_valid", "size_0", "size_0", "size_0",
                                 "size_0"},
                                &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(Waits, SignaledObjectReturnsImmediately) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "WaitForSingleObject",
                           {"h_event_valid", "to_100"}, &m)
                .outcome,
            Outcome::kPass);
}

TEST(Waits, UnsignaledInfiniteWaitIsRestart) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "WaitForSingleObject",
                           {"h_event_unsignaled", "to_infinite"}, &m)
                .outcome,
            Outcome::kRestart);
}

TEST(Waits, UnsignaledFiniteWaitTimesOut) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  const auto r = run_named_case(w, OsVariant::kWinNT4, "WaitForSingleObject",
                                {"h_event_unsignaled", "to_100"}, &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
}

TEST(Waits, CountValidationInMultiWaits) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  const auto r = run_named_case(
      w, OsVariant::kWinNT4, "WaitForMultipleObjects",
      {"cnt_65", "harr_two_signaled", "int_0", "to_100"}, &m);
  EXPECT_FALSE(r.success_no_error);  // > MAXIMUM_WAIT_OBJECTS
}

TEST(Table3Hazards, WiredExactlyAsThePaperReports) {
  const auto& w = shared_world();
  const auto style = [&](const char* name, OsVariant v) {
    return w.registry.find(name)->hazard_on(v);
  };
  using core::CrashStyle;
  // GetThreadContext: 95/98/98SE/CE immediate.
  for (OsVariant v : {OsVariant::kWin95, OsVariant::kWin98,
                      OsVariant::kWin98SE, OsVariant::kWinCE})
    EXPECT_EQ(style("GetThreadContext", v), CrashStyle::kImmediate);
  EXPECT_EQ(style("GetThreadContext", OsVariant::kWinNT4), CrashStyle::kNone);
  // HeapCreate and FileTimeToSystemTime: 95 only.
  EXPECT_EQ(style("HeapCreate", OsVariant::kWin95), CrashStyle::kImmediate);
  EXPECT_EQ(style("HeapCreate", OsVariant::kWin98), CrashStyle::kNone);
  EXPECT_EQ(style("FileTimeToSystemTime", OsVariant::kWin95),
            CrashStyle::kImmediate);
  // DuplicateHandle: starred on all of 95/98/98SE.
  for (OsVariant v : {OsVariant::kWin95, OsVariant::kWin98,
                      OsVariant::kWin98SE})
    EXPECT_EQ(style("DuplicateHandle", v), CrashStyle::kDeferred);
  // MsgWaitForMultipleObjectsEx: not on 95, deferred on 98/98SE/CE.
  EXPECT_FALSE(w.registry.find("MsgWaitForMultipleObjectsEx")
                   ->supported_on(OsVariant::kWin95));
  EXPECT_EQ(style("MsgWaitForMultipleObjectsEx", OsVariant::kWin98),
            CrashStyle::kDeferred);
  // CreateThread: 98SE and CE only.
  EXPECT_EQ(style("CreateThread", OsVariant::kWin98), CrashStyle::kNone);
  EXPECT_EQ(style("CreateThread", OsVariant::kWin98SE),
            CrashStyle::kDeferred);
  EXPECT_EQ(style("CreateThread", OsVariant::kWinCE), CrashStyle::kDeferred);
  // Interlocked trio: CE only.
  EXPECT_EQ(style("InterlockedExchange", OsVariant::kWinCE),
            CrashStyle::kDeferred);
  EXPECT_EQ(style("InterlockedExchange", OsVariant::kWin98),
            CrashStyle::kNone);
  // VirtualAlloc / SetThreadContext: CE immediate.
  EXPECT_EQ(style("VirtualAlloc", OsVariant::kWinCE), CrashStyle::kImmediate);
  EXPECT_EQ(style("SetThreadContext", OsVariant::kWinCE),
            CrashStyle::kImmediate);
}

TEST(Listing1, CrashMatrixRegression) {
  const auto& w = shared_world();
  const std::vector<std::string> tuple = {"h_thread_pseudo", "buf_null"};
  const auto expect = [&](OsVariant v, Outcome want) {
    sim::Machine m(v);
    const auto r = run_named_case(w, v, "GetThreadContext", tuple, &m);
    EXPECT_EQ(r.outcome, want) << sim::variant_name(v);
  };
  expect(OsVariant::kWin95, Outcome::kCatastrophic);
  expect(OsVariant::kWin98, Outcome::kCatastrophic);
  expect(OsVariant::kWin98SE, Outcome::kCatastrophic);
  expect(OsVariant::kWinCE, Outcome::kCatastrophic);
  expect(OsVariant::kWinNT4, Outcome::kAbort);
  expect(OsVariant::kWin2000, Outcome::kAbort);
}

TEST(GetThreadContext, ValidBufferWorksEvenOn9x) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWin98);
  EXPECT_EQ(run_named_case(w, OsVariant::kWin98, "GetThreadContext",
                           {"h_thread_pseudo", "ctx_valid_full"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_FALSE(m.crashed());
}

TEST(Interlocked, UserModeOnDesktopKernelOnCe) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "InterlockedIncrement",
                           {"buf_null"}, &nt)
                .outcome,
            Outcome::kAbort);
  sim::Machine ce(OsVariant::kWinCE);
  const auto r = run_named_case(w, OsVariant::kWinCE, "InterlockedIncrement",
                                {"buf_null"}, &ce);
  // Deferred hazard: reports success, corrupts the slot space.
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_GT(ce.arena().corruption(), 0);
}

TEST(Heap, CreateAllocFreeFlow) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "HeapCreate",
                           {"flags_0", "size_page", "size_1meg"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "HeapAlloc",
                           {"h_heap_valid", "flags_0", "size_255"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "HeapFree",
                           {"h_heap_valid", "flags_0", "heap_valid_64"}, &m)
                .outcome,
            Outcome::kPass);
}

TEST(Heap, Win95HeapCreateHazardCrashesOnWildSizes) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWin95);
  EXPECT_EQ(run_named_case(w, OsVariant::kWin95, "HeapCreate",
                           {"flags_0", "size_halfmax", "size_0"}, &m)
                .outcome,
            Outcome::kCatastrophic);
}

TEST(VirtualAlloc, SemanticsAndCeCrash) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "VirtualAlloc",
                           {"va_null_ok", "size_page", "mem_commit",
                            "page_readwrite"},
                           &nt)
                .outcome,
            Outcome::kPass);
  const auto bad = run_named_case(w, OsVariant::kWinNT4, "VirtualAlloc",
                                  {"va_null_ok", "size_page", "mem_type_0",
                                   "page_readwrite"},
                                  &nt);
  EXPECT_FALSE(bad.success_no_error);
  sim::Machine ce(OsVariant::kWinCE);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinCE, "VirtualAlloc",
                           {"va_unmapped_user", "size_page", "mem_commit",
                            "page_readwrite"},
                           &ce)
                .outcome,
            Outcome::kCatastrophic);
}

TEST(Environment, RoundTripAndValidation) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "GetEnvironmentVariable",
                           {"str_hello", "buf_page", "size_page"}, &m)
                .outcome,
            Outcome::kPass);  // not found -> error reported (still a Pass)
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "SetEnvironmentVariable",
                           {"str_hello", "str_long"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "GetVersion", {}, &m)
                .outcome,
            Outcome::kPass);
}

TEST(FindFiles, EnumerationWorks) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  // "/tmp" as a pattern names the directory itself; FindFirstFile with the
  // fixture path matches one file.
  const auto r = run_named_case(w, OsVariant::kWinNT4, "FindFirstFile",
                                {"path_fixture", "buf_page"}, &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.success_no_error);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "FindNextFile",
                           {"h_find_valid", "buf_page"}, &m)
                .outcome,
            Outcome::kPass);
}

TEST(FileTimes, ConversionRoundTripAndWin95Crash) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "FileTimeToSystemTime",
                           {"ft_valid_1999", "st_valid"}, &nt)
                .outcome,
            Outcome::kPass);
  sim::Machine w95(OsVariant::kWin95);
  EXPECT_EQ(run_named_case(w, OsVariant::kWin95, "FileTimeToSystemTime",
                           {"ft_valid_1999", "buf_null"}, &w95)
                .outcome,
            Outcome::kCatastrophic);
}

TEST(DuplicateHandleCall, DeferredCorruptionOn98) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWin98);
  const auto r = run_named_case(
      w, OsVariant::kWin98, "DuplicateHandle",
      {"h_process_pseudo", "h_file_valid", "h_process_pseudo", "buf_dangling",
       "flags_0", "int_0", "flags_2"},
      &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);  // "succeeds"
  EXPECT_GT(m.arena().corruption(), 0);
  // On NT the same case aborts.
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "DuplicateHandle",
                           {"h_process_pseudo", "h_file_valid",
                            "h_process_pseudo", "buf_dangling", "flags_0",
                            "int_0", "flags_2"},
                           &nt)
                .outcome,
            Outcome::kAbort);
}

TEST(Win95Subset, TheTenMissingCalls) {
  const auto& w = shared_world();
  const char* kMissing[] = {
      "MsgWaitForMultipleObjectsEx", "ReadFileEx", "WriteFileEx",
      "LockFileEx", "UnlockFileEx", "CopyFileEx", "GetFileAttributesEx",
      "GetDiskFreeSpaceEx", "InterlockedExchangeAdd",
      "InterlockedCompareExchange"};
  for (const char* name : kMissing) {
    const core::MuT* m = w.registry.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_FALSE(m->supported_on(OsVariant::kWin95)) << name;
    EXPECT_TRUE(m->supported_on(OsVariant::kWin98)) << name;
  }
}

// --- exceptional sizes over mapped ranges --------------------------------------
// VirtualProtect and VirtualFree get sizes like 0xFFFFFFFF and 0x80000000
// from the size pools.  Each call must act on exactly the mapped pages the
// range covers, and announce one persistence point however long it is.

class VirtualRange : public ::testing::Test {
 protected:
  static constexpr sim::Addr kStackPage = 0x7FEF'0000;  // lowest stack page

  // Pages, low to high: the out-parameter, a two-page buffer, one page past
  // the buffer's guard, the process stack, and a page just past buf + 2 GiB.
  VirtualRange() : machine(OsVariant::kWinNT4) {
    proc = machine.create_process();
    old_out = mem().alloc(4);
    buf = mem().alloc(2 * sim::kPageSize);
    after = mem().alloc(sim::kPageSize);
    far = buf + 0x8000'0000;
    mem().map(far, sim::kPageSize, sim::kPermRW);
  }

  sim::AddressSpace& mem() { return proc->mem(); }

  core::CallOutcome call(const char* name, std::vector<core::RawArg> args) {
    const core::MuT* mut = shared_world().registry.find(name);
    EXPECT_NE(mut, nullptr) << name;
    last_args = std::move(args);
    core::CallContext ctx(machine, *proc, *mut, last_args);
    machine.kernel_enter();
    return mut->impl(ctx);
  }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  std::vector<core::RawArg> last_args;
  sim::Addr old_out = 0, buf = 0, after = 0, far = 0;
};

TEST_F(VirtualRange, ProtectSizeNeg1ReachesEveryLaterMapping) {
  const auto r = call("VirtualProtect",
                      {buf, 0xFFFF'FFFF, 0x02 /*PAGE_READONLY*/, old_out});
  ASSERT_EQ(r.status, core::CallStatus::kSuccess);
  for (const sim::Addr a : {buf, buf + sim::kPageSize, after, kStackPage, far})
    EXPECT_EQ(mem().perm_of(a), sim::kPermRead) << std::hex << a;
  EXPECT_EQ(mem().perm_of(old_out), sim::kPermRW);
  EXPECT_FALSE(mem().is_mapped(buf + 2 * sim::kPageSize));  // guard stays out
}

TEST_F(VirtualRange, ProtectSizeHalfmaxStopsAtTwoGigabytes) {
  const std::size_t pages = mem().mapped_page_count();
  const auto r = call("VirtualProtect",
                      {buf, 0x8000'0000, 0x02 /*PAGE_READONLY*/, old_out});
  ASSERT_EQ(r.status, core::CallStatus::kSuccess);
  for (const sim::Addr a : {buf, buf + sim::kPageSize, after, kStackPage})
    EXPECT_EQ(mem().perm_of(a), sim::kPermRead) << std::hex << a;
  EXPECT_EQ(mem().perm_of(far), sim::kPermRW);
  EXPECT_EQ(mem().perm_of(old_out), sim::kPermRW);
  EXPECT_EQ(mem().mapped_page_count(), pages);
}

TEST_F(VirtualRange, DecommitSizeNeg1DropsEveryLaterMapping) {
  const auto r = call("VirtualFree", {buf, 0xFFFF'FFFF, 0x4000 /*DECOMMIT*/});
  ASSERT_EQ(r.status, core::CallStatus::kSuccess);
  EXPECT_EQ(mem().mapped_page_count(), 1u);  // only the page below buf
  EXPECT_TRUE(mem().is_mapped(old_out));
  for (const sim::Addr a : {buf, buf + sim::kPageSize, after, kStackPage, far})
    EXPECT_FALSE(mem().is_mapped(a)) << std::hex << a;
}

TEST_F(VirtualRange, DecommitSizeHalfmaxKeepsMappingsPastTwoGigabytes) {
  const auto r = call("VirtualFree", {buf, 0x8000'0000, 0x4000 /*DECOMMIT*/});
  ASSERT_EQ(r.status, core::CallStatus::kSuccess);
  EXPECT_EQ(mem().mapped_page_count(), 2u);
  EXPECT_TRUE(mem().is_mapped(old_out));
  EXPECT_TRUE(mem().is_mapped(far));
  EXPECT_EQ(mem().read_u8(far), 0);
  for (const sim::Addr a : {buf, buf + sim::kPageSize, after, kStackPage})
    EXPECT_FALSE(mem().is_mapped(a)) << std::hex << a;
}

TEST_F(VirtualRange, HugeRangeIsOnePersistencePoint) {
  auto& hub = machine.mutations();
  hub.set_counting(true);
  hub.open_window();
  call("VirtualProtect", {buf, 0xFFFF'FFFF, 0x02, old_out});
  call("VirtualFree", {buf, 0xFFFF'FFFF, 0x4000});
  hub.close_window();
  EXPECT_EQ(hub.count(sim::MutationKind::kPageProtect), 1u);
  EXPECT_EQ(hub.count(sim::MutationKind::kPageUnmap), 1u);
}

}  // namespace
}  // namespace ballista::win32
