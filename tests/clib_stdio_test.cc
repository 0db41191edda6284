// Tests for C stdio across the three CRT personalities — the paper's
// seventeen-functions-one-bad-FILE* Windows CE catastrophe, the MSVC _iob
// range check, and glibc's trusting pointer chase.
#include <gtest/gtest.h>

#include "clib/crt.h"
#include "tests/test_util.h"

namespace ballista::clib {
namespace {

using ballista::testing::run_named_case;
using ballista::testing::shared_world;
using core::Outcome;
using sim::OsVariant;

TEST(Fopen, OpensFixtureEverywhere) {
  const auto& w = shared_world();
  for (OsVariant v : {OsVariant::kLinux, OsVariant::kWinNT4,
                      OsVariant::kWin95, OsVariant::kWinCE}) {
    sim::Machine m(v);
    const auto r =
        run_named_case(w, v, "fopen", {"path_fixture", "mode_r"}, &m);
    EXPECT_EQ(r.outcome, Outcome::kPass) << sim::variant_name(v);
    EXPECT_TRUE(r.success_no_error);
  }
}

TEST(Fopen, MissingFileReportsError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  const auto r = run_named_case(w, OsVariant::kLinux, "fopen",
                                {"path_missing", "mode_r"}, &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);  // ENOENT reported
}

TEST(Fopen, BogusModeReportsError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  const auto r = run_named_case(w, OsVariant::kWinNT4, "fopen",
                                {"path_fixture", "mode_bogus"}, &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(Fopen, WriteModeOnReadOnlyFileReportsError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  const auto r = run_named_case(w, OsVariant::kLinux, "fopen",
                                {"path_readonly", "mode_w"}, &m);
  EXPECT_FALSE(r.success_no_error);
}

struct BadFileCase {
  const char* value;
  Outcome glibc;
  Outcome msvcrt;
  Outcome ce;
};

// Print a case by its value name. The default printer dumps the struct's
// bytes, which hold a load-address-dependent pointer and padding, so the
// test names would change from build to build.
void PrintTo(const BadFileCase& c, std::ostream* os) { *os << c.value; }

class BadFilePointer : public ::testing::TestWithParam<BadFileCase> {};

TEST_P(BadFilePointer, EachCrtHandlesItsWay) {
  const auto& w = shared_world();
  const BadFileCase& c = GetParam();
  {
    sim::Machine m(OsVariant::kLinux);
    EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fclose", {c.value}, &m)
                  .outcome,
              c.glibc)
        << "glibc " << c.value;
  }
  {
    sim::Machine m(OsVariant::kWinNT4);
    EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "fclose", {c.value}, &m)
                  .outcome,
              c.msvcrt)
        << "msvcrt " << c.value;
  }
  {
    sim::Machine m(OsVariant::kWinCE);
    EXPECT_EQ(
        run_named_case(w, OsVariant::kWinCE, "fclose", {c.value}, &m).outcome,
        c.ce)
        << "ce " << c.value;
    if (m.crashed()) m.reboot();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PointerKinds, BadFilePointer,
    ::testing::Values(
        // The paper's root cause: a string buffer cast to FILE*.
        BadFileCase{"file_string_buffer", Outcome::kAbort, Outcome::kPass,
                    Outcome::kCatastrophic},
        BadFileCase{"file_null", Outcome::kAbort, Outcome::kPass,
                    Outcome::kCatastrophic},
        BadFileCase{"file_dangling", Outcome::kAbort, Outcome::kPass,
                    Outcome::kCatastrophic},
        BadFileCase{"file_bad_magic", Outcome::kAbort, Outcome::kPass,
                    Outcome::kCatastrophic}));

TEST(CeStdio, SeventeenFunctionsShareTheHazard) {
  const auto& w = shared_world();
  const char* kKernelThunked[] = {"fclose", "fflush",  "freopen", "fseek",
                                  "ftell",  "clearerr", "fread",  "fwrite",
                                  "fgetc",  "fgets",   "fputc",  "fputs",
                                  "fprintf", "fscanf",  "getc",   "putc",
                                  "ungetc"};
  for (const char* name : kKernelThunked) {
    const core::MuT* m = w.registry.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_NE(m->hazard_on(OsVariant::kWinCE), core::CrashStyle::kNone)
        << name;
  }
  // rewind pre-validates on CE (absent from Table 3).
  EXPECT_EQ(w.registry.find("rewind")->hazard_on(OsVariant::kWinCE),
            core::CrashStyle::kNone);
}

TEST(CeStdio, RewindAbortsInsteadOfCrashing) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinCE);
  const auto r =
      run_named_case(w, OsVariant::kWinCE, "rewind", {"file_dangling"}, &m);
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_FALSE(m.crashed());
}

TEST(CeStdio, FreadIsDeferredStyle) {
  const auto& w = shared_world();
  EXPECT_EQ(w.registry.find("fread")->hazard_on(OsVariant::kWinCE),
            core::CrashStyle::kDeferred);
  EXPECT_EQ(w.registry.find("fgets")->hazard_on(OsVariant::kWinCE),
            core::CrashStyle::kDeferred);
  EXPECT_EQ(w.registry.find("fclose")->hazard_on(OsVariant::kWinCE),
            core::CrashStyle::kImmediate);
}

TEST(Fwrite, Win98HazardOnlyThere) {
  const auto& w = shared_world();
  const core::MuT* m = w.registry.find("fwrite");
  EXPECT_EQ(m->hazard_on(OsVariant::kWin98), core::CrashStyle::kDeferred);
  EXPECT_EQ(m->hazard_on(OsVariant::kWin95), core::CrashStyle::kNone);
  EXPECT_EQ(m->hazard_on(OsVariant::kWin98SE), core::CrashStyle::kNone);
}

TEST(StreamRoundTrip, WriteSeekReadThroughTheApi) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  // fputc('a', valid) then fgetc again via separate cases exercises the
  // shared fixture; here just verify each pass.
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fputc",
                           {"ch_a", "file_valid_rw"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fgetc", {"file_valid_rw"},
                           &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fseek",
                           {"file_valid_rw", "int_2", "int_0"}, &m)
                .outcome,
            Outcome::kPass);
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "ftell", {"file_valid_rw"},
                           &m)
                .outcome,
            Outcome::kPass);
}

TEST(Fread, BadBufferAborts) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fread",
                           {"buf_dangling", "size_1", "size_16",
                            "file_valid_rw"},
                           &m)
                .outcome,
            Outcome::kAbort);
}

TEST(Fwrite, ReadOnlyStreamReportsError) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  const auto r = run_named_case(w, OsVariant::kLinux, "fwrite",
                                {"cbuf_64", "size_1", "size_16",
                                 "file_valid_ro"},
                                &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);
}

TEST(Printf, MissingVarargsFaultOnConversions) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kLinux);
  // %s with no argument dereferences the missing-arg slot: Abort.
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fprintf",
                           {"file_valid_rw", "fmt_s"}, &m)
                .outcome,
            Outcome::kAbort);
  // %n writes through it: Abort.
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fprintf",
                           {"file_valid_rw", "fmt_n"}, &m)
                .outcome,
            Outcome::kAbort);
  // Plain %d formats harmlessly.
  EXPECT_EQ(run_named_case(w, OsVariant::kLinux, "fprintf",
                           {"file_valid_rw", "fmt_d"}, &m)
                .outcome,
            Outcome::kPass);
}

TEST(Sprintf, BadTargetBufferAborts) {
  const auto& w = shared_world();
  sim::Machine m(OsVariant::kWinNT4);
  EXPECT_EQ(run_named_case(w, OsVariant::kWinNT4, "sprintf",
                           {"buf_kernel", "fmt_d"}, &m)
                .outcome,
            Outcome::kAbort);
}

TEST(FflushNull, FlushesAllOnDesktopCrashesCeInKernel) {
  const auto& w = shared_world();
  sim::Machine nt(OsVariant::kWinNT4);
  EXPECT_EQ(
      run_named_case(w, OsVariant::kWinNT4, "fflush", {"file_null"}, &nt)
          .outcome,
      Outcome::kPass);
  sim::Machine ce(OsVariant::kWinCE);
  EXPECT_EQ(
      run_named_case(w, OsVariant::kWinCE, "fflush", {"file_null"}, &ce)
          .outcome,
      Outcome::kCatastrophic);
}

TEST(RemoveRename, PathBasedSoNoCeHazard) {
  const auto& w = shared_world();
  EXPECT_EQ(w.registry.find("remove")->hazard_on(OsVariant::kWinCE),
            core::CrashStyle::kNone);
  sim::Machine m(OsVariant::kWinCE);
  EXPECT_EQ(
      run_named_case(w, OsVariant::kWinCE, "remove", {"path_fixture"}, &m)
          .outcome,
      Outcome::kPass);
}

}  // namespace
}  // namespace ballista::clib
