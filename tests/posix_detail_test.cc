// Deeper semantic tests for the POSIX layer, driven through direct dispatch.
#include <gtest/gtest.h>

#include "posix/posix.h"
#include "tests/test_util.h"

namespace ballista::posix_api {
namespace {

using core::CallOutcome;
using core::RawArg;
using sim::OsVariant;
using testing::shared_world;

class PosixFixture : public ::testing::Test {
 protected:
  PosixFixture() : machine(OsVariant::kLinux) {
    proc = machine.create_process();
  }

  CallOutcome call(const char* name, std::vector<RawArg> args) {
    const core::MuT* mut = shared_world().registry.find(name);
    EXPECT_NE(mut, nullptr) << name;
    last_args = std::move(args);
    core::CallContext ctx(machine, *proc, *mut, last_args);
    machine.kernel_enter();
    return mut->impl(ctx);
  }

  sim::Addr cstr(std::string_view s) { return proc->mem().alloc_cstr(s); }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  std::vector<RawArg> last_args;
};

TEST_F(PosixFixture, OpenReadWriteCloseFlow) {
  const auto fd = call("open", {cstr("/tmp/flow.txt"), 0x42 /*O_RDWR|O_CREAT*/,
                                0644});
  ASSERT_EQ(fd.status, core::CallStatus::kSuccess);
  const sim::Addr data = cstr("posix!");
  EXPECT_EQ(call("write", {fd.ret, data, 6}).ret, 6u);
  EXPECT_EQ(call("lseek", {fd.ret, 0, 0}).ret, 0u);
  const sim::Addr buf = proc->mem().alloc(16);
  EXPECT_EQ(call("read", {fd.ret, buf, 6}).ret, 6u);
  EXPECT_EQ(proc->mem().read_cstr(buf, 6, sim::Access::kKernel), "posix!");
  EXPECT_EQ(call("close", {fd.ret}).ret, 0u);
  EXPECT_EQ(call("close", {fd.ret}).status,
            core::CallStatus::kErrorReported);  // EBADF second time
}

TEST_F(PosixFixture, OpenExclRefusesExisting) {
  const auto r = call("open", {cstr("/tmp/fixture.dat"), 0xC2 /*CREAT|EXCL|RDWR*/,
                               0644});
  EXPECT_EQ(r.status, core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), EEXIST);
}

TEST_F(PosixFixture, OpenTruncClearsContents) {
  (void)call("open", {cstr("/tmp/fixture.dat"), 0x242 /*RDWR|CREAT|TRUNC*/,
                      0644});
  auto node = machine.fs().resolve(
      machine.fs().parse("/tmp/fixture.dat", proc->cwd()));
  EXPECT_TRUE(node->data().empty());
}

TEST_F(PosixFixture, LinkBumpsLinkCountAndSharesData) {
  EXPECT_EQ(call("link", {cstr("/tmp/fixture.dat"), cstr("/tmp/hard")}).ret,
            0u);
  auto a = machine.fs().resolve(
      machine.fs().parse("/tmp/fixture.dat", proc->cwd()));
  auto b = machine.fs().resolve(machine.fs().parse("/tmp/hard", proc->cwd()));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->nlink, 2);
  // Existing target refused.
  EXPECT_EQ(call("link", {cstr("/tmp/fixture.dat"), cstr("/tmp/hard")})
                .status,
            core::CallStatus::kErrorReported);
}

TEST_F(PosixFixture, SymlinkReadlinkRoundTrip) {
  EXPECT_EQ(
      call("symlink", {cstr("/tmp/fixture.dat"), cstr("/tmp/sym")}).ret, 0u);
  const sim::Addr buf = proc->mem().alloc(64);
  const auto n = call("readlink", {cstr("/tmp/sym"), buf, 64});
  EXPECT_EQ(n.ret, 16u);  // strlen("/tmp/fixture.dat")
  // readlink on a non-symlink: EINVAL.
  EXPECT_EQ(call("readlink", {cstr("/tmp/fixture.dat"), buf, 64}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), EINVAL);
}

TEST_F(PosixFixture, StatReportsSizeAndMode) {
  const sim::Addr st = proc->mem().alloc(64);
  EXPECT_EQ(call("stat", {cstr("/tmp/fixture.dat"), st}).ret, 0u);
  const std::uint32_t mode = proc->mem().read_u32(st + 4, sim::Access::kKernel);
  EXPECT_EQ(mode & 0xF000u, 0x8000u);  // regular file
  const std::uint32_t size = proc->mem().read_u32(st + 16, sim::Access::kKernel);
  EXPECT_GT(size, 0u);
  EXPECT_EQ(call("stat", {cstr("/tmp"), st}).ret, 0u);
  EXPECT_EQ(proc->mem().read_u32(st + 4, sim::Access::kKernel) & 0xF000u,
            0x4000u);  // directory
}

TEST_F(PosixFixture, AccessChecksWriteBitOnReadOnly) {
  EXPECT_EQ(call("access", {cstr("/tmp/readonly.dat"), 4 /*R_OK*/}).ret, 0u);
  EXPECT_EQ(call("access", {cstr("/tmp/readonly.dat"), 2 /*W_OK*/}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), EACCES);
}

TEST_F(PosixFixture, ChmodTogglesWritability) {
  EXPECT_EQ(call("chmod", {cstr("/tmp/readonly.dat"), 0644}).ret, 0u);
  EXPECT_EQ(call("access", {cstr("/tmp/readonly.dat"), 2}).ret, 0u);
  EXPECT_EQ(call("chmod", {cstr("/tmp/readonly.dat"), 0444}).ret, 0u);
  EXPECT_EQ(call("access", {cstr("/tmp/readonly.dat"), 2}).status,
            core::CallStatus::kErrorReported);
}

TEST_F(PosixFixture, TruncateGrowsAndShrinks) {
  EXPECT_EQ(call("truncate", {cstr("/tmp/fixture.dat"), 4}).ret, 0u);
  auto node = machine.fs().resolve(
      machine.fs().parse("/tmp/fixture.dat", proc->cwd()));
  EXPECT_EQ(node->data().size(), 4u);
  EXPECT_EQ(call("truncate", {cstr("/tmp/fixture.dat"), 100}).ret, 0u);
  EXPECT_EQ(node->data().size(), 100u);
}

TEST_F(PosixFixture, GetcwdReportsErange) {
  (void)call("chdir", {cstr("/tmp")});
  const sim::Addr buf = proc->mem().alloc(64);
  EXPECT_EQ(call("getcwd", {buf, 64}).ret, buf);
  EXPECT_EQ(proc->mem().read_cstr(buf, 32, sim::Access::kKernel), "/tmp");
  EXPECT_EQ(call("getcwd", {buf, 2}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), ERANGE);
}

TEST_F(PosixFixture, FcntlDupfdAllocatesNewDescriptor) {
  const auto fd = call("open", {cstr("/tmp/fixture.dat"), 0, 0});
  const auto dup = call("fcntl", {fd.ret, 0 /*F_DUPFD*/, 0});
  EXPECT_NE(dup.ret, fd.ret);
  EXPECT_NE(proc->handles().get(dup.ret), nullptr);
  EXPECT_EQ(call("fcntl", {fd.ret, 99, 0}).status,
            core::CallStatus::kErrorReported);  // unknown command
}

TEST_F(PosixFixture, PipeWriteThenReadMovesBytes) {
  const sim::Addr fds = proc->mem().alloc(8);
  ASSERT_EQ(call("pipe", {fds}).ret, 0u);
  const std::uint32_t rfd = proc->mem().read_u32(fds, sim::Access::kKernel);
  const std::uint32_t wfd =
      proc->mem().read_u32(fds + 4, sim::Access::kKernel);
  const sim::Addr msg = cstr("through the pipe");
  EXPECT_EQ(call("write", {wfd, msg, 16}).ret, 16u);
  const sim::Addr buf = proc->mem().alloc(32);
  EXPECT_EQ(call("read", {rfd, buf, 16}).ret, 16u);
  EXPECT_EQ(proc->mem().read_cstr(buf, 16, sim::Access::kKernel),
            "through the pipe");
}

TEST_F(PosixFixture, WaitpidWnohangOnRunningChild) {
  // fork() leaves an exited child in this model; waitpid reaps it.
  (void)call("fork", {});
  const sim::Addr status = proc->mem().alloc(8);
  const auto r = call("waitpid", {static_cast<RawArg>(-1) & 0xffffffffull,
                                  status, 1 /*WNOHANG*/});
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  // With no children at all: ECHILD.
  auto fresh = machine.create_process();
  const core::MuT* mut = shared_world().registry.find("waitpid");
  std::vector<RawArg> args = {0, 0, 0};
  core::CallContext ctx(machine, *fresh, *mut, args);
  EXPECT_EQ(mut->impl(ctx).status, core::CallStatus::kErrorReported);
  EXPECT_EQ(fresh->err_no(), ECHILD);
}

TEST_F(PosixFixture, UmaskSilentlyMasksWildBits) {
  const auto ok_call = call("umask", {022});
  EXPECT_EQ(ok_call.status, core::CallStatus::kSuccess);
  const auto wild = call("umask", {0xffffffff});
  EXPECT_EQ(wild.status, core::CallStatus::kSilentSuccess);
}

TEST_F(PosixFixture, GetgroupsSizeProtocol) {
  EXPECT_EQ(call("getgroups", {0, 0}).ret, 1u);  // count query
  const sim::Addr buf = proc->mem().alloc(16);
  EXPECT_EQ(call("getgroups", {4, buf}).ret, 1u);
  EXPECT_EQ(proc->mem().read_u32(buf, sim::Access::kKernel), 500u);
  EXPECT_EQ(call("getgroups", {static_cast<RawArg>(-1) & 0xffffffffull, buf})
                .status,
            core::CallStatus::kErrorReported);
}

TEST_F(PosixFixture, SysconfKnownAndUnknownNames) {
  EXPECT_EQ(call("sysconf", {30}).ret, 4096u);  // _SC_PAGESIZE
  EXPECT_EQ(call("sysconf", {2}).ret, 100u);    // _SC_CLK_TCK
  EXPECT_EQ(call("sysconf", {999}).status,
            core::CallStatus::kErrorReported);
}

TEST_F(PosixFixture, OpendirReaddirSeesFixtureFiles) {
  const auto d = call("opendir", {cstr("/tmp")});
  ASSERT_EQ(d.status, core::CallStatus::kSuccess);
  std::set<std::string> names;
  for (;;) {
    const auto e = call("readdir", {d.ret});
    if (e.ret == 0) break;
    names.insert(
        proc->mem().read_cstr(e.ret + 8, 256, sim::Access::kKernel));
  }
  EXPECT_TRUE(names.count("fixture.dat"));
  EXPECT_TRUE(names.count("readonly.dat"));
  // rewinddir resets the cursor.
  EXPECT_EQ(call("rewinddir", {d.ret}).status, core::CallStatus::kSuccess);
  EXPECT_NE(call("readdir", {d.ret}).ret, 0u);
  EXPECT_EQ(call("closedir", {d.ret}).ret, 0u);
}

TEST_F(PosixFixture, MmapThenAccessThenMunmap) {
  const auto a = call("mmap", {0, 8192, 3 /*RW*/, 0x22 /*PRIVATE|ANON*/,
                               static_cast<RawArg>(-1) & 0xffffffffull, 0});
  ASSERT_EQ(a.status, core::CallStatus::kSuccess);
  proc->mem().write_u8(a.ret, 7, sim::Access::kUser);
  EXPECT_EQ(proc->mem().read_u8(a.ret, sim::Access::kUser), 7);
  EXPECT_EQ(call("munmap", {a.ret, 8192}).ret, 0u);
  EXPECT_THROW(proc->mem().read_u8(a.ret, sim::Access::kUser),
               sim::SimFault);
}

TEST_F(PosixFixture, MprotectReadOnlyBlocksWrites) {
  const auto a = call("mmap", {0, 4096, 3, 0x22,
                               static_cast<RawArg>(-1) & 0xffffffffull, 0});
  EXPECT_EQ(call("mprotect", {a.ret, 4096, 1 /*PROT_READ*/}).ret, 0u);
  EXPECT_THROW(proc->mem().write_u8(a.ret, 1, sim::Access::kUser),
               sim::SimFault);
}

// mprotect and munmap clamp a length to the 256 MiB VM limit: every mapped
// page in [addr, addr + 256 MiB) changes, nothing at or past the limit does.
constexpr std::uint64_t kVmLimit = 256ull << 20;
constexpr sim::Addr kStackPage = 0x7FEF'0000;  // lowest stack page

TEST_F(PosixFixture, MprotectClampsHugeLengthToVmLimit) {
  auto& mem = proc->mem();
  const sim::Addr below = mem.alloc(sim::kPageSize);
  const auto a = call("mmap", {0, 8192, 3, 0x22,
                               static_cast<RawArg>(-1) & 0xffffffffull, 0});
  ASSERT_EQ(a.status, core::CallStatus::kSuccess);
  const sim::Addr after = mem.alloc(sim::kPageSize);
  const sim::Addr limit = a.ret + kVmLimit;
  mem.map(limit - sim::kPageSize, 2 * sim::kPageSize, sim::kPermRW);
  EXPECT_EQ(call("mprotect", {a.ret, 0xFFFF'FFFF, 1 /*PROT_READ*/}).ret, 0u);
  for (const sim::Addr p :
       {a.ret, a.ret + sim::kPageSize, after, limit - sim::kPageSize})
    EXPECT_EQ(mem.perm_of(p), sim::kPermRead) << std::hex << p;
  for (const sim::Addr p : {below, limit, kStackPage})
    EXPECT_EQ(mem.perm_of(p), sim::kPermRW) << std::hex << p;
}

TEST_F(PosixFixture, MunmapClampsHugeLengthToVmLimit) {
  auto& mem = proc->mem();
  const sim::Addr below = mem.alloc(sim::kPageSize);
  const auto a = call("mmap", {0, 8192, 3, 0x22,
                               static_cast<RawArg>(-1) & 0xffffffffull, 0});
  ASSERT_EQ(a.status, core::CallStatus::kSuccess);
  const sim::Addr after = mem.alloc(sim::kPageSize);
  const sim::Addr limit = a.ret + kVmLimit;
  mem.map(limit - sim::kPageSize, 2 * sim::kPageSize, sim::kPermRW);
  const std::size_t pages = mem.mapped_page_count();
  EXPECT_EQ(call("munmap", {a.ret, 0x8000'0000}).ret, 0u);
  EXPECT_EQ(mem.mapped_page_count(), pages - 4);
  for (const sim::Addr p :
       {a.ret, a.ret + sim::kPageSize, after, limit - sim::kPageSize})
    EXPECT_FALSE(mem.is_mapped(p)) << std::hex << p;
  for (const sim::Addr p : {below, limit, kStackPage})
    EXPECT_TRUE(mem.is_mapped(p)) << std::hex << p;
}

}  // namespace
}  // namespace ballista::posix_api
