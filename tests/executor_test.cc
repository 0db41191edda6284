// Tests for single-case execution and CRASH classification.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;

/// Builds a one-MuT world whose implementation is supplied by the test.
struct MiniMut {
  explicit MiniMut(ApiImpl impl, std::vector<const DataType*> params = {}) {
    mut.name = "mini";
    mut.api = ApiKind::kCLib;
    mut.group = FuncGroup::kCString;
    mut.params = std::move(params);
    mut.impl = std::move(impl);
    mut.variant_mask = kMaskEverything;
  }
  MuT mut;
};

const TestValue kBenign{"benign", false, [](ValueCtx&) { return RawArg{1}; }};
const TestValue kExceptional{"exceptional", true,
                             [](ValueCtx&) { return RawArg{0}; }};

TEST(Executor, SuccessWithNoErrorIsPassAndSilentCandidate) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return ok(0); },
               {});
  MiniMut with_arg([](CallContext&) { return ok(0); }, {});
  // benign tuple: pass, not a silent candidate
  const CaseResult r1 = ex.run_case(mini.mut, {});
  EXPECT_EQ(r1.outcome, Outcome::kPass);
  EXPECT_TRUE(r1.success_no_error);
  EXPECT_FALSE(r1.any_exceptional);
}

TEST(Executor, ExceptionalTupleIsFlagged) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  DataType t("t");
  MiniMut mini([](CallContext&) { return ok(0); }, {&t});
  const TestValue* tuple[1] = {&kExceptional};
  const CaseResult r = ex.run_case(mini.mut, tuple);
  EXPECT_TRUE(r.any_exceptional);
  EXPECT_TRUE(r.success_no_error);
}

TEST(Executor, ErrorReportedIsRobustPass) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext& c) { return c.posix_fail(EINVAL); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);
}

TEST(Executor, SimFaultClassifiesAsAbort) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        c.proc().mem().read_u8(0, sim::Access::kUser);
        return ok(0);
      },
      {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_EQ(r.fault, sim::FaultType::kAccessViolation);
  EXPECT_FALSE(m.crashed());
}

TEST(Executor, HangClassifiesAsRestart) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut mini(
      [](CallContext& c) -> CallOutcome { c.proc().hang("forever"); },
      {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kRestart);
}

TEST(Executor, PanicClassifiesAsCatastrophicAndCrashesMachine) {
  sim::Machine m(OsVariant::kWin98);
  Executor ex(m);
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        c.machine().panic(sim::PanicKind::kInduced);
      },
      {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kCatastrophic);
  EXPECT_TRUE(m.crashed());
}

TEST(Executor, WrongErrorIsHinderingCandidate) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return wrong_error(static_cast<std::uint64_t>(-1)); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.wrong_error);
}

TEST(Executor, SilentSuccessCountsAsSuccessNoError) {
  sim::Machine m(OsVariant::kWin95);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return silent_success(1); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.success_no_error);
}

TEST(Executor, FilesystemFixtureIsResetBetweenCases) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut dirty(
      [](CallContext& c) -> CallOutcome {
        auto& fs = c.machine().fs();
        fs.remove_file(fs.parse("/tmp/fixture.dat", c.proc().cwd()));
        return ok(0);
      },
      {});
  MiniMut check(
      [](CallContext& c) -> CallOutcome {
        auto& fs = c.machine().fs();
        const bool there =
            fs.resolve(fs.parse("/tmp/fixture.dat", c.proc().cwd())) != nullptr;
        return there ? ok(1) : ok(0);
      },
      {});
  (void)ex.run_case(dirty.mut, {});
  const CaseResult r = ex.run_case(check.mut, {});
  EXPECT_TRUE(r.success_no_error);
  // The fixture file was restored for the second case; verify via a third
  // direct look.
  EXPECT_NE(m.fs().resolve(m.fs().parse("/tmp/fixture.dat",
                                        sim::FileSystem::root_path())),
            nullptr);
}

TEST(Executor, ErrorStateSentinelsAreClearedPerCase) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut set_err([](CallContext& c) { return c.win_fail(87); }, {});
  MiniMut read_err(
      [](CallContext& c) -> CallOutcome {
        // A fresh task must start with no stale error code.
        return c.proc().last_error() == 0 ? ok(0) : wrong_error(0);
      },
      {});
  (void)ex.run_case(set_err.mut, {});
  const CaseResult r = ex.run_case(read_err.mut, {});
  EXPECT_FALSE(r.wrong_error);
}

TEST(Executor, ValueFactoriesRunInsideTheFreshTask) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  DataType t("alloc_type");
  const TestValue allocating{"allocating", false, [](ValueCtx& c) {
                               return c.proc.mem().alloc_cstr("made-in-task");
                             }};
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        const std::string s =
            c.proc().mem().read_cstr(c.arg_addr(0), 64, sim::Access::kKernel);
        return s == "made-in-task" ? ok(1) : wrong_error(0);
      },
      {&t});
  const TestValue* tuple[1] = {&allocating};
  const CaseResult r = ex.run_case(mini.mut, tuple);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.wrong_error);
}

// run_case catches only the simulator's three exceptions; anything else
// propagates to its caller, but the mutation window and the leased task
// must not leak with it.
TEST(Executor, UncaughtExceptionClosesTheWindowAndReturnsTheTask) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut throws([](CallContext&) -> CallOutcome {
    throw std::runtime_error("not a simulator exception");
  });
  MiniMut fine([](CallContext&) { return ok(0); });
  EXPECT_THROW(ex.run_case(throws.mut, {}), std::runtime_error);
  EXPECT_FALSE(m.mutations().window_open());
  // The next case recycles the task the throwing case leased.
  const std::uint64_t built = m.processes_built();
  const std::uint64_t recycled = m.processes_recycled();
  EXPECT_EQ(ex.run_case(fine.mut, {}).outcome, Outcome::kPass);
  EXPECT_EQ(m.processes_built(), built);
  EXPECT_EQ(m.processes_recycled(), recycled + 1);
}

}  // namespace
}  // namespace ballista::core
