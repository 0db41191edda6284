// How a fault taken in the task reaches the classifier.
//
// Executor::run_case runs a MuT body through ApiImpl::run: a kernel helper
// or task-mode accessor records the fault in the CallContext, the body
// returns CallStatus::kFaulted, and run_case classifies the pending fault.
// No body lets a sim::SimFault escape run() any more.  Every other caller
// calls `mut.impl(ctx)`, whose call operator delivers the pending fault as
// sim::SimFault.  The differential sweep runs the first tuples of every MuT
// on every variant both ways, on two machines in lockstep, and requires the
// same CaseResult, the same counters and the same event ring; a body with a
// pending fault must have returned kFaulted and emitted nothing after the
// fault event, exactly as if the fault had unwound it.  Both machines count
// mutation points, so cleanup a body ran after the fault (a handle closed,
// a page written) is an event too.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using testing::CallFixture;
using testing::shared_world;

constexpr std::uint64_t kTuplesPerMut = 64;

/// run_case with the classification it had when a kernel-helper fault was a
/// C++ throw: the body runs through the ApiImpl call operator and every
/// fault is classified in the catch.  `ring_tail` is the event ring when a
/// panic unwound the body.
CaseResult reference_run_case(sim::Machine& machine, const MuT& mut,
                              std::span<const TestValue* const> tuple,
                              std::int64_t case_index,
                              std::vector<trace::TraceEvent>& ring_tail) {
  trace::TraceSink& sink = machine.trace();
  sink.set_case_index(case_index);
  const trace::Counters before = sink.counters();
  CaseResult result;
  for (const TestValue* v : tuple)
    if (v->exceptional) result.any_exceptional = true;
  machine.restore(sim::RestoreLevel::kCaseReset);
  auto proc = machine.acquire_process();
  ValueCtx vctx{machine, *proc};
  std::vector<RawArg> args;
  for (const TestValue* v : tuple) args.push_back(v->make(vctx));
  proc->set_last_error(0);
  proc->set_errno(0);
  CallContext ctx(machine, *proc, mut, args);
  machine.mutations().open_window();
  try {
    machine.kernel_enter();
    const CallOutcome out = mut.impl(ctx);
    sink.emit(trace::syscall_exit_event(out.status, out.ret));
    result.wrong_error = out.status == CallStatus::kWrongError;
    result.success_no_error = out.status == CallStatus::kSuccess ||
                              out.status == CallStatus::kSilentSuccess;
  } catch (const sim::KernelPanic& p) {
    result.outcome = Outcome::kCatastrophic;
    result.panic = p.kind();
    result.detail = p.what();
    ring_tail = sink.tail();
  } catch (const sim::TaskHang& h) {
    result.outcome = Outcome::kRestart;
    result.detail = h.what();
  } catch (const sim::SimFault& f) {
    result.outcome = Outcome::kAbort;
    result.fault = f.fault().type;
    result.detail = f.what();
  }
  machine.mutations().close_window();
  sink.emit(trace::classified_event(result.outcome, result.fault,
                                    result.success_no_error,
                                    result.wrong_error));
  result.events = sink.counters() - before;
  sink.set_case_index(-1);
  machine.release_process(std::move(proc));
  return result;
}

class FaultDelivery : public ::testing::TestWithParam<OsVariant> {};

TEST_P(FaultDelivery, RunCaseMatchesTheThrowingReference) {
  const OsVariant v = GetParam();
  sim::Machine real_machine(v);
  sim::Machine ref_machine(v);
  real_machine.mutations().set_counting(true);
  ref_machine.mutations().set_counting(true);
  Executor executor(real_machine);
  std::uint64_t pending_faults = 0;
  for (const MuT* mut : shared_world().registry.for_variant(v)) {
    std::uint64_t i = 0;
    // The same MuT, with a body that checks what the real one returned.
    MuT checked = *mut;
    checked.impl = [mut, &i, &real_machine,
                    &pending_faults](CallContext& ctx) -> CallOutcome {
      const std::string where = mut->name + " case " + std::to_string(i);
      trace::TraceSink& sink = real_machine.trace();
      const trace::Counters before = sink.counters();
      CallOutcome out;
      try {
        out = mut->impl.run(ctx);
      } catch (const sim::SimFault& f) {
        ADD_FAILURE() << where << ": SimFault escaped run(): " << f.what();
        throw;
      }
      if (ctx.pending_fault()) {
        ++pending_faults;
        EXPECT_EQ(out.status, CallStatus::kFaulted) << where;
        const trace::Counters emitted = sink.counters() - before;
        if (emitted[trace::EventKind::kFault] == 0) {
          // A fatal signal the task sent itself (deliver_fault) has no
          // fault event: it must have been the body's only effect.
          EXPECT_TRUE(emitted == trace::Counters{}) << where;
        } else {
          const auto last = sink.tail(1);
          EXPECT_TRUE(!last.empty() &&
                      last[0].kind == trace::EventKind::kFault &&
                      last[0].fault.addr == ctx.pending_fault()->address)
              << where << ": events after the fault";
        }
      } else {
        EXPECT_NE(out.status, CallStatus::kFaulted) << where;
      }
      return out;
    };
    const TupleGenerator gen(*mut);
    const std::uint64_t n = std::min(gen.count(), kTuplesPerMut);
    for (; i < n; ++i) {
      const auto tuple = gen.tuple(i);
      const auto idx = static_cast<std::int64_t>(i);
      std::vector<trace::TraceEvent> ring_tail;
      const CaseResult ref =
          reference_run_case(ref_machine, *mut, tuple, idx, ring_tail);
      const CaseResult got = executor.run_case(checked, tuple, idx);
      const std::string where = mut->name + " case " + std::to_string(i);
      ASSERT_EQ(got.outcome, ref.outcome) << where;
      EXPECT_EQ(got.fault, ref.fault) << where;
      EXPECT_EQ(got.panic, ref.panic) << where;
      EXPECT_EQ(got.detail, ref.detail) << where;
      EXPECT_EQ(got.success_no_error, ref.success_no_error) << where;
      EXPECT_EQ(got.wrong_error, ref.wrong_error) << where;
      EXPECT_EQ(got.any_exceptional, ref.any_exceptional) << where;
      EXPECT_TRUE(got.events == ref.events) << where;
      // The causal window run_case keeps is a suffix of the ring at death.
      if (ref.outcome == Outcome::kCatastrophic) {
        ASSERT_FALSE(got.trace_tail.empty()) << where;
        ASSERT_LE(got.trace_tail.size(), ring_tail.size()) << where;
        EXPECT_TRUE(std::equal(got.trace_tail.begin(), got.trace_tail.end(),
                               ring_tail.end() - static_cast<std::ptrdiff_t>(
                                                     got.trace_tail.size())))
            << where;
      }
      ASSERT_TRUE(real_machine.trace().tail() == ref_machine.trace().tail())
          << where;
      ASSERT_EQ(real_machine.crashed(), ref_machine.crashed()) << where;
      if (real_machine.crashed()) {
        real_machine.reboot();
        ref_machine.reboot();
      }
    }
  }
  // Every variant takes faults in the task (the C library dereferences raw
  // pointers everywhere), so every variant exercises the value path.
  EXPECT_GT(pending_faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FaultDelivery,
    ::testing::ValuesIn(sim::kAllVariants.begin(), sim::kAllVariants.end()),
    [](const ::testing::TestParamInfo<OsVariant>& info) {
      std::string name{sim::variant_name(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

/// A one-MuT body that hands a NULL pointer to a kernel write helper.
MuT null_write_mut() {
  MuT m;
  m.name = "null_write";
  m.api = ApiKind::kWin32Sys;
  m.variant_mask = kMaskEverything;
  m.impl = [](CallContext& ctx) -> CallOutcome {
    const std::uint8_t b[4] = {1, 2, 3, 4};
    const MemStatus st = ctx.k_write(0, b);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    return ok(1);
  };
  return m;
}

TEST(FaultDeliveryAdapter, CallOperatorThrowsThePendingFault) {
  CallFixture f(OsVariant::kWinNT4);
  const MuT m = null_write_mut();
  auto ctx = f.ctx();
  try {
    (void)m.impl(ctx);
    FAIL() << "no SimFault";
  } catch (const sim::SimFault& e) {
    EXPECT_EQ(e.fault().address, 0u);
    EXPECT_TRUE(e.fault().is_write);
  }
  auto ctx2 = f.ctx();
  EXPECT_EQ(m.impl.run(ctx2).status, CallStatus::kFaulted);
  ASSERT_TRUE(ctx2.pending_fault().has_value());
  EXPECT_EQ(ctx2.pending_fault()->type, sim::FaultType::kAccessViolation);
}

TEST(FaultDeliveryAdapter, RunCaseClassifiesAPendingFaultAsAbort) {
  sim::Machine m(OsVariant::kWin2000);
  Executor ex(m);
  const MuT mut = null_write_mut();
  const CaseResult r = ex.run_case(mut, {});
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_EQ(r.fault, sim::FaultType::kAccessViolation);
  EXPECT_EQ(r.detail, sim::describe_fault({sim::FaultType::kAccessViolation,
                                           0, /*is_write=*/true}));
  EXPECT_EQ(r.events[trace::EventKind::kFault], 1u);
  // The call never returned to the task.
  EXPECT_EQ(r.events[trace::EventKind::kSyscallExit], 0u);
  EXPECT_EQ(r.events[trace::EventKind::kCaseClassified], 1u);
}

}  // namespace
}  // namespace ballista::core
