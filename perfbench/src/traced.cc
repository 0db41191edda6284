#include "traced.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "clib/crt.h"
#include "core/executor.h"
#include "core/report.h"
#include "digest.h"
#include "rpc/protocol.h"
#include "rpc/session.h"
#include "stats.h"
#include "store/format.h"
#include "store/store.h"

namespace perfbench {

namespace rpc = ballista::rpc;
namespace store = ballista::store;
namespace trace = ballista::trace;
namespace clib = ballista::clib;
using Clock = std::chrono::steady_clock;
using Tick = Clock::time_point;

namespace {

double ns(Tick a, Tick b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

constexpr std::size_t kFamilies = 3;  // indexed by core::ApiKind

/// Self time per layer, in nanoseconds, plus the counts they divide by.
struct Account {
  double gen = 0, restore = 0, acquire = 0, materialize = 0, crt = 0;
  std::array<double, kFamilies> mut{};
  double trace = 0, classify = 0, release = 0;
  double reboot = 0;
  double verify = 0;  // crash copy only
  /// Wall time of the copy's shard loops.
  double loop = 0;
  std::array<std::uint64_t, kFamilies> family_cases{};
  std::uint64_t crt_builds = 0;  // every CRT build the copy observed
  std::uint64_t crt_timed = 0;   // builds made by the timed pre-call
  std::uint64_t events = 0;
  std::uint64_t points = 0;
  std::uint64_t cuts = 0;
  std::uint64_t reboots = 0;
  std::uint64_t fixture_rebuilds = 0, built = 0, recycled = 0;

  Account& operator+=(const Account& o) {
    gen += o.gen, restore += o.restore, acquire += o.acquire;
    materialize += o.materialize, crt += o.crt;
    for (std::size_t f = 0; f < kFamilies; ++f) {
      mut[f] += o.mut[f];
      family_cases[f] += o.family_cases[f];
    }
    trace += o.trace, classify += o.classify, release += o.release;
    reboot += o.reboot, verify += o.verify, loop += o.loop;
    crt_builds += o.crt_builds, crt_timed += o.crt_timed;
    events += o.events, points += o.points, cuts += o.cuts;
    reboots += o.reboots;
    fixture_rebuilds += o.fixture_rebuilds, built += o.built;
    recycled += o.recycled;
    return *this;
  }

  double self_total() const {
    double s = gen + restore + acquire + materialize + crt + trace + classify +
               release + reboot + verify;
    for (double m : mut) s += m;
    return s;
  }
};

// --- the bench-side copy of Executor::run_case -------------------------------

/// Verbatim copy of executor.cc's causal_window (internal linkage there).
std::vector<trace::TraceEvent> causal_window(std::vector<trace::TraceEvent> tail,
                                             sim::PanicKind why) {
  if (tail.empty()) return tail;
  std::size_t anchor = tail.size() - 1;
  if (why == sim::PanicKind::kDeferredFuse) {
    for (std::size_t k = tail.size(); k-- > 0;) {
      if (tail[k].kind == trace::EventKind::kArenaCorruption) {
        anchor = k;
        break;
      }
    }
  }
  const std::int64_t c = tail[anchor].case_index;
  std::size_t start = anchor;
  while (start > 0 && tail[start].kind != trace::EventKind::kSyscallEnter &&
         tail[start - 1].case_index == c)
    --start;
  tail.erase(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(start));
  return tail;
}

/// Executor::run_case step for step, with a timestamp between the public
/// calls it makes.  With `precall_crt`, a task that has no CRT yet builds it
/// by a timed clib::crt_state call just before the MuT body instead of
/// lazily inside it; `body_built_crt` reports whether the body built it.
core::CaseResult run_case_copy(sim::Machine& machine, const core::MuT& mut,
                               std::span<const core::TestValue* const> tuple,
                               std::int64_t case_index, bool precall_crt,
                               bool& body_built_crt, Account& acc) {
  const Tick t0 = Clock::now();
  trace::TraceSink& sink = machine.trace();
  sink.set_case_index(case_index);
  const trace::Counters before = sink.counters();

  core::CaseResult result;
  for (const core::TestValue* v : tuple)
    if (v->exceptional) result.any_exceptional = true;
  const Tick t1 = Clock::now();

  machine.restore(sim::RestoreLevel::kCaseReset);
  const Tick t2 = Clock::now();

  auto proc = machine.acquire_process();
  const Tick t3 = Clock::now();

  const bool had_crt = proc->crt_state() != nullptr;
  core::ValueCtx vctx{machine, *proc};
  std::vector<core::RawArg> args;
  args.reserve(tuple.size());
  for (const core::TestValue* v : tuple) args.push_back(v->make(vctx));
  proc->set_last_error(0);
  proc->set_errno(0);
  core::CallContext ctx(machine, *proc, mut, args);
  const Tick t4 = Clock::now();
  if (!had_crt && proc->crt_state() != nullptr) ++acc.crt_builds;

  if (precall_crt && proc->crt_state() == nullptr) {
    clib::crt_state(*proc);
    ++acc.crt_builds;
    ++acc.crt_timed;
  }
  const bool crt_before_body = proc->crt_state() != nullptr;
  const Tick t5 = Clock::now();

  machine.mutations().open_window();
  Tick body_end{};
  Tick exit_emitted{};
  try {
    machine.kernel_enter();
    const core::CallOutcome out = mut.impl(ctx);
    body_end = Clock::now();
    sink.emit(trace::syscall_exit_event(out.status, out.ret));
    exit_emitted = Clock::now();
    switch (out.status) {
      case core::CallStatus::kErrorReported:
        result.outcome = core::Outcome::kPass;
        break;
      case core::CallStatus::kWrongError:
        result.outcome = core::Outcome::kPass;
        result.wrong_error = true;
        break;
      case core::CallStatus::kSuccess:
      case core::CallStatus::kSilentSuccess:
        result.outcome = core::Outcome::kPass;
        result.success_no_error = true;
        break;
    }
  } catch (const sim::KernelPanic& p) {
    body_end = exit_emitted = Clock::now();
    result.outcome = core::Outcome::kCatastrophic;
    result.panic = p.kind();
    result.detail = p.what();
    result.trace_tail = causal_window(sink.tail(), result.panic);
  } catch (const sim::TaskHang& h) {
    body_end = exit_emitted = Clock::now();
    result.outcome = core::Outcome::kRestart;
    result.detail = h.what();
  } catch (const sim::SimFault& f) {
    body_end = exit_emitted = Clock::now();
    result.outcome = core::Outcome::kAbort;
    result.fault = f.fault().type;
    result.detail = f.what();
  }
  machine.mutations().close_window();
  const Tick t6 = Clock::now();
  body_built_crt = !crt_before_body && proc->crt_state() != nullptr;
  if (body_built_crt) ++acc.crt_builds;
  sink.emit(trace::classified_event(result.outcome, result.fault,
                                    result.success_no_error,
                                    result.wrong_error));
  result.events = sink.counters() - before;
  sink.set_case_index(-1);
  const Tick t7 = Clock::now();
  machine.release_process(std::move(proc));
  const Tick t8 = Clock::now();

  acc.trace += ns(t0, t1) + ns(body_end, exit_emitted) + ns(t6, t7);
  acc.restore += ns(t1, t2);
  acc.acquire += ns(t2, t3);
  acc.materialize += ns(t3, t4);
  acc.crt += ns(t4, t5);
  acc.mut[static_cast<std::size_t>(mut.api)] += ns(t5, body_end);
  acc.classify += ns(exit_emitted, t6);
  acc.release += ns(t7, t8);
  acc.events += result.events.total();
  return result;
}

/// One executed case, as the shard loops log it for the copy-vs-real check.
struct LoggedCase {
  const core::MuT* mut;
  std::int64_t index;
  core::CaseResult result;
  bool body_built_crt;
};

/// Drives one replay of a shard: the machine it runs on, how each case runs
/// (the timed copy, or the real Executor::run_case when `copy` is false), the
/// account that times the loop's other layer calls and the log of every case
/// result.  `precall` (optional) marks, by position in the log, the cases
/// whose CRT the copy builds by the timed pre-call.
class Runner {
 public:
  Runner(sim::Machine& machine, bool copy, const std::vector<bool>* precall,
         Account& acc)
      : machine_(machine), exec_(machine), copy_(copy), precall_(precall),
        acc_(acc) {}

  core::CaseResult run(const core::MuT& mut,
                       std::span<const core::TestValue* const> tuple,
                       std::int64_t i) {
    const std::size_t k = log_.size();
    const bool pre = precall_ != nullptr && k < precall_->size() && (*precall_)[k];
    bool built = false;
    core::CaseResult r =
        copy_ ? run_case_copy(machine_, mut, tuple, i, pre, built, acc_)
              : exec_.run_case(mut, tuple, i);
    log_.push_back({&mut, i, r, built});
    return r;
  }

  /// Times a machine operation outside any case.
  template <typename F>
  double timed(F&& f) {
    const Tick t0 = Clock::now();
    f(machine_);
    return ns(t0, Clock::now());
  }

  /// Machine::restore(kReboot), timed.
  void reboot() {
    acc_.reboot +=
        timed([](sim::Machine& m) { m.restore(sim::RestoreLevel::kReboot); });
    ++acc_.reboots;
  }

  sim::Machine& machine() noexcept { return machine_; }
  Account& acc() noexcept { return acc_; }
  const std::vector<LoggedCase>& log() const noexcept { return log_; }

 private:
  sim::Machine& machine_;
  core::Executor exec_;
  bool copy_;
  const std::vector<bool>* precall_;
  Account& acc_;
  std::vector<LoggedCase> log_;
};

/// What the real Executor::run_case returned for one case, kept to check the
/// copy against: a digest of every field but the trace tail, and the tail.
struct RealCase {
  std::uint64_t fields;
  std::vector<trace::TraceEvent> trace_tail;
};

std::vector<RealCase> real_cases(const std::vector<LoggedCase>& log) {
  std::vector<RealCase> out;
  out.reserve(log.size());
  for (const LoggedCase& c : log)
    out.push_back({digest(c.result), c.result.trace_tail});
  return out;
}

/// Compares the copy's case log with the real executor's for the same shard;
/// both replays started from a pristine checkout (MachinePool::checkout
/// resets the machine), so each pair of cases ran on machines in the same
/// state for as long as the logs agree.  Empty when they agree throughout.
std::string compare_logs(const std::vector<LoggedCase>& copy,
                         const std::vector<RealCase>& real) {
  for (std::size_t k = 0; k < std::min(copy.size(), real.size()); ++k) {
    const core::CaseResult& r = copy[k].result;
    const char* what = digest(r) != real[k].fields ? "CaseResult fields"
                       : r.trace_tail != real[k].trace_tail ? "trace tail"
                                                            : nullptr;
    if (what != nullptr)
      return copy[k].mut->name + " case " + std::to_string(copy[k].index) +
             ": " + what + " differ from Executor::run_case";
  }
  if (copy.size() != real.size())
    return "case count differs from Executor::run_case";
  return {};
}

struct MachineCounts {
  std::uint64_t fixture_rebuilds, built, recycled;
};
MachineCounts counts_of(sim::Machine& m) {
  return {m.fs().fixture_rebuilds(), m.processes_built(),
          m.processes_recycled()};
}
void add_delta(Account& acc, const MachineCounts& before, sim::Machine& m) {
  const MachineCounts now = counts_of(m);
  acc.fixture_rebuilds += now.fixture_rebuilds - before.fixture_rebuilds;
  acc.built += now.built - before.built;
  acc.recycled += now.recycled - before.recycled;
}

/// core::run_shard step for step, every case through `run`.
core::ShardOutcome replay_shard(Runner& run, const core::Shard& shard,
                                const core::CampaignOptions& opt) {
  sim::Machine& machine = run.machine();
  Account& acc = run.acc();
  core::ShardOutcome out;
  out.shard_index = shard.index;

  std::int64_t last_corruptor = -1;
  int corruption_seen = machine.arena().corruption();
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardStart, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));
  core::TupleScratch scratch;

  for (const core::ShardItem& item : shard.items) {
    const std::int64_t self = static_cast<std::int64_t>(out.partials.size());
    out.partials.push_back({item.mut_index, item.range.first, {}});
    core::MutStats& stats = out.partials.back().stats;
    stats.mut = item.mut;
    stats.planned = item.planned;
    if (item.range.count == 0) continue;
    const std::uint64_t end = item.range.first + item.range.count;
    if (opt.record_cases)
      stats.case_codes.reserve(static_cast<std::size_t>(item.range.count));
    Tick g0 = Clock::now();
    core::TupleGenerator gen(*item.mut, opt.cap, opt.seed);
    core::TupleCursor cur = gen.begin(item.range.first, scratch);
    acc.gen += ns(g0, Clock::now());
    const auto family = static_cast<std::size_t>(item.mut->api);

    for (std::uint64_t i = item.range.first; i < end;) {
      const auto tuple = cur.values();
      const core::CaseResult r =
          run.run(*item.mut, tuple, static_cast<std::int64_t>(i));
      ++stats.executed;
      ++out.executed_cases;
      ++acc.family_cases[family];
      stats.event_counts += r.events;
      if (opt.record_cases) stats.case_codes.push_back(core::case_code(r));

      if (machine.arena().corruption() > corruption_seen) {
        corruption_seen = machine.arena().corruption();
        last_corruptor = self;
      }

      switch (r.outcome) {
        case core::Outcome::kPass:
          ++stats.passes;
          if (r.success_no_error && r.any_exceptional)
            ++stats.silent_candidates;
          if (r.wrong_error) ++stats.hindering;
          break;
        case core::Outcome::kAbort:
          ++stats.aborts;
          break;
        case core::Outcome::kRestart:
          ++stats.restarts;
          break;
        case core::Outcome::kNotRun:
          break;
        case core::Outcome::kCatastrophic: {
          const bool deferred = r.panic == sim::PanicKind::kDeferredFuse;
          core::MutStats* blamed = &stats;
          if (deferred && last_corruptor >= 0 && last_corruptor != self)
            blamed =
                &out.partials[static_cast<std::size_t>(last_corruptor)].stats;
          if (!blamed->catastrophic) {
            blamed->catastrophic = true;
            blamed->crash_detail = r.detail;
            blamed->crash_trace = r.trace_tail;
            if (blamed == &stats) {
              blamed->crash_case = static_cast<std::int64_t>(i);
              blamed->crash_tuple = core::describe_tuple(tuple);
            }
          }
          run.reboot();
          ++out.reboots;
          corruption_seen = 0;
          last_corruptor = -1;

          if (blamed == &stats) {
            if (opt.repro_pass) {
              const core::CaseResult rerun =
                  run.run(*item.mut, tuple, static_cast<std::int64_t>(i));
              stats.crash_reproducible_single =
                  rerun.outcome == core::Outcome::kCatastrophic;
              if (machine.crashed()) {
                run.reboot();
                ++out.reboots;
              } else if (machine.arena().corruption() > 0) {
                run.reboot();
              }
              corruption_seen = 0;
              last_corruptor = -1;
            }
            i = end;
          }
          break;
        }
      }
      ++i;
      if (i < end) {
        g0 = Clock::now();
        cur.advance();
        acc.gen += ns(g0, Clock::now());
      }
    }
  }
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardEnd, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));
  return out;
}

// --- the crash-shard copy ----------------------------------------------------

/// Copy of crashplan.cc's select_cuts (internal linkage there).
std::vector<std::uint64_t> select_cuts(std::uint64_t points,
                                       std::uint64_t max_cuts) {
  std::vector<std::uint64_t> ks;
  if (points == 0 || max_cuts == 0) return ks;
  if (points <= max_cuts) {
    for (std::uint64_t k = 1; k <= points; ++k) ks.push_back(k);
    return ks;
  }
  if (max_cuts == 1) {
    ks.push_back(points);
    return ks;
  }
  for (std::uint64_t j = 0; j < max_cuts; ++j)
    ks.push_back(1 + (j * (points - 1)) / (max_cuts - 1));
  return ks;
}

/// Copy of crashplan.cc's first_violation (internal linkage there).
std::string first_violation(sim::Machine& m) {
  if (m.crashed()) return "machine still crashed after reboot";
  if (m.panic_kind() != sim::PanicKind::kNone)
    return "panic kind not cleared by reboot";
  if (m.arena().corruption() != 0) return "arena corruption survived reboot";
  if (!m.fs().fixture_clean()) return "disk fixture differs from checkpoint";

  std::set<const sim::FsNode*> visited;
  std::vector<std::shared_ptr<sim::FsNode>> stack{m.fs().root()};
  while (!stack.empty()) {
    auto node = stack.back();
    stack.pop_back();
    if (!node) return "null node in fs tree";
    if (!visited.insert(node.get()).second) return "cycle in fs tree";
    if (!node->is_dir() && !node->children().empty())
      return "regular file has children";
    if (node->nlink < 1) return "node with nlink < 1 still linked";
    for (const auto& [key, child] : node->children()) stack.push_back(child);
  }

  auto proc = m.acquire_process();
  std::string bad;
  if (proc->handles().size() != 3)
    bad = "fresh task does not hold exactly the three std handles";
  else if (proc->last_error() != 0)
    bad = "fresh task has nonzero last_error";
  else if (proc->err_no() != 0)
    bad = "fresh task has nonzero errno";
  else if (proc->cwd().components !=
           std::vector<std::string>{std::string(sim::FileSystem::kScratchDir)})
    bad = "fresh task cwd is not the scratch directory";
  m.release_process(std::move(proc));
  return bad;
}

/// core::run_crash_shard step for step, every run_case through `run`.
core::CrashShardOutcome replay_crash_shard(Runner& run, const core::Shard& shard,
                                           const core::CrashOptions& opt) {
  sim::Machine& machine = run.machine();
  Account& acc = run.acc();
  sim::MutationHub& hub = machine.mutations();
  core::CrashShardOutcome out;
  out.shard_index = shard.index;

  for (const core::ShardItem& item : shard.items) {
    out.partials.push_back({item.mut_index, item.range.first, {}});
    core::CrashMutStats& stats = out.partials.back().stats;
    stats.mut = item.mut;
    stats.planned = item.planned;
    Tick g0 = Clock::now();
    const core::TupleGenerator gen(*item.mut, opt.cap, opt.seed);
    acc.gen += ns(g0, Clock::now());
    const std::uint64_t end = item.range.first + item.range.count;
    const auto family = static_cast<std::size_t>(item.mut->api);

    for (std::uint64_t i = item.range.first; i < end; ++i) {
      g0 = Clock::now();
      const auto tuple = gen.tuple(i);
      acc.gen += ns(g0, Clock::now());
      const auto idx = static_cast<std::int64_t>(i);

      hub.reset_counts();
      hub.set_counting(true);
      run.run(*item.mut, tuple, idx);
      hub.set_counting(false);
      const std::uint64_t points = hub.seq();
      ++stats.cases_counted;
      ++acc.family_cases[family];
      stats.points_total += points;
      acc.points += points;
      for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
        stats.point_counts[k] += hub.counts()[k];
      if (machine.crashed()) {
        run.reboot();
        ++out.reboots;
      }

      for (const std::uint64_t k : select_cuts(points, opt.max_cuts)) {
        hub.reset_counts();
        hub.arm(sim::FaultPlan{k});
        run.run(*item.mut, tuple, idx);
        const std::uint64_t fired = hub.cut_fired_at();
        hub.disarm();

        core::CrashVerdict verdict;
        std::string detail;
        if (machine.crashed()) {
          run.reboot();
          ++out.reboots;
        }
        if (fired != k) {
          verdict = core::CrashVerdict::kNoCut;
          std::ostringstream os;
          os << "armed cut at point " << k << " fired at " << fired
             << " (counting pass saw " << points << " points)";
          detail = os.str();
        } else {
          acc.verify +=
              run.timed([&](sim::Machine& m) { detail = first_violation(m); });
          verdict = detail.empty() ? core::CrashVerdict::kConsistent
                                   : core::CrashVerdict::kInconsistent;
        }

        ++stats.cuts_tested;
        ++out.cuts_tested;
        ++acc.cuts;
        switch (verdict) {
          case core::CrashVerdict::kConsistent:
            ++stats.consistent;
            break;
          case core::CrashVerdict::kInconsistent:
            ++stats.inconsistent;
            break;
          case core::CrashVerdict::kNoCut:
            ++stats.no_cut;
            break;
        }
        if (verdict != core::CrashVerdict::kConsistent)
          stats.findings.push_back({i, k, verdict, std::move(detail)});
      }
    }
  }
  hub.full_reset();
  return out;
}

// --- per-unit plumbing ---------------------------------------------------------

/// The options the production call runs a unit with.  A service session runs
/// what its canonical spec says, exactly as the server derives it.
core::CampaignOptions unit_options(const Workload& w, const Params& p,
                                   sim::OsVariant v) {
  core::CampaignOptions opt = campaign_options(w, p);
  if (w.kind == Kind::kService)
    opt = rpc::options_from_spec(rpc::spec_for(v, opt)).value();
  opt.jobs = 1;
  return opt;
}

core::Plan unit_plan(const Workload& w, const Params& p,
                     const harness::World& world, sim::OsVariant v) {
  if (w.kind == Kind::kCrash)
    return core::crash_plan_for(v, world.registry, crash_options(w, p));
  return core::plan_for(v, world.registry, unit_options(w, p, v));
}

/// Pass 2 results.
struct RealPass {
  std::vector<double> shard_ms;
  double shard_s = 0;
  double plan_s = 0;
  double merge_s = 0;
  std::uint64_t shards = 0;
  std::uint64_t cases = 0;
  std::uint64_t cuts = 0;
  std::vector<double> append_us;
  std::uint64_t log_bytes = 0;
  double encode_ns = 0, decode_ns = 0;
  std::uint64_t frames = 0;
};

/// Times one service session's outcomes through the store and the codec.
void store_and_codec(const Workload& w, const Params& p, sim::OsVariant v,
                     const core::Plan& plan,
                     const std::vector<core::ShardOutcome>& outcomes,
                     RealPass& rp, std::vector<UnitOutcome>& units) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(p.scratch_dir) / "traced-store";
  fs::create_directories(dir);
  const std::string path = (dir / (unit_key(w, p, v) + ".blog")).string();
  {
    store::ResumableLog::Opened opened = store::ResumableLog::open(
        path, plan, store::make_run_header(plan, unit_options(w, p, v)),
        store::ResumableLog::Mode::kCreate);
    if (!opened.log) {
      units.push_back({unit_key(w, p, v), std::nullopt,
                       "store open failed: " + opened.error});
      return;
    }
    for (const core::ShardOutcome& o : outcomes) {
      const Tick t0 = Clock::now();
      const bool ok = opened.log->append_shard(o);
      rp.append_us.push_back(ns(t0, Clock::now()) / 1e3);
      if (!ok) {
        units.push_back(
            {unit_key(w, p, v), std::nullopt, "store append failed"});
        return;
      }
    }
  }
  rp.log_bytes += fs::file_size(path);
  fs::remove_all(dir);

  for (const core::ShardOutcome& o : outcomes) {
    const rpc::Message m{rpc::StreamedShard{1, o}};
    const Tick t0 = Clock::now();
    const std::vector<std::uint8_t> frame = rpc::encode(m);
    const Tick t1 = Clock::now();
    const std::optional<rpc::Message> back = rpc::decode(frame);
    const Tick t2 = Clock::now();
    rp.encode_ns += ns(t0, t1);
    rp.decode_ns += ns(t1, t2);
    ++rp.frames;
    if (!back) {
      units.push_back(
          {unit_key(w, p, v), std::nullopt, "codec round trip failed"});
      return;
    }
  }
}

RealPass real_pass(const Workload& w, const Params& p,
                   const harness::World& world,
                   std::vector<UnitOutcome>& units) {
  RealPass rp;
  for (sim::OsVariant v : w.variants) {
    UnitOutcome u{unit_key(w, p, v), std::nullopt, {}};
    try {
      Tick t0 = Clock::now();
      const core::Plan plan = unit_plan(w, p, world, v);
      rp.plan_s += std::chrono::duration<double>(Clock::now() - t0).count();
      rp.shards += plan.shards.size();
      core::MachinePool pool(v, 1);
      const auto timed = [&](auto&& run) {
        const Tick s0 = Clock::now();
        auto out = run();
        const double ms = ns(s0, Clock::now()) / 1e6;
        rp.shard_ms.push_back(ms);
        rp.shard_s += ms / 1e3;
        return out;
      };
      if (w.kind == Kind::kCrash) {
        const core::CrashOptions opt = crash_options(w, p);
        std::vector<core::CrashShardOutcome> outs;
        for (const core::Shard& s : plan.shards) {
          sim::Machine& m = pool.checkout(0, v);
          outs.push_back(timed([&] { return core::run_crash_shard(m, s, opt); }));
        }
        t0 = Clock::now();
        const core::CrashCampaignResult r =
            core::merge_crash_outcomes(plan, std::move(outs));
        rp.merge_s += std::chrono::duration<double>(Clock::now() - t0).count();
        for (const core::CrashMutStats& s : r.stats) rp.cases += s.cases_counted;
        rp.cuts += r.total_cuts;
        u.digest = digest(r);
      } else {
        const core::CampaignOptions opt = unit_options(w, p, v);
        std::vector<core::ShardOutcome> outs;
        for (const core::Shard& s : plan.shards) {
          sim::Machine& m = pool.checkout(0, v);
          outs.push_back(timed([&] { return core::run_shard(m, s, opt); }));
        }
        if (w.kind == Kind::kService)
          store_and_codec(w, p, v, plan, outs, rp, units);
        t0 = Clock::now();
        const core::CampaignResult r =
            core::merge_outcomes(plan, std::move(outs));
        rp.merge_s += std::chrono::duration<double>(Clock::now() - t0).count();
        rp.cases += r.total_cases;
        u.digest = digest(r);
      }
    } catch (const std::exception& e) {
      u.error = e.what();
    }
    units.push_back(std::move(u));
  }
  return rp;
}

/// Pass 3.  First, untimed and on up to four threads, every shard through
/// the real Executor::run_case, each from a pristine checkout; those
/// case results are what the copies must match.  Then, per unit and
/// single-threaded, each shard through the timed copy with the CRT left
/// inside the bodies, and, for the shards in which a body built the CRT,
/// again with a timed clib::crt_state pre-call in exactly those cases.  A
/// shard in which no body built the CRT runs the same code either way, so
/// its first run counts for both accounts.
struct Replay {
  Account plain;  // CRT inside mut.clib
  Account split;  // CRT split out by the pre-call
  std::uint64_t mismatched_shards = 0;
  std::uint64_t split_mismatched_shards = 0;
};

Replay replay(const Workload& w, const Params& p, const harness::World& world,
              std::vector<UnitOutcome>& units) {
  const std::size_t n = w.variants.size();
  const core::CrashOptions crash_opt = crash_options(w, p);
  std::vector<core::Plan> plans(n);
  std::vector<std::string> errors(n);
  std::vector<std::vector<std::vector<RealCase>>> real(n);  // unit, shard
  std::vector<std::pair<std::size_t, std::size_t>> tasks;   // unit, shard
  for (std::size_t k = 0; k < n; ++k) {
    try {
      plans[k] = unit_plan(w, p, world, w.variants[k]);
    } catch (const std::exception& e) {
      errors[k] = e.what();
      continue;
    }
    real[k].resize(plans[k].shards.size());
    for (std::size_t j = 0; j < plans[k].shards.size(); ++j)
      tasks.emplace_back(k, j);
  }

  std::mutex errors_mu;
  std::atomic<std::size_t> next{0};
  const auto check_shards = [&] {
    std::optional<core::MachinePool> pool;
    Account untimed;
    for (std::size_t t; (t = next.fetch_add(1)) < tasks.size();) {
      const auto [k, j] = tasks[t];
      const sim::OsVariant v = w.variants[k];
      try {
        if (!pool) pool.emplace(v, 1);
        Runner run(pool->checkout(0, v), /*copy=*/false, nullptr, untimed);
        if (w.kind == Kind::kCrash)
          replay_crash_shard(run, plans[k].shards[j], crash_opt);
        else
          replay_shard(run, plans[k].shards[j], unit_options(w, p, v));
        real[k][j] = real_cases(run.log());
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(errors_mu);
        if (errors[k].empty()) errors[k] = e.what();
      }
    }
  };
  {
    const Tick t0 = Clock::now();
    const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
        {tasks.size(), 4, std::max(1u, std::thread::hardware_concurrency())}));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(check_shards);
    for (std::thread& t : pool) t.join();
    std::fprintf(stderr, "perfbench: traced real run_case pass took %.1f s\n",
                 ns(t0, Clock::now()) / 1e9);
  }

  Replay rp;
  for (std::size_t k = 0; k < n; ++k) {
    const sim::OsVariant v = w.variants[k];
    const core::Plan& plan = plans[k];
    UnitOutcome u{unit_key(w, p, v), std::nullopt, errors[k]};
    try {
      core::MachinePool pool(v, 1);
      std::string mismatch;
      const auto run_shards = [&](auto&& one) {
        using Out = decltype(one(std::declval<Runner&>(), plan.shards.front()));
        std::vector<Out> outs;
        for (std::size_t j = 0; j < plan.shards.size(); ++j) {
          const core::Shard& s = plan.shards[j];
          sim::Machine& a = pool.checkout(0, v);
          const MachineCounts before = counts_of(a);
          Account acc;
          Runner plain(a, /*copy=*/true, nullptr, acc);
          Tick t0 = Clock::now();
          outs.push_back(one(plain, s));
          acc.loop += ns(t0, Clock::now());
          add_delta(acc, before, a);
          rp.plain += acc;
          std::string diff = compare_logs(plain.log(), real[k][j]);
          if (!diff.empty()) {
            ++rp.mismatched_shards;
            if (mismatch.empty()) mismatch = std::move(diff);
          }

          std::vector<bool> precall;
          for (const LoggedCase& c : plain.log())
            precall.push_back(c.body_built_crt);
          if (std::count(precall.begin(), precall.end(), true) == 0) {
            rp.split += acc;
            continue;
          }
          Runner split(pool.checkout(0, v), /*copy=*/true, &precall, rp.split);
          t0 = Clock::now();
          one(split, s);
          rp.split.loop += ns(t0, Clock::now());
          if (!compare_logs(split.log(), real[k][j]).empty())
            ++rp.split_mismatched_shards;
        }
        return outs;
      };
      if (!errors[k].empty()) {
        // The real executor's pass already failed on this unit.
      } else if (plan.shards.empty()) {
        u.error = "empty plan";
      } else if (w.kind == Kind::kCrash) {
        auto outs = run_shards([&](Runner& r, const core::Shard& s) {
          return replay_crash_shard(r, s, crash_opt);
        });
        u.digest = digest(core::merge_crash_outcomes(plan, std::move(outs)));
      } else {
        const core::CampaignOptions opt = unit_options(w, p, v);
        auto outs = run_shards([&](Runner& r, const core::Shard& s) {
          return replay_shard(r, s, opt);
        });
        u.digest = digest(core::merge_outcomes(plan, std::move(outs)));
      }
      if (!mismatch.empty()) {
        u.digest.reset();
        u.error = "copied run_case: " + mismatch;
      }
    } catch (const std::exception& e) {
      u.error = e.what();
    }
    units.push_back(std::move(u));
  }
  return rp;
}

double per(double total, std::uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

TracedRun run_traced(const Workload& w, const Params& p,
                     const harness::World& world) {
  TracedRun tr;
  const Tick start = Clock::now();
  const auto phase = [&](const char* what) {
    std::fprintf(stderr, "perfbench: traced %s done at %.1f s\n", what,
                 ns(start, Clock::now()) / 1e9);
  };
  const Rep prod = run_once(w, p, world);
  tr.units = prod.units;
  phase("production run");
  const RealPass rp = real_pass(w, p, world, tr.units);
  phase("run_shard pass");

  // The CRT pre-call is only a valid split if it leaves every result
  // unchanged; otherwise the CRT stays inside the MuT bodies.
  Replay replayed = replay(w, p, world, tr.units);
  phase("replays");
  tr.mismatched_shards = replayed.mismatched_shards;
  tr.crt_split = replayed.split_mismatched_shards == 0;
  Account acc = tr.crt_split ? replayed.split : replayed.plain;
  acc.fixture_rebuilds = replayed.plain.fixture_rebuilds;
  acc.built = replayed.plain.built;
  acc.recycled = replayed.plain.recycled;

  const std::uint64_t cases = rp.cases;
  const bool campaign = w.kind == Kind::kCampaign;
  const Summary shard = summarize(rp.shard_ms);
  auto& m = tr.metrics;

  m["gen.ns_per_case"] = per(acc.gen, cases);
  m["plan.ms"] = (campaign ? prod.engine.plan_seconds : rp.plan_s) * 1e3;
  m["sched.merge_ms"] = (campaign ? prod.engine.merge_seconds : rp.merge_s) * 1e3;
  m["sched.shards"] = static_cast<double>(rp.shards);
  m["sched.contended_steals"] =
      static_cast<double>(prod.engine.contended_steals);
  m["sched.machine_rebuilds"] =
      static_cast<double>(prod.engine.machine_rebuilds);
  m["sched.parallel_eff"] =
      prod.execute_s > 0 ? rp.shard_s / (w.jobs * prod.execute_s) : 0.0;
  m["sched.tail_s"] = prod.tail_s;
  m["shard.ms_p50"] = shard.median;
  m["shard.ms_p99"] = shard.p99.value_or(shard.median);
  m["shard.samples"] = static_cast<double>(shard.count);

  m["restore.ns_per_case"] = per(acc.restore, cases);
  m["restore.fixture_rebuilds"] = static_cast<double>(acc.fixture_rebuilds);
  m["reboot.us_per_reboot"] = per(acc.reboot / 1e3, acc.reboots);
  m["process.acquire_ns_per_case"] = per(acc.acquire, cases);
  m["process.release_ns_per_case"] = per(acc.release, cases);
  m["process.built"] = static_cast<double>(acc.built);
  m["process.recycled"] = static_cast<double>(acc.recycled);
  m["materialize.ns_per_case"] = per(acc.materialize, cases);
  const auto body_ns = [&](core::ApiKind k) {
    const auto f = static_cast<std::size_t>(k);
    return per(acc.mut[f], acc.family_cases[f]);
  };
  m["mut.win32.ns_per_case"] = body_ns(core::ApiKind::kWin32Sys);
  m["mut.posix.ns_per_case"] = body_ns(core::ApiKind::kPosixSys);
  m["mut.clib.ns_per_case"] = body_ns(core::ApiKind::kCLib);
  m["crt.ns_per_build"] = per(acc.crt, acc.crt_timed);
  m["crt.builds_per_case"] = per(static_cast<double>(acc.crt_builds), cases);
  m["classify.ns_per_case"] = per(acc.classify, cases);
  m["trace.emit_ns_per_case"] = per(acc.trace, cases);
  m["trace.events_per_case"] = per(static_cast<double>(acc.events), cases);
  m["mutation.points_per_case"] = per(static_cast<double>(acc.points), cases);
  m["crash.us_per_cut"] = per(rp.shard_s * 1e6, rp.cuts);
  m["crash.verify_us_per_cut"] = per(acc.verify / 1e3, acc.cuts);

  m["store.append_us_p50"] = median(rp.append_us);
  m["store.bytes_per_case"] = per(static_cast<double>(rp.log_bytes), cases);
  m["rpc.encode_ns_per_frame"] = per(rp.encode_ns, rp.frames);
  m["rpc.decode_ns_per_frame"] = per(rp.decode_ns, rp.frames);
  m["rpc.frames_per_shard"] = per(static_cast<double>(prod.frames), prod.shards);
  m["server.steps"] = static_cast<double>(prod.server_steps);

  // Worker-seconds per case of the untraced production run: what the layer
  // self-times must add up to.  At jobs > 1 the difference includes
  // scheduling, idle and contention, which no layer span covers.
  const double untraced_case_ns = per(w.jobs * prod.execute_s * 1e9, cases);
  m["case.untraced_ns"] = untraced_case_ns;
  m["case.unaccounted_frac"] =
      untraced_case_ns > 0
          ? (untraced_case_ns - per(acc.self_total(), cases)) / untraced_case_ns
          : 0.0;
  // Traced copy loop against the untimed real shard loop, both
  // single-threaded over the same shards.
  m["trace.overhead_frac"] =
      rp.shard_s > 0 ? (acc.loop / 1e9 - rp.shard_s) / rp.shard_s : 0.0;
  return tr;
}

}  // namespace perfbench
