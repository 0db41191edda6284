// Scheduling, execution and merge layers of the campaign engine.
//
//   plan      (core/plan)      enumerate shards, no machine involved
//   schedule  (core/workqueue) per-worker Chase–Lev deques + seeded stealing
//   execute   (this file)      Workers: the persistent worker threads,
//                              and the only place the engine starts
//                              threads.  execute(): the one shard executor
//                              — N workers (the calling thread plus N-1
//                              Workers threads) over a ShardQueue of shard
//                              indices, per-worker completion rings drained
//                              by the calling thread.  Base and crash
//                              campaigns run through it at every jobs value;
//                              one worker pops its deque in plan order, so
//                              jobs = 1 is the exact sequential schedule.
//                              The campaign server keeps its own Workers
//                              running ahead across steps (rpc/server.h).
//                              run_shard mirrors the legacy single-machine
//                              loop (crash blame, reboot bookkeeping, repro
//                              pass) on one pooled machine
//   merge     (this file)      fold per-shard MutStats back into a
//                              CampaignResult in plan order, moving bulk
//                              payloads instead of copying them
//
// Determinism contract: for the same (variant, registry, cap, seed), the
// merged CampaignResult is bit-identical for any worker count, and identical
// to Campaign::run_sequential, because every shard boundary the plan emits is
// a provably clean machine state (see core/plan.h) and the merge order is
// fixed by the plan, not by thread timing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/plan.h"
#include "core/workqueue.h"
#include "sim/machine.h"

namespace ballista::core {

/// What one worker produced from one shard.  Partial MutStats are folded
/// back into the CampaignResult by merge_outcomes.
struct ShardOutcome {
  using Result = CampaignResult;  // what merge_outcomes folds these into
  struct MutPartial {
    std::size_t mut_index = 0;
    std::uint64_t range_first = 0;
    MutStats stats;
  };
  std::size_t shard_index = 0;
  /// One entry per ShardItem, in shard order (crash blame may retarget an
  /// earlier partial of the same shard, exactly like the sequential loop).
  std::vector<MutPartial> partials;
  int reboots = 0;
  std::uint64_t executed_cases = 0;
};

/// Observability counters for one run_engine invocation, filled when
/// CampaignOptions::metrics points at an instance.  Purely diagnostic: the
/// merged CampaignResult never depends on any of these.
struct EngineMetrics {
  double plan_seconds = 0.0;
  double execute_seconds = 0.0;
  double merge_seconds = 0.0;
  std::uint64_t shards = 0;
  unsigned jobs = 0;
  /// Steal attempts that lost a claim race in the work-stealing queue.
  std::uint64_t contended_steals = 0;
  /// Machines constructed from scratch by the pool (cache misses).
  std::uint64_t machine_rebuilds = 0;
};

/// Executes one shard.  Precondition: `machine` is in freshly-booted state
/// (MachinePool::checkout provides that).  Applies opt.machine_setup when
/// set — the plan guarantees such campaigns are single-shard.
ShardOutcome run_shard(sim::Machine& machine, const Shard& shard,
                       const CampaignOptions& opt);

/// Independent sim::Machine instances, one per worker.  Each worker slot
/// keeps a small MRU cache keyed by OS variant: the campaign service
/// multiplexes sessions on different variants over one pool, and rebuilding
/// a machine (boot + personality setup) is far more expensive than restoring
/// one, so a slot bouncing between a handful of variants stops paying the
/// rebuild on every switch.  A cached machine is reset to pristine boot
/// state on every checkout, so it is indistinguishable from a freshly
/// constructed one.
class MachinePool {
 public:
  /// Distinct variants one worker slot keeps warm before evicting the
  /// least-recently-used machine.
  static constexpr std::size_t kSlotCacheCap = 4;

  MachinePool(sim::OsVariant variant, unsigned workers);
  ~MachinePool();

  /// The worker's machine for the pool's campaign variant, reset via
  /// sim::Machine::restore(kFullReset).
  sim::Machine& checkout(unsigned worker);

  /// Same, but for an explicit OS variant.
  sim::Machine& checkout(unsigned worker, sim::OsVariant variant);

  unsigned size() const noexcept { return workers_; }

  /// Machines constructed from scratch (slot-cache misses) so far.
  std::uint64_t machine_rebuilds() const noexcept;

 private:
  struct Slot;
  sim::OsVariant variant_;
  unsigned workers_ = 0;
  std::vector<Slot> slots_;
};

/// Persistent worker threads.  start(n, task) starts threads for workers
/// 1..n-1 — worker 0 is the caller, which calls the task itself when it
/// wants to — and each loops on task(w) until stop().  Whenever task reports
/// no work, the thread parks on an atomic wait until the next notify() or
/// stop(); it never spins.  The task must not throw: callers capture their
/// own errors and rethrow them on their own thread.
class Workers {
 public:
  /// Runs one unit of work for worker `w`; false when there was none.
  using Task = std::function<bool(unsigned w)>;

  Workers();
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  ~Workers();  // stop()

  /// Starts the threads for workers 1..n-1 (none for n <= 1).  Call at most
  /// once.  If a thread cannot be started, stops the ones that did and
  /// rethrows.
  void start(unsigned n, Task task);
  bool started() const noexcept { return threads_ != nullptr; }
  /// New work was published: wakes every parked thread.
  void notify();
  /// Lets each thread finish its current task, then joins them all.
  /// Idempotent.
  void stop();

 private:
  struct Threads;
  std::unique_ptr<Threads> threads_;  // null until start()
};

/// The three callbacks execute() drives.  `cached` and `run` are called by
/// the workers, concurrently when jobs > 1 (worker 0 is the calling thread);
/// `done` only on the thread that called execute(), one call at a time.
struct ShardTasks {
  /// Optional.  True when shard i's outcome is already known (a resume-cache
  /// hit): the shard is then neither run nor reported to `done`.
  std::function<bool(std::size_t i)> cached;
  /// Executes shard i on worker slot `worker` (< the effective job count).
  std::function<void(unsigned worker, std::size_t i)> run;
  /// Optional.  Fires once per shard `run` executed, in completion order
  /// (plan order at jobs = 1).  A throw stops the queue; execute() joins the
  /// workers and rethrows it.
  std::function<void(std::size_t i)> done;
};

struct ExecuteStats {
  /// Workers that ran, the calling thread included: min(jobs, shards), at
  /// least 1.
  unsigned jobs = 1;
  /// Steal attempts that lost a claim race in the work-stealing queue.
  std::uint64_t contended_steals = 0;
};

/// The shard executor: runs tasks for every shard index in [0, shards) on
/// min(jobs, shards) workers — the calling thread plus a Workers set of
/// jobs - 1 threads, started for the call and joined before it returns.  An
/// exception from `run` stops the queue and is rethrown after the join
/// (worker errors take precedence over a `done` error).
ExecuteStats execute(std::size_t shards, unsigned jobs,
                     const ShardTasks& tasks);

/// Runs every shard of `plan` through execute() on a fresh MachinePool,
/// honouring the store hooks (`shard_cache`, `on_shard_complete`) that
/// CampaignOptions and CrashOptions share.  Returns the outcomes indexed by
/// shard.  When `metrics` is set, fills its jobs, contended_steals and
/// machine_rebuilds.
template <class Outcome, class Options, class RunShard>
std::vector<Outcome> execute_plan(const Plan& plan, const Options& opt,
                                  RunShard run_shard,
                                  EngineMetrics* metrics = nullptr) {
  std::vector<Outcome> outcomes(plan.shards.size());
  MachinePool pool(plan.variant, opt.jobs);
  ShardTasks tasks;
  if (opt.shard_cache)
    tasks.cached = [&](std::size_t i) {
      const Outcome* c = opt.shard_cache(plan.shards[i]);
      if (c != nullptr) outcomes[i] = *c;
      return c != nullptr;
    };
  tasks.run = [&](unsigned worker, std::size_t i) {
    outcomes[i] = run_shard(pool.checkout(worker), plan.shards[i], opt);
  };
  if (opt.on_shard_complete)
    tasks.done = [&](std::size_t i) { opt.on_shard_complete(outcomes[i]); };
  const ExecuteStats ran = execute(plan.shards.size(), opt.jobs, tasks);
  if (metrics != nullptr) {
    metrics->jobs = ran.jobs;
    metrics->contended_steals = ran.contended_steals;
    metrics->machine_rebuilds = pool.machine_rebuilds();
  }
  return outcomes;
}

/// Merge layer: folds shard outcomes (indexed by shard) back into a
/// CampaignResult whose stats follow plan.muts order.  Consumes the
/// outcomes: per-case code vectors and crash payloads are moved, not copied.
CampaignResult merge_outcomes(const Plan& plan,
                              std::vector<ShardOutcome> outcomes);

/// The exact Plan the engine would execute for (variant, registry, opt).
/// Shared with the persistent store (src/store) so a resumed campaign
/// re-plans bit-identically to the run that wrote the log.
Plan plan_for(sim::OsVariant variant, const Registry& registry,
              const CampaignOptions& opt);

/// The full engine: plan -> schedule/execute -> merge.  Campaign::run is a
/// thin façade over this.
CampaignResult run_engine(sim::OsVariant variant, const Registry& registry,
                          const CampaignOptions& opt);

}  // namespace ballista::core
