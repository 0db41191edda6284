#include "core/sched.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "core/report.h"

namespace ballista::core {

ShardOutcome run_shard(sim::Machine& machine, const Shard& shard,
                       const CampaignOptions& opt) {
  ShardOutcome out;
  out.shard_index = shard.index;

  if (opt.machine_setup) opt.machine_setup(machine);
  Executor executor(machine);
  if (opt.task_setup) executor.set_task_setup(opt.task_setup);

  // Index (into out.partials) of the MuT whose test case most recently
  // corrupted the shared arena: deferred panics are blamed on it.  The plan
  // guarantees corruption never crosses a shard boundary, so chain-local
  // blame reproduces the sequential campaign's blame exactly.
  std::int64_t last_corruptor = -1;
  int corruption_seen = machine.arena().corruption();

  // Shard lifecycle markers (observability only: emitted outside any case,
  // so they never enter per-case counter deltas and cannot perturb the
  // determinism contract).
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardStart, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));

  // One scratch for the whole shard: the per-case tuple is generated into it
  // by cursor advance, so the hot loop allocates nothing.
  TupleScratch scratch;

  for (const ShardItem& item : shard.items) {
    const std::int64_t self = static_cast<std::int64_t>(out.partials.size());
    out.partials.push_back({item.mut_index, item.range.first, {}});
    MutStats& stats = out.partials.back().stats;
    stats.mut = item.mut;
    stats.planned = item.planned;
    if (item.range.count == 0) continue;
    TupleGenerator gen(*item.mut, opt.cap, opt.seed);
    const std::uint64_t end = item.range.first + item.range.count;
    if (opt.record_cases)
      stats.case_codes.reserve(static_cast<std::size_t>(item.range.count));
    TupleCursor cur = gen.begin(item.range.first, scratch);

    for (std::uint64_t i = item.range.first; i < end;) {
      const auto tuple = cur.values();
      const CaseResult r =
          executor.run_case(*item.mut, tuple, static_cast<std::int64_t>(i));
      ++stats.executed;
      ++out.executed_cases;
      stats.event_counts += r.events;
      if (opt.record_cases) stats.case_codes.push_back(case_code(r));

      if (machine.arena().corruption() > corruption_seen) {
        corruption_seen = machine.arena().corruption();
        last_corruptor = self;
      }

      switch (r.outcome) {
        case Outcome::kPass:
          ++stats.passes;
          if (r.success_no_error && r.any_exceptional)
            ++stats.silent_candidates;
          if (r.wrong_error) ++stats.hindering;
          break;
        case Outcome::kAbort:
          ++stats.aborts;
          break;
        case Outcome::kRestart:
          ++stats.restarts;
          break;
        case Outcome::kNotRun:
          break;
        case Outcome::kCatastrophic: {
          // Blame the arena corruptor for deferred panics; the immediate
          // crash is the current MuT's own.
          const bool deferred = r.panic == sim::PanicKind::kDeferredFuse;
          MutStats* blamed = &stats;
          if (deferred && last_corruptor >= 0 && last_corruptor != self)
            blamed =
                &out.partials[static_cast<std::size_t>(last_corruptor)].stats;

          if (!blamed->catastrophic) {
            blamed->catastrophic = true;
            blamed->crash_detail = r.detail;
            blamed->crash_trace = r.trace_tail;
            if (blamed == &stats) {
              blamed->crash_case = static_cast<std::int64_t>(i);
              blamed->crash_tuple = describe_tuple(tuple);
            }
          }

          machine.restore(sim::RestoreLevel::kReboot);
          ++out.reboots;
          corruption_seen = 0;
          last_corruptor = -1;

          if (blamed == &stats) {
            // Single-test reproduction pass (paper §4): run the crashing
            // case alone on the rebooted machine.  Immediate-style crashes
            // reproduce; interference-style ones do not (`*`).
            if (opt.repro_pass) {
              const CaseResult rerun = executor.run_case(
                  *item.mut, tuple, static_cast<std::int64_t>(i));
              stats.crash_reproducible_single =
                  rerun.outcome == Outcome::kCatastrophic;
              if (machine.crashed()) {
                machine.restore(sim::RestoreLevel::kReboot);
                ++out.reboots;
              } else if (machine.arena().corruption() > 0) {
                // The repro attempt may have re-corrupted the arena without
                // dying; clear it so the next MuT starts clean.
                machine.restore(sim::RestoreLevel::kReboot);
              }
              corruption_seen = 0;
              last_corruptor = -1;
            }
            // The crash interrupted this MuT's test set; it stays incomplete.
            i = end;  // terminate loop
          }
          break;
        }
      }
      ++i;
      if (i < end) cur.advance();
    }
  }
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardEnd, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));
  return out;
}

struct MachinePool::Slot {
  /// MRU-ordered variant cache; front is the most recently used machine.
  /// Touched only by the owning worker thread.
  std::vector<std::unique_ptr<sim::Machine>> cache;
  /// Relaxed atomic so machine_rebuilds() may be read while workers run.
  std::atomic<std::uint64_t> rebuilds{0};
};

MachinePool::MachinePool(sim::OsVariant variant, unsigned workers)
    : variant_(variant),
      workers_(std::max(workers, 1u)),
      slots_(workers_) {}

MachinePool::~MachinePool() = default;

sim::Machine& MachinePool::checkout(unsigned worker) {
  return checkout(worker, variant_);
}

sim::Machine& MachinePool::checkout(unsigned worker, sim::OsVariant variant) {
  auto& cache = slots_.at(worker).cache;
  for (std::size_t k = 0; k < cache.size(); ++k) {
    if (cache[k]->variant() == variant) {
      if (k != 0)
        std::rotate(cache.begin(), cache.begin() + k, cache.begin() + k + 1);
      cache.front()->restore(sim::RestoreLevel::kFullReset);
      return *cache.front();
    }
  }
  slots_[worker].rebuilds.fetch_add(1, std::memory_order_relaxed);
  cache.insert(cache.begin(), std::make_unique<sim::Machine>(variant));
  if (cache.size() > kSlotCacheCap) cache.pop_back();
  return *cache.front();
}

std::uint64_t MachinePool::machine_rebuilds() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.rebuilds.load(std::memory_order_relaxed);
  return n;
}

CampaignResult merge_outcomes(const Plan& plan,
                              std::vector<ShardOutcome> outcomes) {
  CampaignResult result;
  result.variant = plan.variant;
  result.stats.resize(plan.muts.size());
  for (std::size_t i = 0; i < plan.muts.size(); ++i)
    result.stats[i].mut = plan.muts[i];

  std::sort(outcomes.begin(), outcomes.end(),
            [](const ShardOutcome& a, const ShardOutcome& b) {
              return a.shard_index < b.shard_index;
            });

  // Counting pass: how many partials and per-case codes land on each MuT, so
  // the fold below can move single-partial payloads wholesale and size the
  // multi-partial appends exactly once.
  std::vector<std::uint32_t> parts(result.stats.size(), 0);
  std::vector<std::size_t> code_total(result.stats.size(), 0);
  for (const ShardOutcome& o : outcomes)
    for (const auto& p : o.partials) {
      ++parts[p.mut_index];
      code_total[p.mut_index] += p.stats.case_codes.size();
    }

  for (ShardOutcome& o : outcomes) {
    result.reboots += o.reboots;
    result.total_cases += o.executed_cases;
    for (ShardOutcome::MutPartial& p : o.partials) {
      MutStats& dst = result.stats[p.mut_index];
      MutStats& src = p.stats;
      dst.planned = src.planned;
      dst.executed += src.executed;
      dst.passes += src.passes;
      dst.aborts += src.aborts;
      dst.restarts += src.restarts;
      dst.silent_candidates += src.silent_candidates;
      dst.hindering += src.hindering;
      // Ranges of one MuT occupy consecutive shards in ascending case order,
      // so appending per shard keeps case_codes index-aligned.  The common
      // case — the whole MuT in one shard — moves the vector instead.
      if (parts[p.mut_index] == 1) {
        dst.case_codes = std::move(src.case_codes);
      } else {
        if (dst.case_codes.empty())
          dst.case_codes.reserve(code_total[p.mut_index]);
        dst.case_codes.insert(dst.case_codes.end(), src.case_codes.begin(),
                              src.case_codes.end());
      }
      dst.event_counts += src.event_counts;
      if (src.catastrophic && !dst.catastrophic) {
        dst.catastrophic = true;
        dst.crash_case = src.crash_case;
        dst.crash_detail = std::move(src.crash_detail);
        dst.crash_tuple = std::move(src.crash_tuple);
        dst.crash_trace = std::move(src.crash_trace);
        dst.crash_reproducible_single = src.crash_reproducible_single;
      }
    }
  }
  for (const MutStats& s : result.stats) result.event_counters += s.event_counts;
  return result;
}

Plan plan_for(sim::OsVariant variant, const Registry& registry,
              const CampaignOptions& opt) {
  PlanOptions popt;
  popt.cap = opt.cap;
  popt.seed = opt.seed;
  popt.only_api = opt.only_api;
  popt.group_mask = opt.group_mask;
  popt.shard_cases = opt.shard_cases;
  popt.shard_bytes = opt.shard_bytes;
  popt.single_shard = static_cast<bool>(opt.machine_setup);
  return make_plan(variant, registry, popt);
}

struct Workers::Threads {
  Task task;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  /// Bumped by notify() and stop(); parked threads wait on it.
  std::atomic<std::uint32_t> epoch{0};

  void loop(unsigned w) {
    for (;;) {
      // Read the epoch before looking for work: a notify() that lands after
      // the look makes the wait below return at once, so no wake-up is lost.
      const std::uint32_t seen = epoch.load(std::memory_order_acquire);
      if (stop.load(std::memory_order_acquire)) return;
      if (!task(w)) epoch.wait(seen, std::memory_order_acquire);
    }
  }
};

Workers::Workers() = default;

Workers::~Workers() { stop(); }

void Workers::start(unsigned n, Task task) {
  threads_ = std::make_unique<Threads>();
  threads_->task = std::move(task);
  try {
    for (unsigned w = 1; w < n; ++w)
      threads_->threads.emplace_back(&Threads::loop, threads_.get(), w);
  } catch (...) {  // thread creation failed: stop and join what started
    stop();
    throw;
  }
}

void Workers::notify() {
  if (!threads_) return;
  threads_->epoch.fetch_add(1, std::memory_order_release);
  threads_->epoch.notify_all();
}

void Workers::stop() {
  if (!threads_) return;
  threads_->stop.store(true, std::memory_order_release);
  notify();
  for (std::thread& t : threads_->threads) t.join();
  threads_->threads.clear();
}

namespace {

/// Wait-free completion hand-off: each worker appends finished shard indices
/// to its own ring and publishes with a release store; the calling thread is
/// the only consumer.  Capacity is the full shard count, so a producer can
/// never block or wrap.
struct CompletionRing {
  std::vector<std::size_t> slots;
  alignas(64) std::atomic<std::size_t> published{0};
  std::size_t drained = 0;  // calling-thread-only cursor
};

}  // namespace

ExecuteStats execute(std::size_t shards, unsigned jobs,
                     const ShardTasks& tasks) {
  jobs = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs, shards)));
  ShardQueue queue(shards, jobs);
  std::vector<CompletionRing> rings(tasks.done ? jobs : 0);
  for (CompletionRing& r : rings) r.slots.resize(shards);
  std::atomic<bool> stop{false};
  // Indices a worker took from the queue and finished with (run, cache hit
  // or error); every one is published before it is counted here.
  std::atomic<std::size_t> settled{0};
  // Bumped after every index a spawned worker settles; the calling thread
  // sleeps on it instead of polling once its own share is done.
  std::atomic<std::uint32_t> signal{0};

  // Calling thread only: it is the rings' sole consumer, so `done` calls are
  // serialized without a lock and never run on a spawned worker.  A throwing
  // hook aborts the campaign: stop the queue, join, rethrow.
  std::exception_ptr hook_error;
  const auto drain = [&] {
    for (CompletionRing& r : rings) {
      const std::size_t pub = r.published.load(std::memory_order_acquire);
      while (r.drained < pub && !hook_error) {
        try {
          tasks.done(r.slots[r.drained]);
        } catch (...) {
          hook_error = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
        }
        ++r.drained;
      }
    }
  };

  // One queue index for worker w; false once the queue is dry or stopped.
  // Worker 0 is the calling thread, which drains the rings after each of its
  // own shards; so jobs = 1 starts no thread and reports each shard before
  // claiming the next, in plan order.
  std::vector<std::exception_ptr> errors(jobs);
  const auto step = [&](unsigned w) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const std::optional<std::size_t> i = queue.next(w);
    if (!i) return false;
    try {
      if (!(tasks.cached && tasks.cached(*i))) {
        tasks.run(w, *i);
        if (tasks.done) {
          CompletionRing& r = rings[w];
          const std::size_t n = r.published.load(std::memory_order_relaxed);
          r.slots[n] = *i;
          r.published.store(n + 1, std::memory_order_release);
          if (w == 0) drain();
        }
      }
    } catch (...) {
      errors[w] = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
    settled.fetch_add(1);
    if (w != 0) {
      signal.fetch_add(1);
      signal.notify_one();
    }
    return true;
  };
  Workers workers;
  workers.start(jobs, step);
  while (step(0)) {
  }
  if (tasks.done) {
    for (;;) {
      const std::uint32_t seen = signal.load();
      const bool final_pass =
          settled.load() == shards || stop.load(std::memory_order_relaxed);
      drain();
      if (hook_error || final_pass) break;
      signal.wait(seen);
    }
  }
  // Every index is settled, or the queue is stopped: the join waits out the
  // shards still running, and a last drain reports the ones they finished.
  workers.stop();
  if (tasks.done) drain();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  if (hook_error) std::rethrow_exception(hook_error);
  return {jobs, queue.contended_steals()};
}

CampaignResult run_engine(sim::OsVariant variant, const Registry& registry,
                          const CampaignOptions& opt) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto t0 = Clock::now();
  const Plan plan = plan_for(variant, registry, opt);
  const auto t_planned = Clock::now();

  std::vector<ShardOutcome> outcomes =
      execute_plan<ShardOutcome>(plan, opt, run_shard, opt.metrics);

  const auto t_executed = Clock::now();
  CampaignResult result = merge_outcomes(plan, std::move(outcomes));
  if (opt.metrics) {
    opt.metrics->plan_seconds = seconds(t0, t_planned);
    opt.metrics->execute_seconds = seconds(t_planned, t_executed);
    opt.metrics->merge_seconds = seconds(t_executed, Clock::now());
    opt.metrics->shards = plan.shards.size();
  }
  return result;
}

}  // namespace ballista::core
