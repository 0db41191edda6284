// The traced run: per-layer accounts for one workload.
//
// End-to-end numbers come from untraced runs (workloads.h).  This run gives
// the per-layer numbers instead, in three passes over the same inputs:
//
//   1. one production run with shard completion times (hence the tail):
//      engine execute time and the counters the engine exposes
//      (EngineMetrics, server steps, frames);
//   2. every shard of every unit's plan through the real run_shard /
//      run_crash_shard, single-threaded and timed per shard; the service's
//      outcomes also go through ResumableLog::append_shard and the rpc codec;
//   3. a replay of the same shards through a bench-side copy of
//      Executor::run_case that times each public call the real one makes.
//      Every shard is also replayed, untimed and on up to four threads,
//      through the real Executor::run_case from the same pristine machine
//      state, and the two replays' CaseResults must agree field by field,
//      case by case.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct TracedRun {
  /// Per-layer metric values by name (see main.cc for units).
  std::map<std::string, double> metrics;
  /// Units produced by every pass, checked against the reference digests.
  std::vector<UnitOutcome> units;
  /// Shards in which the copy and Executor::run_case disagreed on a case;
  /// the unit each belongs to is failed once, in `units`.
  std::uint64_t mismatched_shards = 0;
  /// Whether the CRT build was split out of the C-library MuT bodies
  /// (false when the pre-call changed any result; see traced.cc).
  bool crt_split = false;
};

TracedRun run_traced(const Workload& w, const Params& p,
                     const harness::World& world);

}  // namespace perfbench
