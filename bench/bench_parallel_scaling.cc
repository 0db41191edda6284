// Parallel-engine scaling: runs the full all-variant campaign at 1/2/4/8
// worker threads, reports cases/sec, speedup and per-phase engine timings
// (plan / execute / merge, plus a standalone tuple-generation sweep) as JSON
// (stdout and BENCH_parallel.json), and asserts that every worker count
// produced the same merged CampaignResult — the engine's determinism
// contract.  Scheduler health counters (contended steals, machine rebuilds)
// ride along so a scaling regression can be localized without a profiler.
//
// Speedup is bounded by the host's core count (recorded as
// "hardware_concurrency"); on a single-core host all worker counts
// serialize and speedup stays ~1.0 while determinism is still exercised.
//
// Usage: bench_parallel_scaling [--cap N] [--seed S] [--reps N].  With
// --reps N every worker count runs the campaign N times, interleaved
// (1, 2, 4, 8, 1, 2, ...) so ambient noise hits all of them alike; each
// timing is the median of its N runs, and cases/sec carries its min and max.
// Every run of every worker count must match the first jobs-1 result.
#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "bench/bench_common.h"
#include "core/sched.h"

namespace {

using namespace ballista;

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b) {
  if (a.variant != b.variant || a.reboots != b.reboots ||
      a.total_cases != b.total_cases || a.stats.size() != b.stats.size())
    return false;
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const auto& x = a.stats[i];
    const auto& y = b.stats[i];
    if (x.mut != y.mut || x.planned != y.planned || x.executed != y.executed ||
        x.passes != y.passes || x.aborts != y.aborts ||
        x.restarts != y.restarts ||
        x.silent_candidates != y.silent_candidates ||
        x.hindering != y.hindering || x.catastrophic != y.catastrophic ||
        x.crash_case != y.crash_case || x.crash_detail != y.crash_detail ||
        x.crash_tuple != y.crash_tuple ||
        x.crash_reproducible_single != y.crash_reproducible_single ||
        x.case_codes != y.case_codes || x.event_counts != y.event_counts)
      return false;
  }
  return a.event_counters == b.event_counters;
}

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const auto world = harness::build_world();

  // One timed pass of the seven-variant campaign at `jobs`.
  struct Pass {
    double seconds = 0;
    core::EngineMetrics metrics;  // summed over the 7 variants
  };
  const auto run_pass = [&](unsigned jobs,
                            std::vector<core::CampaignResult>* results) {
    core::CampaignOptions copt;
    copt.cap = opt.cap;
    copt.seed = opt.seed;
    copt.jobs = jobs;
    Pass pass;
    results->clear();
    results->reserve(sim::kAllVariants.size());
    const auto start = std::chrono::steady_clock::now();
    for (sim::OsVariant v : sim::kAllVariants) {
      core::EngineMetrics m;
      copt.metrics = &m;
      results->push_back(core::Campaign::run(v, world->registry, copt));
      pass.metrics.plan_seconds += m.plan_seconds;
      pass.metrics.execute_seconds += m.execute_seconds;
      pass.metrics.merge_seconds += m.merge_seconds;
      pass.metrics.shards += m.shards;
      pass.metrics.contended_steals += m.contended_steals;
      pass.metrics.machine_rebuilds += m.machine_rebuilds;
    }
    pass.seconds = secs_since(start);
    return pass;
  };

  const unsigned kJobs[] = {1u, 2u, 4u, 8u};
  std::vector<std::vector<Pass>> passes(std::size(kJobs));
  std::vector<core::CampaignResult> reference, results;
  std::uint64_t cases = 0;
  bool deterministic = true;
  for (int rep = 0; rep < opt.reps; ++rep) {
    for (std::size_t j = 0; j < std::size(kJobs); ++j) {
      passes[j].push_back(run_pass(kJobs[j], &results));
      if (reference.empty()) {
        reference = std::move(results);
        for (const auto& r : reference) cases += r.total_cases;
        continue;
      }
      deterministic = deterministic && results.size() == reference.size();
      for (std::size_t v = 0; deterministic && v < reference.size(); ++v)
        deterministic = same_result(reference[v], results[v]);
    }
  }

  // Standalone tuple-generation sweep: walk every planned case of every
  // variant's plan with the batched cursor, no execution.  Measures the
  // generator's share of the pipeline in isolation.
  std::uint64_t gen_cases = 0;
  double gen_seconds = 0.0;
  {
    core::CampaignOptions copt;
    copt.cap = opt.cap;
    copt.seed = opt.seed;
    std::uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    core::TupleScratch scratch;
    for (sim::OsVariant v : sim::kAllVariants) {
      const core::Plan plan = core::plan_for(v, world->registry, copt);
      for (const core::Shard& s : plan.shards) {
        for (const core::ShardItem& item : s.items) {
          if (item.range.count == 0) continue;
          core::TupleGenerator gen(*item.mut, copt.cap, copt.seed);
          auto cur = gen.begin(item.range.first, scratch);
          const std::uint64_t end = item.range.first + item.range.count;
          for (std::uint64_t i = item.range.first; i < end;) {
            for (const core::TestValue* tv : cur.values())
              sink ^= reinterpret_cast<std::uintptr_t>(tv);
            ++gen_cases;
            ++i;
            if (i < end) cur.advance();
          }
        }
      }
    }
    gen_seconds = secs_since(start);
    if (sink == 0x5eed) gen_seconds += 0;  // keep the sweep observable
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_scaling\",\n"
       << "  \"cap\": " << opt.cap << ",\n"
       << "  \"seed\": " << opt.seed << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"reps\": " << opt.reps
       << ",\n  \"generate_seconds\": " << gen_seconds
       << ",\n  \"generate_cases\": " << gen_cases
       << ",\n  \"generate_cases_per_sec\": "
       << (gen_seconds > 0 ? gen_cases / gen_seconds : 0)
       << ",\n  \"runs\": [\n";
  // Medians over the repetitions of one worker count.
  const auto median_of = [](const std::vector<Pass>& ps, auto field) {
    std::vector<double> xs;
    for (const Pass& p : ps) xs.push_back(static_cast<double>(field(p)));
    return bench::spread(std::move(xs)).median;
  };
  const double jobs1_seconds =
      median_of(passes[0], [](const Pass& p) { return p.seconds; });
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::vector<Pass>& ps = passes[i];
    std::vector<double> rates;
    for (const Pass& p : ps)
      rates.push_back(p.seconds > 0 ? cases / p.seconds : 0);
    const double seconds =
        median_of(ps, [](const Pass& p) { return p.seconds; });
    json << "    {\"jobs\": " << kJobs[i] << ", \"seconds\": " << seconds
         << ", \"cases\": " << cases << ", ";
    bench::write_spread(json, "cases_per_sec", bench::spread(rates));
    json << ", \"speedup\": " << (seconds > 0 ? jobs1_seconds / seconds : 0)
         << ",\n     \"plan_seconds\": "
         << median_of(ps, [](const Pass& p) { return p.metrics.plan_seconds; })
         << ", \"execute_seconds\": "
         << median_of(ps,
                      [](const Pass& p) { return p.metrics.execute_seconds; })
         << ", \"merge_seconds\": "
         << median_of(ps, [](const Pass& p) { return p.metrics.merge_seconds; })
         << ", \"shards\": " << ps.front().metrics.shards
         << ", \"contended_steals\": "
         << median_of(ps,
                      [](const Pass& p) { return p.metrics.contended_steals; })
         << ", \"machine_rebuilds\": "
         << median_of(ps,
                      [](const Pass& p) { return p.metrics.machine_rebuilds; })
         << "}" << (i + 1 < passes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << json.str();
  std::ofstream("BENCH_parallel.json") << json.str();
  return deterministic ? 0 : 1;
}
