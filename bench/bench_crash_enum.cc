// Crash-enumeration bench, reported to BENCH_crash.json.
//
// Three questions about the fault-point interposition layer:
//
//   - crash throughput: cuts/s and counting-pass points/s through the real
//     crash engine (counting pass + armed re-execution + reboot + verify per
//     selected k) over the File/Directory and Memory groups,
//   - counting overhead: cases/s over the same groups with the MutationHub
//     in counting mode vs. off — the price of the counting pass itself,
//   - off overhead: the cost the interposition layer adds to a normal
//     campaign when crash enumeration is disabled.  The off path is one
//     predicted branch per mutation site (notify checks a single cached
//     `live` flag), with no distinct no-hub build to diff against, so the
//     bench measures the off configuration twice (A/A) and reports the
//     spread — an upper bound on the off-path cost plus ambient noise.
//     The target is < 2%.
//
// Usage: bench_crash_enum [--reps N] (default 1).  The crash engine runs N
// times and the three case-rate configurations N interleaved times; every
// rate is reported as the median of its N runs with min and max beside it,
// and the overheads are computed from the medians.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/crashplan.h"
#include "harness/world.h"

namespace {

using namespace ballista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const harness::World& world() {
  static const auto w = harness::build_world();
  return *w;
}

bool crash_group(core::FuncGroup g) {
  return g == core::FuncGroup::kFileDirAccess ||
         g == core::FuncGroup::kMemoryManagement;
}

/// Cases/s over the crash groups on one long-lived machine — the same
/// executor loop a campaign shard runs, with the hub counting or off.
double cases_per_second(sim::OsVariant v, bool counting, int repeats) {
  sim::Machine machine(v);
  core::Executor executor(machine);
  sim::MutationHub& hub = machine.mutations();
  std::uint64_t cases = 0;
  const auto run_all = [&] {
    for (const core::MuT* mut : world().registry.for_variant(v)) {
      if (!crash_group(mut->group)) continue;
      core::TupleGenerator gen(*mut, /*cap=*/64);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        if (counting) {
          hub.reset_counts();
          hub.set_counting(true);
        }
        executor.run_case(*mut, gen.tuple(i));
        if (counting) hub.set_counting(false);
        if (machine.crashed() || machine.arena().corruption() > 0)
          machine.restore(sim::RestoreLevel::kReboot);
        ++cases;
      }
    }
  };
  run_all();  // warm-up
  hub.full_reset();
  cases = 0;
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) run_all();
  const double secs = seconds_since(start);
  hub.full_reset();
  return static_cast<double>(cases) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = bench::parse_options(argc, argv).reps;
  const sim::OsVariant v = sim::OsVariant::kWinNT4;

  // Crash-engine throughput: the full counting + armed-cut + verify cycle.
  core::CrashOptions copt;
  copt.cap = 16;
  copt.max_cuts = 8;
  core::CrashCampaignResult crash;
  std::vector<double> engine_secs, cut_rates;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    crash = core::run_crash_engine(v, world().registry, copt);
    engine_secs.push_back(seconds_since(start));
    cut_rates.push_back(crash.total_cuts / engine_secs.back());
  }

  // Interleave the three configurations so ambient noise hits all equally.
  std::vector<double> off_a, off_b, counting;
  for (int rep = 0; rep < reps; ++rep) {
    off_a.push_back(cases_per_second(v, /*counting=*/false, 4));
    counting.push_back(cases_per_second(v, /*counting=*/true, 4));
    off_b.push_back(cases_per_second(v, /*counting=*/false, 4));
  }
  const bench::Spread a = bench::spread(off_a), b = bench::spread(off_b),
                      c = bench::spread(counting),
                      cuts = bench::spread(cut_rates);
  const double secs = bench::spread(engine_secs).median;
  const double off = std::max(a.median, b.median);
  const double off_spread_pct =
      (off - std::min(a.median, b.median)) / off * 100.0;
  const double counting_overhead_pct = (off - c.median) / off * 100.0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"crash_enum\",\n"
       << "  \"variant\": \"" << sim::variant_name(v) << "\",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n  \"reps\": " << reps << ",\n"
       << "  \"crash_engine\": {\"cap\": " << copt.cap
       << ", \"max_cuts\": " << copt.max_cuts
       << ", \"points\": " << crash.total_points
       << ", \"cuts\": " << crash.total_cuts
       << ", \"reboots\": " << crash.reboots << ", \"seconds\": " << secs
       << ", ";
  bench::write_spread(json, "cuts_per_s", cuts);
  json << ", \"points_per_s\": " << crash.total_points / secs << "},\n"
       << "  \"cases_per_s\": {";
  bench::write_spread(json, "hub_off", a);
  json << ", ";
  bench::write_spread(json, "hub_off_rerun", b);
  json << ", ";
  bench::write_spread(json, "hub_counting", c);
  json << "},\n"
       << "  \"overhead_counting_pct\": " << counting_overhead_pct << ",\n"
       << "  \"overhead_off_pct\": " << off_spread_pct << "\n}\n";
  std::cout << json.str();
  std::ofstream("BENCH_crash.json") << json.str();
  return 0;
}
