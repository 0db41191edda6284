// Single-thread throughput regression gate.
//
// Runs the C-library campaign (the paper's most generation- and
// memory-intensive group set) on one worker and compares cases/sec against
// the committed floor in tests/golden/bench_baseline.json.  Exits 3 when the
// measured rate drops more than 10% below the floor, so an accidental
// per-case allocation or a de-batched hot loop fails CI instead of quietly
// eating the engine's headroom.
//
// The committed floor is deliberately conservative (well under the rate a
// development machine reaches) so the gate trips on real regressions, not on
// CI machine variance.  Refresh it with:
//
//   bench_throughput_gate --reps 5 --write-baseline <baseline.json>
//
// on tests/golden/bench_baseline.json, which records half of the median
// rate.  With --reps N the campaign runs N timed passes after one warm-up
// pass and the gate uses their median; the min and max are printed beside
// it (default 1).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace ballista;

/// Timed passes of the campaign after one warm-up pass (first-touch page
/// faults, cold caches).
struct Measurement {
  std::uint64_t cases = 0;
  bench::Spread rate;
};

Measurement measure(const harness::World& world, std::uint64_t cap,
                    std::uint64_t seed, int reps) {
  core::CampaignOptions opt;
  opt.cap = cap;
  opt.seed = seed;
  opt.only_api = core::ApiKind::kCLib;
  opt.jobs = 1;
  Measurement m;
  std::vector<double> rates;
  for (int pass = 0; pass <= reps; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    const auto result =
        core::Campaign::run(sim::OsVariant::kWinNT4, world.registry, opt);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    m.cases = result.total_cases;
    if (pass > 0) rates.push_back(secs > 0 ? result.total_cases / secs : 0);
  }
  m.rate = bench::spread(std::move(rates));
  return m;
}

/// Minimal extractor for the one number the gate needs; the baseline file is
/// written by this binary, so the shape is under our control.
bool read_baseline(const std::string& path, double& floor) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  const auto key = body.find("\"min_cases_per_sec\"");
  if (key == std::string::npos) return false;
  const auto colon = body.find(':', key);
  if (colon == std::string::npos) return false;
  floor = std::strtod(body.c_str() + colon + 1, nullptr);
  return floor > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  bool write_baseline = false;
  std::uint64_t cap = core::kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strcmp(argv[i], "--cap") == 0 && i + 1 < argc) {
      cap = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      baseline_path = argv[i];
    }
  }
  if (baseline_path.empty() || reps < 1) {
    std::fprintf(stderr,
                 "usage: bench_throughput_gate [--write-baseline] "
                 "[--cap N] [--seed S] [--reps N] <baseline.json>\n");
    return 2;
  }

  const auto world = harness::build_world();
  const Measurement m = measure(*world, cap, seed, reps);
  std::printf("single-thread C-library campaign: %llu cases, median %.0f "
              "cases/sec over %d pass(es) (min %.0f, max %.0f, "
              "hardware_concurrency %u)\n",
              static_cast<unsigned long long>(m.cases), m.rate.median, reps,
              m.rate.min, m.rate.max, std::thread::hardware_concurrency());

  if (write_baseline) {
    const auto floor = static_cast<std::uint64_t>(m.rate.median / 2);
    std::ofstream out(baseline_path);
    out << "{\n  \"bench\": \"throughput_gate\",\n"
        << "  \"campaign\": \"nt4 clib jobs=1\",\n"
        << "  \"cap\": " << cap << ",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n  \"reps\": " << reps << ",\n  ";
    bench::write_spread(out, "measured_cases_per_sec", m.rate);
    out << ",\n  \"min_cases_per_sec\": " << floor << "\n}\n";
    std::printf("wrote %s (floor = median/2 = %llu cases/sec)\n",
                baseline_path.c_str(), static_cast<unsigned long long>(floor));
    return 0;
  }

  double floor = 0;
  if (!read_baseline(baseline_path, floor)) {
    std::fprintf(stderr, "cannot read min_cases_per_sec from %s\n",
                 baseline_path.c_str());
    return 2;
  }
  const double limit = floor * 0.9;  // >10% below the floor fails
  std::printf("committed floor %.0f cases/sec, gate at %.0f\n", floor, limit);
  if (m.rate.median < limit) {
    std::fprintf(stderr,
                 "THROUGHPUT REGRESSION: %.0f cases/sec is more than 10%% "
                 "below the committed floor of %.0f\n",
                 m.rate.median, floor);
    return 3;
  }
  std::printf("throughput gate: ok\n");
  return 0;
}
