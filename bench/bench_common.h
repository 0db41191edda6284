// Shared plumbing for the experiment binaries: option parsing and the
// one-campaign-per-variant run with identical seeds (paper §3.1).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <ostream>
#include <vector>

#include "harness/world.h"

namespace ballista::bench {

struct Options {
  std::uint64_t cap = core::kDefaultCap;  // the paper's 5000-test cap
  std::uint64_t seed = 0x8a11157a;
  /// Timed repetitions, for the benches that report a median (see Spread).
  int reps = 1;
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cap") == 0 && i + 1 < argc)
      opt.cap = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      opt.reps = std::atoi(argv[++i]);
  }
  if (const char* env = std::getenv("BALLISTA_CAP"); env != nullptr)
    opt.cap = std::strtoull(env, nullptr, 10);
  if (opt.reps < 1) {
    std::cerr << "--reps must be at least 1\n";
    std::exit(2);
  }
  return opt;
}

/// Median, min and max of repeated measurements of one rate: this host is
/// shared and noisy, so a single run proves nothing.
struct Spread {
  double median = 0, min = 0, max = 0;
};

inline Spread spread(std::vector<double> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double median =
      n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  return {median, xs.front(), xs.back()};
}

/// Writes `"key": median, "key_min": min, "key_max": max`.
inline void write_spread(std::ostream& out, const char* key, const Spread& s) {
  out << "\"" << key << "\": " << s.median << ", \"" << key
      << "_min\": " << s.min << ", \"" << key << "_max\": " << s.max;
}

/// Results keep `const MuT*` pointers into the World's registry, so the two
/// travel together.
struct Experiment {
  std::unique_ptr<harness::World> world;
  std::vector<core::CampaignResult> results;
};

inline Experiment run_everything(const Options& opt) {
  Experiment e;
  e.world = harness::build_world();
  core::CampaignOptions copt;
  copt.cap = opt.cap;
  copt.seed = opt.seed;
  const auto start = std::chrono::steady_clock::now();
  e.results = harness::run_all_variants(*e.world, copt);
  const auto secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::uint64_t cases = 0;
  for (const auto& r : e.results) cases += r.total_cases;
  std::fprintf(stderr, "[campaign: %llu test cases across %zu variants in %.1fs]\n",
               static_cast<unsigned long long>(cases), e.results.size(), secs);
  return e;
}

}  // namespace ballista::bench
