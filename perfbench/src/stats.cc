#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

namespace {

/// 1-based nearest rank of the q-quantile of n samples, ceil(q * n).  The
/// epsilon keeps round products exact (0.99 * 1000 is rank 990, not 991).
std::size_t rank_of(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = median(samples);
  if (s.count - rank_of(s.count, 0.99) >= 10)
    s.p99 = samples[rank_of(s.count, 0.99) - 1];
  return s;
}

}  // namespace perfbench
