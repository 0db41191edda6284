// Order statistics for timings: a timing is reported as its median and the
// highest percentile that has at least ten samples beyond it, with the
// sample count.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle samples for an even count); 0 when empty.
double median(std::vector<double> samples);

struct Summary {
  double median = 0.0;
  std::size_t count = 0;
  /// Present only when at least ten samples lie beyond the 99th percentile
  /// (n - ceil(0.99 n) >= 10, i.e. n >= 1000); a p99 read off fewer is a
  /// single outlier, not a tail.
  std::optional<double> p99;
};

Summary summarize(std::vector<double> samples);

}  // namespace perfbench
