// Order statistics, span self time and metric-name rules for the end-to-end benchmark.
// Kept free of any neuroc dependency so the arithmetic is unit-tested on its own.

#ifndef NEUROC_E2EBENCH_SRC_STATS_H_
#define NEUROC_E2EBENCH_SRC_STATS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace e2ebench {

// Quantile q in [0, 1] of `values` by linear interpolation between order statistics
// (the "type 7" rule: position q * (n - 1)). 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Median, over consecutive windows of `values` (in the order given), of each window's
// quantile q. There are n / min_window windows (at least one), whose sizes differ by at
// most one, so each holds at least min_window values when n >= min_window. 0 for an
// empty input.
double WindowedQuantile(const std::vector<double>& values, size_t min_window, double q);

// One recorded span, as the self-time computation needs it.
struct SpanInterval {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span, in input order: its duration minus the part of its interval
// covered by the union of its children (children clipped to the parent's interval, so
// overlapping children on several threads are counted once).
std::vector<int64_t> SelfTimes(const std::vector<SpanInterval>& spans);

// A metric or workload name: starts with a letter or digit, then letters, digits, '_',
// '.' or '-', at most 64 characters.
bool ValidMetricName(std::string_view name);

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_STATS_H_
