// Metric catalogue and result reporting. The names and units here must match
// BENCHMARK.json (checked by the benchmark's tests); a workload that does not exercise a
// per-layer metric reports it as 0.

#ifndef NEUROC_E2EBENCH_SRC_REPORT_H_
#define NEUROC_E2EBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
  // Simulated or otherwise exact: repeats bit for bit at a fixed seed, so it has no
  // tracing overhead to report.
  bool deterministic = false;
};

// Measured with tracing off; every workload reports all of them.
const std::vector<MetricSpec>& EndToEndMetrics();
// Reported by the traced run (--trace 1), including trace.overhead.<metric> for every
// end-to-end metric that is measured on the host.
const std::vector<MetricSpec>& PerLayerMetrics();

using Metrics = std::map<std::string, double>;

// Correctness and request accounting of one benchmark run.
struct RunStatus {
  bool correct = true;
  uint64_t attempted = 0;  // requests or inferences issued
  uint64_t failed = 0;     // error responses and admission rejections
  std::vector<std::string> errors;  // first few correctness failures, for the log

  void Fail(const std::string& why);
};

// Prints one "name value unit" line per metric of `specs`, then the final one-line
// result object. Aborts if a metric of `specs` is missing from `values`.
void PrintResult(const RunStatus& status, const Metrics& values,
                 const std::vector<MetricSpec>& specs);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_REPORT_H_
