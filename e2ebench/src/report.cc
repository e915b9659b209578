#include "e2ebench/src/report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2ebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"pipeline_s", "s"},
      {"accuracy", "ratio", true},
      {"device_latency_ms", "ms", true},
      {"flash_bytes", "bytes", true},
      {"device_sram_bytes", "bytes", true},
      {"device_energy_uj", "uJ", true},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"capacity_rps", "1/s"},
      {"slo_attain", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"data.generate_s", "s"},
        {"train.gather_ms", "ms"},
        {"train.neuroc_fwd_ms", "ms"},
        {"train.neuroc_bwd_ms", "ms"},
        {"train.other_fwd_ms", "ms"},
        {"train.other_bwd_ms", "ms"},
        {"train.loss_ms", "ms"},
        {"train.optim_ms", "ms"},
        {"train.eval_ms", "ms"},
        {"train.examples_per_s", "1/s"},
        {"core.quantize_ms", "ms"},
        {"core.serde_load_ms", "ms"},
        {"kernels.codegen_ms", "ms"},
        {"isa.assemble_ms", "ms"},
        {"runtime.deploy_ms", "ms"},
        {"runtime.infer_us", "us"},
        {"runtime.guard_us", "us"},
        {"runtime.recoveries", "count"},
        {"sim.mips", "MIPS"},
        {"sim.eval_s", "s"},
        {"sim.layer_cycles.l0", "cycles"},
        {"sim.layer_cycles.l1", "cycles"},
        {"sim.layer_cycles.l2", "cycles"},
        {"serve.in_service_ms", "ms"},
        {"serve.wire_ms", "ms"},
        {"serve.frame_encode_us", "us"},
        {"serve.frame_decode_us", "us"},
        {"serve.batch_size_mean", "count"},
        {"serve.batches", "count"},
        {"serve.rejected", "count"},
        {"serve.cache_hit_frac", "ratio"},
        {"serve.cache_misses", "count"},
        {"serve.cache_evictions", "count"},
        {"serve.failed_frac", "ratio"},
        {"serve.open_loop_p50_ms", "ms"},
        {"serve.open_loop_p99_ms", "ms"},
        {"loadgen.lag_ms", "ms"},
        {"trace.spans", "count"},
    };
    // Tracing overhead: traced minus untraced value of each host-measured end-to-end
    // metric. The names are built once here and live as long as the program.
    static std::vector<std::string> overhead_names;
    std::vector<const char*> units;
    for (const MetricSpec& m : EndToEndMetrics()) {
      if (!m.deterministic) {
        overhead_names.push_back(std::string("trace.overhead.") + m.name);
        units.push_back(m.unit);
      }
    }
    for (size_t i = 0; i < overhead_names.size(); ++i) {
      s.push_back({overhead_names[i].c_str(), units[i]});
    }
    return s;
  }();
  return specs;
}

void RunStatus::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

void PrintResult(const RunStatus& status, const Metrics& values,
                 const std::vector<MetricSpec>& specs) {
  for (const std::string& e : status.errors) {
    std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n", m.name);
      std::abort();
    }
    if (!std::isfinite(it->second)) {
      std::fprintf(stderr, "internal error: metric %s is not a finite number\n", m.name);
      std::abort();
    }
    std::printf("%-32s %20.6f %s\n", m.name, it->second, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              status.correct ? "true" : "false",
              static_cast<unsigned long long>(status.attempted),
              static_cast<unsigned long long>(status.failed));
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, values.at(specs[i].name), specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace e2ebench
