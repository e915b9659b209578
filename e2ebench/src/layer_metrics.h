// Per-layer metrics of a traced measurement: span totals by name, plus a probe that calls
// each layer's public entry points on one model (codegen, assembler, guarded deploy,
// guarded and bare inference) inside spans.

#ifndef NEUROC_E2EBENCH_SRC_LAYER_METRICS_H_
#define NEUROC_E2EBENCH_SRC_LAYER_METRICS_H_

#include <map>
#include <string>

#include "e2ebench/src/catalogue.h"
#include "e2ebench/src/report.h"
#include "e2ebench/src/trace.h"
#include "src/core/neuroc_model.h"

namespace e2ebench {

class LayerView {
 public:
  explicit LayerView(const Tracer& tracer) : totals_(tracer.Totals()) {}

  uint64_t Count(const std::string& name) const { return Get(name).count; }
  double TotalMs(const std::string& name) const { return Get(name).total_ms; }
  double SelfMs(const std::string& name) const { return Get(name).self_ms; }
  // Mean duration per span; 0 when no span of that name was recorded.
  double MeanMs(const std::string& name) const {
    const SpanTotals& t = Get(name);
    return t.count == 0 ? 0.0 : t.total_ms / static_cast<double>(t.count);
  }
  const std::map<std::string, SpanTotals>& totals() const { return totals_; }

 private:
  const SpanTotals& Get(const std::string& name) const;
  std::map<std::string, SpanTotals> totals_;
};

struct ProbeResult {
  uint64_t instructions = 0;  // simulated instructions of the bare inferences
  double bare_s = 0.0;        // host time of the bare inferences
};

// Generates and assembles the model's kernels, round-trips it through the serde format,
// deploys the loaded copy through GuardedModel::Create, then runs `inferences` guarded
// and as many bare (DeployedModel::TryPredict) inferences.
void ProbeModelLayers(const neuroc::NeuroCModel& model, int inferences, ProbeResult* probe,
                      RunStatus* status);

// kernels.codegen_ms and isa.assemble_ms (per probed model), core.serde_load_ms (mean
// over every load: the probe's and, on serve workloads, the server's), runtime.deploy_ms,
// runtime.infer_us, runtime.guard_us, runtime.recoveries, and sim.mips and sim.eval_s
// (from the bare inferences) when the workload has not set them from its own.
void AddProbeMetrics(const LayerView& view, const ProbeResult& probe, Metrics* out);

// sim.layer_cycles.l0..l2 (0 for a layer the model does not have).
void AddLayerCycles(const DeviceFacts& facts, Metrics* out);

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_LAYER_METRICS_H_
