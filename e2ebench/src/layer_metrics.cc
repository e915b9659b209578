#include "e2ebench/src/layer_metrics.h"

#include <algorithm>

#include "src/core/model_image.h"
#include "src/core/model_serde.h"
#include "src/core/unrolled_encoding.h"
#include "src/isa/assembler.h"
#include "src/kernels/kernel_sources.h"
#include "src/obs/registry.h"
#include "src/runtime/profile.h"
#include "src/runtime/recovery.h"

namespace e2ebench {

const SpanTotals& LayerView::Get(const std::string& name) const {
  static const SpanTotals kNone;
  const auto it = totals_.find(name);
  return it == totals_.end() ? kNone : it->second;
}

void ProbeModelLayers(const neuroc::NeuroCModel& model, int inferences, ProbeResult* probe,
                      RunStatus* status) {
  constexpr uint32_t kFlashBase = 0x08000000;
  const neuroc::DeviceModelImage image = neuroc::PackNeuroCModel(model, kFlashBase, 0x20000000);
  // Same variant dedup and per-kind generator choice as KernelSet::Build.
  std::vector<neuroc::KernelVariant> variants;
  for (const neuroc::KernelVariant& v : image.variants) {
    if (std::find(variants.begin(), variants.end(), v) == variants.end()) {
      variants.push_back(v);
    }
  }
  std::string source;
  for (const neuroc::KernelVariant& v : variants) {
    Span s("kernels.codegen");
    if (!v.is_dense && v.kind == neuroc::EncodingKind::kUnrolled) {
      const neuroc::Encoding& enc = *model.layers()[v.unrolled_layer].encoding;
      source += neuroc::GenerateUnrolledKernelSource(
          v, static_cast<const neuroc::UnrolledEncoding&>(enc));
    } else {
      source += neuroc::GenerateKernelSource(v);
    }
    source += "\n";
  }
  {
    Span s("isa.assemble");
    const neuroc::AssembledProgram program = neuroc::Assemble(source, kFlashBase);
    if (program.bytes.empty()) {
      status->Fail("probe: assembler produced no code");
    }
  }
  const std::vector<uint8_t> bytes = neuroc::SerializeModel(model);
  neuroc::StatusOr<neuroc::NeuroCModel> loaded = [&] {
    Span s("core.serde_load");
    return neuroc::DeserializeNeuroCModel(bytes);
  }();
  if (!loaded.ok()) {
    status->Fail("probe: model does not survive a serde round trip: " +
                 loaded.status().ToString());
    return;
  }
  neuroc::StatusOr<neuroc::GuardedModel> guarded = [&] {
    Span s("runtime.deploy");
    return neuroc::GuardedModel::Create(std::move(*loaded));
  }();
  if (!guarded.ok()) {
    status->Fail("probe: GuardedModel::Create failed: " + guarded.status().ToString());
    return;
  }
  const std::vector<int8_t> input(model.in_dim(), 17);
  const int expected = model.Predict(input);
  neuroc::DeployedModel& bare = guarded->deployed();
  // Guarded and bare inferences alternate on the same machine, so drift in host speed
  // does not land on one side of runtime.guard_us.
  for (int i = 0; i < inferences; ++i) {
    {
      Span s("runtime.infer");
      const neuroc::GuardedResult r = guarded->Predict(input);
      if (!r.ok || r.prediction != expected) {
        status->Fail("probe: guarded inference disagrees with the host reference");
      }
    }
    const auto t0 = Clock::now();
    Span s("runtime.bare_infer");
    const neuroc::StatusOr<int> p = bare.TryPredict(input);
    probe->bare_s += std::chrono::duration<double>(Clock::now() - t0).count();
    if (!p.ok() || *p != expected) {
      status->Fail("probe: bare inference disagrees with the host reference");
    }
  }
  // Instruction counts are input-independent, so one profiled run gives them all.
  probe->instructions += neuroc::ProfileInference(bare).instructions * inferences;
}

void AddProbeMetrics(const LayerView& view, const ProbeResult& probe, Metrics* out) {
  const double models = static_cast<double>(std::max<uint64_t>(1, view.Count("isa.assemble")));
  (*out)["kernels.codegen_ms"] = view.TotalMs("kernels.codegen") / models;
  (*out)["isa.assemble_ms"] = view.MeanMs("isa.assemble");
  (*out)["runtime.deploy_ms"] = view.MeanMs("runtime.deploy");
  (*out)["runtime.infer_us"] = view.MeanMs("runtime.infer") * 1000.0;
  (*out)["runtime.guard_us"] =
      (view.MeanMs("runtime.infer") - view.MeanMs("runtime.bare_infer")) * 1000.0;
  neuroc::MetricsRegistry& reg = neuroc::MetricsRegistry::Global();
  uint64_t recoveries = 0;
  for (const char* name :
       {"recovery.deadline_faults", "recovery.dual_run_mismatch", "recovery.snapshot_retry",
        "recovery.scrub_retry", "recovery.redeploy", "recovery.permanent_failure"}) {
    recoveries += reg.GetCounter(name).value();
  }
  (*out)["runtime.recoveries"] = static_cast<double>(recoveries);
  (*out)["core.serde_load_ms"] = view.MeanMs("core.serde_load");
  if (probe.bare_s > 0.0) {
    out->emplace("sim.mips", static_cast<double>(probe.instructions) / probe.bare_s / 1e6);
    out->emplace("sim.eval_s", probe.bare_s);
  }
}

void AddLayerCycles(const DeviceFacts& facts, Metrics* out) {
  for (size_t k = 0; k < 3; ++k) {
    (*out)["sim.layer_cycles.l" + std::to_string(k)] =
        k < facts.layer_cycles.size() ? static_cast<double>(facts.layer_cycles[k]) : 0.0;
  }
}

}  // namespace e2ebench
