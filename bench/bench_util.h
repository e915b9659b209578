// Shared helpers for the paper-reproduction benches: train/quantize/deploy pipelines and
// fixed-width table printing. Each bench binary regenerates one table or figure of the
// paper; EXPERIMENTS.md records paper-vs-measured values.

#ifndef NEUROC_BENCH_BENCH_UTIL_H_
#define NEUROC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/mlp_model.h"
#include "src/core/neuroc_model.h"
#include "src/data/synth.h"
#include "src/obs/json_writer.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/train/trainer.h"

namespace neuroc {
namespace benchutil {

// Program-memory budget of the paper's evaluation board.
inline constexpr size_t kFlashBudget = 128 * 1024;

struct ModelResult {
  std::string name;
  float float_accuracy = 0.0f;
  float quant_accuracy = 0.0f;
  size_t deployed_params = 0;
  size_t program_bytes = 0;
  double latency_ms = 0.0;
  bool deployable = false;
  bool converged = true;
};

// Links `model` for the evaluation board and, when it fits the flash budget (exactly the
// paper's deployability rule), deploys that link and measures its latency.
template <typename Model>
void MeasureDeployment(const Model& model, ModelResult& r) {
  const MachineConfig config = Stm32f072rb().ToMachineConfig();
  LinkedModel linked = LinkModel(model, config);
  r.program_bytes = linked.program_bytes;
  r.deployable = r.program_bytes <= kFlashBudget;
  if (r.deployable) {
    r.latency_ms = DeployedModel::Deploy(std::move(linked), config).MeasureLatencyMs();
  }
}

// Trains an MLP baseline and measures its quantized deployment.
inline ModelResult EvaluateMlp(const std::string& name, const Dataset& train,
                               const Dataset& test, const MlpSpec& spec,
                               const TrainConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  Network net = BuildMlp(train.input_dim(), static_cast<size_t>(train.num_classes), spec, rng);
  const TrainResult tr = Train(net, train, test, cfg);
  ModelResult r;
  r.name = name;
  r.float_accuracy = tr.final_test_accuracy;
  r.converged = tr.final_test_accuracy > 1.5f / static_cast<float>(train.num_classes);
  r.deployed_params = net.DeployedParameterCount();
  MlpModel model = MlpModel::FromTrained(net, train);
  r.quant_accuracy = model.EvaluateAccuracy(QuantizeInputs(test));
  MeasureDeployment(model, r);
  return r;
}

// Trains a Neuro-C model (or its TNN ablation via spec.layer.use_per_neuron_scale) and
// measures its quantized deployment.
inline ModelResult EvaluateNeuroC(const std::string& name, const Dataset& train,
                                  const Dataset& test, const NeuroCSpec& spec,
                                  const TrainConfig& cfg, uint64_t seed,
                                  EncodingKind encoding = EncodingKind::kBlock) {
  Rng rng(seed);
  Network net =
      BuildNeuroC(train.input_dim(), static_cast<size_t>(train.num_classes), spec, rng);
  const TrainResult tr = Train(net, train, test, cfg);
  ModelResult r;
  r.name = name;
  r.float_accuracy = tr.final_test_accuracy;
  r.converged = tr.final_test_accuracy > 1.5f / static_cast<float>(train.num_classes);
  r.deployed_params = net.DeployedParameterCount();
  NeuroCQuantOptions opt;
  opt.encoding = encoding;
  NeuroCModel model = NeuroCModel::FromTrained(net, train, opt);
  r.quant_accuracy = model.EvaluateAccuracy(QuantizeInputs(test));
  MeasureDeployment(model, r);
  return r;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Writes a finished JsonWriter document to `path` and prints the conventional
// "wrote <path>" line every bench ends with. All BENCH_*.json emission goes through this
// (and JsonWriter) so output stays consistently escaped and formatted across benches.
inline void WriteBenchJson(const std::string& path, const JsonWriter& w) {
  NEUROC_CHECK(w.done());
  if (WriteStringToFile(path, w.str())) {
    std::printf("wrote %s\n", path.c_str());
  }
}

// Appends `r` as one JSON object — shared shape for benches that tabulate ModelResults.
inline void WriteModelResultJson(JsonWriter& w, const ModelResult& r) {
  w.BeginObject();
  w.Key("model").Value(r.name);
  w.Key("float_accuracy").Value(static_cast<double>(r.float_accuracy), 4);
  w.Key("quant_accuracy").Value(static_cast<double>(r.quant_accuracy), 4);
  w.Key("deployed_params").Value(static_cast<uint64_t>(r.deployed_params));
  w.Key("program_bytes").Value(static_cast<uint64_t>(r.program_bytes));
  w.Key("latency_ms").Value(r.latency_ms, 4);
  w.Key("deployable").Value(r.deployable);
  w.Key("converged").Value(r.converged);
  w.EndObject();
}

inline void PrintModelResultHeader() {
  std::printf("%-22s %9s %9s %8s %10s %9s %6s\n", "model", "float_acc", "int8_acc", "params",
              "flash_KB", "lat_ms", "fits");
}

inline void PrintModelResult(const ModelResult& r) {
  std::printf("%-22s %9.4f %9.4f %8zu %10.1f ", r.name.c_str(), r.float_accuracy,
              r.quant_accuracy, r.deployed_params,
              static_cast<double>(r.program_bytes) / 1024.0);
  if (r.deployable) {
    std::printf("%9.2f %6s\n", r.latency_ms, "yes");
  } else {
    std::printf("%9s %6s\n", "-", "NO");
  }
}

}  // namespace benchutil
}  // namespace neuroc

#endif  // NEUROC_BENCH_BENCH_UTIL_H_
