// Encoding explorer: trains a Neuro-C layer, then walks its *learned* adjacency through all
// four sparse encodings, reporting byte footprints and measured Cortex-M0 latency — the
// analysis a developer would run to pick the deployment format for their model, and an
// interactive companion to paper Sec. 4.2/4.3.

#include <cstdio>
#include <utility>

#include "src/core/adjacency_stats.h"
#include "src/core/neuroc_model.h"
#include "src/data/synth.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/train/trainer.h"

using namespace neuroc;

int main() {
  std::printf("Encoding explorer: choosing the deployment format for a trained model\n\n");
  Dataset all = MakeMnistLike(3000, 77);
  Rng rng(5);
  auto [train, test] = all.Split(0.2, rng);

  NeuroCSpec spec;
  spec.hidden = {96};
  spec.layer.ternary.target_density = 0.12f;
  Network net = BuildNeuroC(train.input_dim(), 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.learning_rate = 2e-3f;
  Train(net, train, test, cfg);
  std::printf("trained: %s\n", net.Summary().c_str());

  // Inspect the learned connectivity of the first layer.
  auto* layer = dynamic_cast<NeuroCLayer*>(net.modules().front().get());
  const TernaryMatrix adjacency = TernaryMatrix::FromSignTensor(layer->Adjacency());
  std::printf("first-layer learned connectivity:\n%s\n",
              FormatAdjacencyStats(AnalyzeAdjacency(adjacency)).c_str());

  QuantizedDataset qtest = QuantizeInputs(test);
  std::printf("%-8s %10s %10s %10s %9s %9s %10s\n", "format", "meta_B", "index_B", "total_B",
              "flash_KB", "lat_ms", "int8_acc");
  const Encoding* best_size = nullptr;
  double best_latency = 1e9;
  EncodingKind fastest = EncodingKind::kCsc;
  for (EncodingKind kind : kAllEncodingKinds) {
    auto enc = BuildEncoding(kind, adjacency);
    const EncodingSizeBreakdown sizes = enc->Sizes();
    NeuroCQuantOptions opt;
    opt.encoding = kind;
    NeuroCModel model = NeuroCModel::FromTrained(net, train, opt);
    const float acc = model.EvaluateAccuracy(qtest);
    DeployedModel deployed = DeployedModel::Deploy(model, Stm32f072rb().ToMachineConfig());
    const double ms = deployed.MeasureLatencyMs();
    std::printf("%-8s %10zu %10zu %10zu %9.1f %9.2f %10.4f\n", EncodingKindName(kind),
                sizes.metadata_bytes, sizes.index_bytes, sizes.total(),
                deployed.report().program_bytes / 1024.0, ms, acc);
    if (ms < best_latency) {
      best_latency = ms;
      fastest = kind;
    }
    (void)best_size;
  }
  std::printf("\nall four formats encode the identical adjacency, so int8 accuracy is\n"
              "format-independent; pick by the latency/footprint trade-off above.\n");
  std::printf("fastest format for this model: %s (%.2f ms)\n", EncodingKindName(fastest),
              best_latency);

  // The same model on the other low-class devices of Table 1 (clock + wait states differ).
  std::printf("\nlatency of the %s-encoded model across low-class devices:\n",
              EncodingKindName(fastest));
  NeuroCQuantOptions opt;
  opt.encoding = fastest;
  NeuroCModel model = NeuroCModel::FromTrained(net, train, opt);
  for (const PlatformSpec& p : AllPlatforms()) {
    if (p.mcu_class != McuClass::kLow) {
      continue;
    }
    LinkedModel linked = LinkModel(model, p.ToMachineConfig());
    if (linked.program_bytes > p.flash_bytes) {
      std::printf("  %-14s does not fit (%u KB flash)\n", p.name.c_str(),
                  p.flash_bytes / 1024);
      continue;
    }
    DeployedModel deployed = DeployedModel::Deploy(std::move(linked), p.ToMachineConfig());
    std::printf("  %-14s %7.2f ms @ %.0f MHz (%d flash wait state%s)\n", p.name.c_str(),
                deployed.MeasureLatencyMs(), p.clock_hz / 1e6, p.flash_wait_states,
                p.flash_wait_states == 1 ? "" : "s");
  }
  return 0;
}
