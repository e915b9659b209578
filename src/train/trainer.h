// Minibatch training loop with evaluation, mirroring the paper's fake-quantization training
// stage: models train in float with ternarized forward passes, then are exported/quantized
// by src/core for deployment.

#ifndef NEUROC_SRC_TRAIN_TRAINER_H_
#define NEUROC_SRC_TRAIN_TRAINER_H_

#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/train/network.h"
#include "src/train/optimizer.h"

namespace neuroc {

struct TrainConfig {
  int epochs = 10;
  size_t batch_size = 64;
  float learning_rate = 1e-3f;
  float lr_decay = 1.0f;        // multiplicative per-epoch decay
  float weight_decay = 0.0f;
  bool use_adam = true;
  float momentum = 0.9f;        // when use_adam == false
  uint64_t shuffle_seed = 1234;
  bool verbose = false;
};

struct EpochStats {
  float train_loss = 0.0f;
  float train_accuracy = 0.0f;
  float test_accuracy = 0.0f;
  double epoch_seconds = 0.0;       // wall time of the epoch's optimization loop
  double examples_per_sec = 0.0;
  float ternary_density = 0.0f;     // mean nonzero fraction over NeuroCLayers (0 if none)
};

struct TrainResult {
  std::vector<EpochStats> history;
  float final_test_accuracy = 0.0f;
  float best_test_accuracy = 0.0f;
};

// Fills `batch_x` / `batch_y` with the examples at `indices`.
void GatherBatch(const Dataset& ds, std::span<const size_t> indices, Tensor& batch_x,
                 std::vector<int>& batch_y);

// Evaluates classification accuracy of `net` on `ds` (inference mode).
float EvaluateAccuracy(Network& net, const Dataset& ds, size_t batch_size = 256);

// Trains `net` on `train` and reports per-epoch accuracy on `test`. Each epoch also lands
// in MetricsRegistry::Global(): gauges train.{loss,train_accuracy,test_accuracy,
// ternary_density,learning_rate} hold the latest epoch, and histograms train.epoch_ms and
// train.examples_per_sec gain one observation. Trace spans and counters land on
// TraceRecorder::Global() when tracing is enabled (NEUROC_TRACE=1). Neither affects the
// training computation.
TrainResult Train(Network& net, const Dataset& train, const Dataset& test,
                  const TrainConfig& cfg);

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_TRAINER_H_
