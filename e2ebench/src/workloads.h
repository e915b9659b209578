// The benchmark's workloads. Each one measures for a time budget and returns its
// end-to-end metrics; a traced measurement additionally fills the per-layer metrics from
// the spans it recorded (tracing overhead is computed by the caller, see main.cc).

#ifndef NEUROC_E2EBENCH_SRC_WORKLOADS_H_
#define NEUROC_E2EBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "e2ebench/src/catalogue.h"
#include "e2ebench/src/report.h"
#include "src/data/dataset.h"
#include "src/train/trainer.h"

namespace e2ebench {

// Host worker-pool size in every workload, fixed so a change of the library's default
// thread count cannot change the measurement.
inline constexpr unsigned kHostThreads = 2;

// Latency limit behind slo_attain, on every workload (stated in BENCHMARK.json).
inline constexpr double kSloMs = 8.0;
// serve_paper's open-loop offered rate, requests per second (stated in BENCHMARK.json).
inline constexpr double kPaperOpenLoopRps = 250.0;
// p99_ms is the median over windows of at least this many consecutive samples of each
// window's p99 (ten samples beyond it). The host's vCPUs are now and then held off for
// milliseconds at a time; the whole-run p99 followed how many such stalls a run met.
inline constexpr size_t kTailWindow = 1000;

struct Measurement {
  double budget_s = 10.0;  // wall time the measured phases aim to take
  uint64_t seed = 1;
  bool traced = false;
  std::string work_dir;    // scratch directory for model files and span output
};

// Per-epoch training figures. The traced replay of train_pipeline must reproduce the
// untraced run's history bit for bit.
struct EpochRecord {
  float train_loss = 0.0f;
  float train_accuracy = 0.0f;
  float test_accuracy = 0.0f;
  bool operator==(const EpochRecord&) const = default;
};

struct MeasureResult {
  Metrics end_to_end;
  Metrics per_layer;  // traced measurements only
  std::vector<EpochRecord> history;  // train_pipeline only
};

// ----- train_pipeline -----------------------------------------------------------------

// The Fig. 7 "neuroc-best" MNIST-like configuration; tests shrink it.
struct PipelineConfig {
  size_t examples = 3500;       // generated, then split
  double test_fraction = 0.3;
  std::vector<size_t> hidden = {256, 128};
  float density = 0.12f;
  neuroc::TrainConfig train;    // batch 64, Adam 3e-3, decay 0.85, fixed epochs
  PipelineConfig();
};

struct PipelineData {
  neuroc::Dataset train;
  neuroc::Dataset test;
  neuroc::QuantizedDataset test_q;
};

PipelineData MakePipelineData(const PipelineConfig& cfg, uint64_t seed);

// One train → quantize → deploy → on-device test pass. `replay` trains through the
// traced replay of Train's loop instead of Train itself.
struct PipelineRun {
  std::vector<EpochRecord> history;
  double seconds = 0.0;          // whole pipeline
  double test_pass_s = 0.0;      // on-device test pass
  std::vector<double> infer_ms;  // per test inference, host wall time
  size_t label_correct = 0;      // simulator predictions equal to the label
  size_t reference_mismatches = 0;  // simulator != host reference prediction
  size_t cycle_mismatches = 0;      // per-inference cycles != the model's constant
  DeviceFacts device;
  neuroc::NeuroCModel model;
};

PipelineRun RunPipeline(const PipelineConfig& cfg, const PipelineData& data, uint64_t seed,
                        bool replay, RunStatus* status);

MeasureResult MeasureTrainPipeline(const Measurement& m,
                                   const std::vector<EpochRecord>& reference_history,
                                   RunStatus* status);

// ----- serve_paper / serve_churn ------------------------------------------------------

MeasureResult MeasureServe(const Measurement& m, bool churn, RunStatus* status);

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_WORKLOADS_H_
