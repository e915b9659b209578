// Post-training quantized Neuro-C model: the deployable artifact exported from a trained
// network (paper Sec. 4/5: models are trained with fake quantization, then int8-quantized
// and loaded onto the target).
//
// Arithmetic contract (identical between this host reference and the Thumb kernels):
//   inputs/activations: int8 with per-layer power-of-two scale (in_frac fractional bits)
//   presum:             z_j = Σ(+inputs) − Σ(−inputs), int32 (frac in_frac)
//   scale:              per-neuron int8 w_j with per-layer scale_frac
//   bias:               int32 at frac in_frac + scale_frac
//   output:             sat8(round_shift(z_j * w_j + b_j, in_frac + scale_frac − out_frac)),
//                       then ReLU for hidden layers.
// The conventional-TNN ablation omits w_j entirely (scale_frac = 0, no multiply).

#ifndef NEUROC_SRC_CORE_NEUROC_MODEL_H_
#define NEUROC_SRC_CORE_NEUROC_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/encoding.h"
#include "src/data/dataset.h"
#include "src/train/network.h"

namespace neuroc {

struct QuantNeuroCLayer {
  uint32_t in_dim = 0;
  uint32_t out_dim = 0;
  std::unique_ptr<Encoding> encoding;
  std::vector<int8_t> scale_q;  // empty for the TNN ablation (no per-neuron scale)
  std::vector<int32_t> bias_q;
  int in_frac = 7;
  int out_frac = 7;
  int scale_frac = 0;
  int requant_shift = 0;  // in_frac + scale_frac − out_frac, always >= 0
  bool relu = true;

  bool has_scale() const { return !scale_q.empty(); }
  // Bytes of constant data this layer contributes to program memory.
  size_t WeightBytes() const;
};

struct NeuroCQuantOptions {
  EncodingKind encoding = EncodingKind::kBlock;
  EncodingOptions encoding_options;
  int input_frac = 7;
  size_t max_calibration_examples = 512;
};

class NeuroCModel {
 public:
  NeuroCModel() = default;
  NeuroCModel(NeuroCModel&&) = default;
  NeuroCModel& operator=(NeuroCModel&&) = default;

  // Exports a trained Neuro-C network (sequence of NeuroCLayer/ReluLayer modules built by
  // BuildNeuroC). `calibration` provides activation ranges for the per-layer formats.
  static NeuroCModel FromTrained(Network& net, const Dataset& calibration,
                                 const NeuroCQuantOptions& options = {});

  // Builds a model directly from quantized layers (synthetic benches and tests). Layer
  // dimensions must chain; aborts otherwise.
  static NeuroCModel FromLayers(std::vector<QuantNeuroCLayer> layers);

  // Runs one inference; `input` must hold in_dim() int8 values at input_frac. Returns the
  // final-layer int8 activations (logits) in `out`.
  void Forward(std::span<const int8_t> input, std::vector<int8_t>& out) const;

  // Arg-max class for one example.
  int Predict(std::span<const int8_t> input) const;

  // Top-1 accuracy over a quantized dataset.
  float EvaluateAccuracy(const QuantizedDataset& ds) const;

  const std::vector<QuantNeuroCLayer>& layers() const { return layers_; }
  size_t in_dim() const { return layers_.empty() ? 0 : layers_.front().in_dim; }
  size_t out_dim() const { return layers_.empty() ? 0 : layers_.back().out_dim; }
  int input_frac() const { return layers_.empty() ? 7 : layers_.front().in_frac; }

  // Constant-data bytes (encodings + scales + biases) across layers.
  size_t WeightBytes() const;
  // Largest activation buffer needed (int8 elements) and scratch (int32 elements).
  size_t MaxActivationDim() const;
  std::string Summary() const;

 private:
  std::vector<QuantNeuroCLayer> layers_;
};

// Applies one quantized Neuro-C layer on the host (shared by model forward and tests).
// `sums` scratch must have layer.out_dim entries.
void RunQuantNeuroCLayer(const QuantNeuroCLayer& layer, std::span<const int8_t> input,
                         std::span<int32_t> sums, std::span<int8_t> output);

// Returns a copy of `model` with the per-neuron scales removed (same adjacency, bias and
// requantization structure): the paper's Fig. 8b/8c protocol, which benchmarks the same
// inference code with and without w_j to isolate its latency/memory overhead.
NeuroCModel StripScales(const NeuroCModel& model);

// Returns a copy of `model` with every layer's adjacency re-encoded as `kind` (identical
// weights, scales, biases and requantization — only the storage scheme changes). Used by
// `neuroc profile/deploy --encoding=...`, by the flash-budget fallback when an unrolled
// image overflows the platform budget, and by the recovery ladder's redeploy rung. Fails
// with CheckEncodable's status when `kind` cannot store some layer.
StatusOr<NeuroCModel> ReencodeModel(const NeuroCModel& model, EncodingKind kind,
                                    const EncodingOptions& options = {});

}  // namespace neuroc

#endif  // NEUROC_SRC_CORE_NEUROC_MODEL_H_
