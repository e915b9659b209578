// Ternarization of latent full-precision weights, used by quantization-aware training.
//
// Following ternary-weight-network practice, a latent weight w maps to
//   +1 if w >  t,   -1 if w < -t,   0 otherwise,
// with a per-layer threshold t = factor * mean(|W|) (factor 0.7 by default). Gradients flow
// through the quantizer with the straight-through estimator, clipped to |w| <= clip so latent
// weights cannot drift arbitrarily far from the representable range.

#ifndef NEUROC_SRC_TRAIN_TERNARY_H_
#define NEUROC_SRC_TRAIN_TERNARY_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace neuroc {

struct TernaryConfig {
  float threshold_factor = 0.7f;  // t = factor * mean(|W|) (used when target_density == 0)
  float ste_clip = 1.0f;          // gradient passes only where |w| <= ste_clip
  // When > 0, the threshold is instead the (1 - target_density) quantile of |W|, keeping a
  // controlled fraction of connections. Sparsity is a first-class design parameter in the
  // paper (Fig. 1 grid search), and low densities are what yield its latency/memory wins.
  float target_density = 0.2f;
};

// Computes the ternarization threshold for the latent weights. Under target_density it is
// the exact order statistic of |W|, selected on the shared thread pool and the same at any
// worker count.
float TernaryThreshold(const Tensor& latent, const TernaryConfig& cfg);

// Writes sign values in {-1, 0, +1} (as float) into `out` (same shape as latent).
void Ternarize(const Tensor& latent, float threshold, Tensor& out);

// Ternarize into an int8 matrix (deployment form).
void TernarizeToInt8(const Tensor& latent, float threshold, std::vector<int8_t>& out);

// Masks `grad` in place: entries where |latent| > clip receive zero gradient (STE clip).
// The sparse trainer fuses the same mask into SparseGradLatent; the dense oracle calls this.
void ApplySteClip(const Tensor& latent, float clip, Tensor& grad);

// Number of nonzero entries after ternarization at the given threshold.
size_t CountNonZero(const Tensor& latent, float threshold);

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_TERNARY_H_
