// Trainable Neuro-C layers.
//
// NeuroCLayer implements the paper's Eq. (1)/(2): o = f(diag(w) A x + b) where the adjacency
// A ∈ {-1,0,+1}^{in×out} is obtained by quantization-aware training (latent full-precision
// weights ternarized once per optimizer step — the cache is invalidated by Backward and
// rebuilt lazily, so eval-mode forwards between steps reuse it — with straight-through
// gradients), `w` is the per-neuron scale that replaces batch normalization, and `b` the
// per-neuron bias. The hot path runs on the sparse signed-index kernels of
// sparse_kernels.h: the once-per-step ternarization (threshold selection and view build)
// runs on the shared thread pool, the STE clip is fused into the latent-gradient kernel,
// and the first layer of a Network skips its input gradient, which nothing reads.
// `use_sparse_kernels = false` restores the legacy dense-MatMul trainer, the bit-exact
// oracle. Disabling the scale (`use_per_neuron_scale = false`) yields the conventional-TNN
// ablation of the paper's Sec. 5.2 / Fig. 8.
//
// FixedAdjacencyLayer freezes A at construction using one of the paper's Fig. 1 strategies
// (random, constrained-random, spatial locality) and trains only scale and bias.

#ifndef NEUROC_SRC_TRAIN_NEUROC_LAYER_H_
#define NEUROC_SRC_TRAIN_NEUROC_LAYER_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/train/module.h"
#include "src/train/sparse_kernels.h"
#include "src/train/ternary.h"

namespace neuroc {

struct NeuroCLayerConfig {
  TernaryConfig ternary;
  bool use_per_neuron_scale = true;
  float latent_init_stddev_scale = 1.0f;  // multiplies the Glorot stddev
  // Route Forward/Backward through the sparse signed-index kernels (bit-identical to the
  // dense path; see sparse_kernels.h). false reproduces the legacy dense-MatMul trainer —
  // including its re-ternarization on every forward — and exists as the benchmark baseline
  // and as a debugging reference.
  bool use_sparse_kernels = true;
};

class NeuroCLayer : public Module {
 public:
  NeuroCLayer(size_t in_dim, size_t out_dim, Rng& rng, NeuroCLayerConfig cfg = {});

  const Tensor& Forward(const Tensor& input, bool training) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<ParamRef>& out) override;
  std::string Name() const override;
  size_t DeployedParameterCount() const override;

  size_t in_dim() const { return latent_.rows(); }
  size_t out_dim() const { return latent_.cols(); }
  const NeuroCLayerConfig& config() const { return cfg_; }

  // Current ternarized adjacency (values in {-1,0,+1} as float, shape [in, out]).
  // Served from the ternarization cache; recomputed on demand when stale.
  const Tensor& Adjacency();
  // Deployment threshold for the current latent weights (cached with the ternarization).
  float CurrentThreshold() const;
  const Tensor& latent() const { return latent_; }
  const Tensor& scale() const { return scale_; }
  const Tensor& bias() const { return bias_; }
  // Number of nonzero adjacency entries at the current threshold (cached).
  size_t NonZeroCount() const;
  // Sparse signed-index view of the current adjacency (cached alongside the threshold).
  const SparseTernaryMatrix& SparseAdjacency() const;

  // Marks the ternarization cache stale. Backward calls this automatically (the optimizer
  // steps the latent weights right after); call it manually only after mutating latent()
  // through CollectParams outside a normal Backward/Step cycle.
  void InvalidateTernaryCache() { ternary_valid_ = dense_valid_ = sparse_valid_ = false; }

 private:
  // Rebuilds threshold + sparse view if stale. Const because metric accessors
  // (NonZeroCount, DeployedParameterCount) are const; the cache fields are mutable.
  void EnsureTernarized() const;

  NeuroCLayerConfig cfg_;
  Tensor latent_;      // [in, out] full-precision latent weights
  Tensor scale_;       // [1, out] per-neuron scale w_j
  Tensor bias_;        // [1, out]
  Tensor grad_latent_;
  Tensor grad_scale_;
  Tensor grad_bias_;
  Tensor input_cache_;  // filled only by training-mode forwards (Backward consumes it)
  Tensor presum_;      // z = x A, cached for the scale gradient
  Tensor output_;
  Tensor grad_input_;
  Tensor gz_;          // scratch: grad_output * scale, reused across steps
  // Ternarization cache: rebuilt once per optimizer step instead of once per
  // Forward/Backward/Adjacency call. Invalidated by Backward (a Step follows) and by
  // InvalidateTernaryCache. The sparse-kernel mode keeps the sparse view as the primary
  // form and densifies on demand; the legacy mode ternarizes straight to dense (the seed
  // trainer's exact behaviour) and builds the sparse view only if asked for it.
  mutable SparseTernaryMatrix sparse_;
  mutable Tensor adjacency_;
  mutable float threshold_ = 0.0f;
  mutable bool ternary_valid_ = false;
  mutable bool dense_valid_ = false;
  mutable bool sparse_valid_ = false;
};

// Connectivity strategies evaluated in paper Fig. 1.
enum class AdjacencyStrategy {
  kRandom,             // each connection present independently with probability `density`
  kConstrainedRandom,  // exactly `fan_in` random connections per output neuron
  kSpatialLocal,       // connections limited to a local window around a per-neuron center
};

struct FixedAdjacencyConfig {
  AdjacencyStrategy strategy = AdjacencyStrategy::kRandom;
  double density = 0.1;   // kRandom: connection probability
  size_t fan_in = 16;     // kConstrainedRandom: connections per output neuron
  int image_width = 0;    // kSpatialLocal: input raster geometry (0 = treat input as 1-D)
  int window_radius = 2;  // kSpatialLocal: half-size of the receptive window
};

class FixedAdjacencyLayer : public Module {
 public:
  FixedAdjacencyLayer(size_t in_dim, size_t out_dim, Rng& rng, FixedAdjacencyConfig cfg);

  const Tensor& Forward(const Tensor& input, bool training) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<ParamRef>& out) override;
  std::string Name() const override;
  size_t DeployedParameterCount() const override;

  const Tensor& adjacency() const { return adjacency_; }
  size_t NonZeroCount() const;

 private:
  FixedAdjacencyConfig cfg_;
  Tensor adjacency_;  // fixed ternary [in, out]
  Tensor scale_;      // [1, out]
  Tensor bias_;       // [1, out]
  Tensor grad_scale_;
  Tensor grad_bias_;
  Tensor presum_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_NEUROC_LAYER_H_
