#include "src/train/neuroc_layer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/tensor/matrix_ops.h"

namespace neuroc {

namespace {

// Broadcast-multiply each row of m by `col` (length m.cols()). Elementwise per row, so
// row partitioning is bit-exact for any worker count.
void ScaleColumns(const Tensor& m, const Tensor& col, Tensor& out) {
  if (!out.SameShape(m)) {
    out = Tensor(m.shape());
  }
  const size_t n = m.rows();
  const size_t d = m.cols();
  ParallelFor(0, n, GrainForOps(d), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* src = m.data() + r * d;
      float* dst = out.data() + r * d;
      for (size_t c = 0; c < d; ++c) {
        dst[c] = src[c] * col[c];
      }
    }
  });
}

// Scale gradient dL/ds_j = sum_r g[r,j] * z[r,j]. The reduction runs over batch rows, so
// chunks own disjoint *column* ranges and every column still sums rows in ascending order —
// bit-identical to the serial loop for any worker count.
void GradScale(const Tensor& grad_output, const Tensor& presum, Tensor& grad_scale) {
  const size_t n = grad_output.rows();
  const size_t d = grad_output.cols();
  ParallelFor(0, d, GrainForOps(2 * n), [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      grad_scale[c] = 0.0f;
    }
    for (size_t r = 0; r < n; ++r) {
      const float* g = grad_output.data() + r * d;
      const float* z = presum.data() + r * d;
      for (size_t c = c0; c < c1; ++c) {
        grad_scale[c] += g[c] * z[c];
      }
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// NeuroCLayer
// ---------------------------------------------------------------------------

NeuroCLayer::NeuroCLayer(size_t in_dim, size_t out_dim, Rng& rng, NeuroCLayerConfig cfg)
    : cfg_(cfg),
      latent_({in_dim, out_dim}),
      scale_({size_t{1}, out_dim}),
      bias_({size_t{1}, out_dim}),
      grad_latent_({in_dim, out_dim}),
      grad_scale_({size_t{1}, out_dim}),
      grad_bias_({size_t{1}, out_dim}) {
  // Glorot-style init on the latent weights; the ternary threshold adapts to their scale.
  const float stddev =
      cfg.latent_init_stddev_scale * std::sqrt(2.0f / static_cast<float>(in_dim + out_dim));
  for (float& w : latent_.flat()) {
    w = rng.NextGaussian(0.0f, stddev);
  }
  // The per-neuron scale starts near the inverse of the expected fan-in magnitude so early
  // pre-activations are O(1) — this is the built-in normalizer role described in Sec. 3.4.
  const float init_scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
  scale_.Fill(init_scale);
}

void NeuroCLayer::EnsureTernarized() const {
  if (ternary_valid_) {
    return;
  }
  threshold_ = TernaryThreshold(latent_, cfg_.ternary);
  if (cfg_.use_sparse_kernels) {
    sparse_.AssignFromLatent(latent_, threshold_);  // in place: no allocs after warm-up
    sparse_valid_ = true;
    dense_valid_ = false;
  } else {
    // Legacy mode ternarizes straight into the dense tensor, exactly like the original
    // trainer — no sparse build it would never use.
    Ternarize(latent_, threshold_, adjacency_);
    dense_valid_ = true;
    sparse_valid_ = false;
  }
  ternary_valid_ = true;
}

const Tensor& NeuroCLayer::Adjacency() {
  EnsureTernarized();
  if (!dense_valid_) {
    sparse_.ToDense(adjacency_);
    dense_valid_ = true;
  }
  return adjacency_;
}

float NeuroCLayer::CurrentThreshold() const {
  EnsureTernarized();
  return threshold_;
}

size_t NeuroCLayer::NonZeroCount() const {
  EnsureTernarized();
  return sparse_valid_ ? sparse_.NonZeroCount() : CountNonZero(latent_, threshold_);
}

const SparseTernaryMatrix& NeuroCLayer::SparseAdjacency() const {
  EnsureTernarized();
  if (!sparse_valid_) {
    sparse_.AssignFromLatent(latent_, threshold_);
    sparse_valid_ = true;
  }
  return sparse_;
}

const Tensor& NeuroCLayer::Forward(const Tensor& input, bool training) {
  NEUROC_CHECK(input.rank() == 2 && input.cols() == latent_.rows());
  if (training) {
    input_cache_ = input;  // only Backward consumes it — eval forwards skip the copy
  }
  if (!cfg_.use_sparse_kernels) {
    InvalidateTernaryCache();  // legacy trainer behaviour: re-ternarize on every forward
  }
  EnsureTernarized();
  if (cfg_.use_sparse_kernels) {
    SparseForward(input, sparse_, presum_);
  } else {
    MatMul(input, Adjacency(), presum_);
  }
  if (cfg_.use_per_neuron_scale) {
    ScaleColumns(presum_, scale_, output_);
  } else {
    output_ = presum_;
  }
  AddRowBias(output_, bias_.flat());
  return output_;
}

const Tensor& NeuroCLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(output_));
  // Backward requires a preceding training-mode Forward on the same batch.
  NEUROC_CHECK(input_cache_.rank() == 2 && input_cache_.rows() == grad_output.rows());
  // Bias gradient.
  ColumnSums(grad_output, grad_bias_.flat());
  if (cfg_.use_per_neuron_scale) {
    GradScale(grad_output, presum_, grad_scale_);
  }
  // Gradient reaching the pre-sum z: gz = g * s (or g if no scale). gz_ is a member
  // scratch so the per-step allocation disappears after the first batch.
  const Tensor* gz = &grad_output;
  if (cfg_.use_per_neuron_scale) {
    ScaleColumns(grad_output, scale_, gz_);
    gz = &gz_;
  }
  // Latent gradient through the ternarizer (straight-through): dL/dW = x^T gz, clipped.
  EnsureTernarized();
  if (cfg_.use_sparse_kernels) {
    SparseGradLatent(input_cache_, *gz, latent_, cfg_.ternary.ste_clip, grad_latent_);
  } else {
    MatMulTransposeA(input_cache_, *gz, grad_latent_);
    ApplySteClip(latent_, cfg_.ternary.ste_clip, grad_latent_);
  }
  // Input gradient through the ternary adjacency; it stays empty in a network's first layer.
  if (needs_input_grad()) {
    if (cfg_.use_sparse_kernels) {
      SparseGradInput(*gz, sparse_, grad_input_);
    } else {
      MatMulTransposeB(*gz, Adjacency(), grad_input_);
    }
  }
  // The optimizer steps the latent weights right after Backward, so the ternarization
  // computed for this step is about to go stale.
  InvalidateTernaryCache();
  return grad_input_;
}

void NeuroCLayer::CollectParams(std::vector<ParamRef>& out) {
  out.push_back({&latent_, &grad_latent_, Name() + ".latent"});
  if (cfg_.use_per_neuron_scale) {
    out.push_back({&scale_, &grad_scale_, Name() + ".scale"});
  }
  out.push_back({&bias_, &grad_bias_, Name() + ".bias"});
}

std::string NeuroCLayer::Name() const {
  return std::string(cfg_.use_per_neuron_scale ? "neuroc" : "tnn") + "[" +
         std::to_string(in_dim()) + "x" + std::to_string(out_dim()) + "]";
}

size_t NeuroCLayer::DeployedParameterCount() const {
  // Deployed cost: nonzero adjacency entries + per-neuron (scale and bias).
  const size_t per_neuron = cfg_.use_per_neuron_scale ? 2 : 1;
  return NonZeroCount() + per_neuron * out_dim();
}

// ---------------------------------------------------------------------------
// FixedAdjacencyLayer
// ---------------------------------------------------------------------------

FixedAdjacencyLayer::FixedAdjacencyLayer(size_t in_dim, size_t out_dim, Rng& rng,
                                         FixedAdjacencyConfig cfg)
    : cfg_(cfg),
      adjacency_({in_dim, out_dim}),
      scale_({size_t{1}, out_dim}),
      bias_({size_t{1}, out_dim}),
      grad_scale_({size_t{1}, out_dim}),
      grad_bias_({size_t{1}, out_dim}) {
  switch (cfg_.strategy) {
    case AdjacencyStrategy::kRandom: {
      for (float& a : adjacency_.flat()) {
        if (rng.NextBool(cfg_.density)) {
          a = rng.NextBool(0.5) ? 1.0f : -1.0f;
        }
      }
      break;
    }
    case AdjacencyStrategy::kConstrainedRandom: {
      const size_t fan_in = std::min(cfg_.fan_in, in_dim);
      std::vector<size_t> pool(in_dim);
      for (size_t i = 0; i < in_dim; ++i) {
        pool[i] = i;
      }
      for (size_t j = 0; j < out_dim; ++j) {
        rng.Shuffle(pool);
        for (size_t k = 0; k < fan_in; ++k) {
          adjacency_.at(pool[k], j) = rng.NextBool(0.5) ? 1.0f : -1.0f;
        }
      }
      break;
    }
    case AdjacencyStrategy::kSpatialLocal: {
      // Assign each output neuron a receptive-field center (evenly spread over the input
      // raster, mimicking a convolutional local pattern) and connect the window around it.
      const int w = cfg_.image_width > 0 ? cfg_.image_width : static_cast<int>(in_dim);
      const int h = static_cast<int>(in_dim) / w;
      NEUROC_CHECK(w * h == static_cast<int>(in_dim));
      for (size_t j = 0; j < out_dim; ++j) {
        const double t = (static_cast<double>(j) + 0.5) / static_cast<double>(out_dim);
        // Space centers along a grid-filling order with a random perturbation.
        int cx = static_cast<int>(t * w * 997.0) % w;
        int cy = (static_cast<int>(t * h * 1009.0) + static_cast<int>(rng.NextBounded(3))) % h;
        cx = std::clamp(cx, 0, w - 1);
        cy = std::clamp(cy, 0, h - 1);
        for (int dy = -cfg_.window_radius; dy <= cfg_.window_radius; ++dy) {
          for (int dx = -cfg_.window_radius; dx <= cfg_.window_radius; ++dx) {
            const int x = cx + dx;
            const int y = cy + dy;
            if (x < 0 || x >= w || y < 0 || y >= h) {
              continue;
            }
            adjacency_.at(static_cast<size_t>(y) * w + x, j) =
                rng.NextBool(0.5) ? 1.0f : -1.0f;
          }
        }
      }
      break;
    }
  }
  const float init_scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
  scale_.Fill(init_scale);
}

const Tensor& FixedAdjacencyLayer::Forward(const Tensor& input, bool training) {
  (void)training;  // only scale/bias train, so no activation cache is needed
  NEUROC_CHECK(input.rank() == 2 && input.cols() == adjacency_.rows());
  MatMul(input, adjacency_, presum_);
  ScaleColumns(presum_, scale_, output_);
  AddRowBias(output_, bias_.flat());
  return output_;
}

const Tensor& FixedAdjacencyLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(output_));
  ColumnSums(grad_output, grad_bias_.flat());
  GradScale(grad_output, presum_, grad_scale_);
  if (needs_input_grad()) {  // stays empty in a network's first layer
    Tensor gz;
    ScaleColumns(grad_output, scale_, gz);
    MatMulTransposeB(gz, adjacency_, grad_input_);
  }
  return grad_input_;
}

void FixedAdjacencyLayer::CollectParams(std::vector<ParamRef>& out) {
  out.push_back({&scale_, &grad_scale_, Name() + ".scale"});
  out.push_back({&bias_, &grad_bias_, Name() + ".bias"});
}

std::string FixedAdjacencyLayer::Name() const {
  const char* tag = "?";
  switch (cfg_.strategy) {
    case AdjacencyStrategy::kRandom:
      tag = "random";
      break;
    case AdjacencyStrategy::kConstrainedRandom:
      tag = "constrained";
      break;
    case AdjacencyStrategy::kSpatialLocal:
      tag = "spatial";
      break;
  }
  return std::string("fixed-adj[") + tag + "]";
}

size_t FixedAdjacencyLayer::NonZeroCount() const {
  size_t n = 0;
  for (float a : adjacency_.flat()) {
    if (a != 0.0f) {
      ++n;
    }
  }
  return n;
}

size_t FixedAdjacencyLayer::DeployedParameterCount() const {
  return NonZeroCount() + 2 * adjacency_.cols();
}

}  // namespace neuroc
