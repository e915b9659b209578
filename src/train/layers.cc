#include "src/train/layers.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/tensor/matrix_ops.h"

namespace neuroc {

// ---------------------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------------------

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng& rng)
    : weights_({in_dim, out_dim}),
      bias_({size_t{1}, out_dim}),
      grad_weights_({in_dim, out_dim}),
      grad_bias_({size_t{1}, out_dim}) {
  // He initialization, appropriate for the ReLU networks used throughout.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_dim));
  for (float& w : weights_.flat()) {
    w = rng.NextGaussian(0.0f, stddev);
  }
}

const Tensor& DenseLayer::Forward(const Tensor& input, bool training) {
  (void)training;
  NEUROC_CHECK(input.rank() == 2 && input.cols() == weights_.rows());
  input_cache_ = input;
  MatMul(input, weights_, output_);
  AddRowBias(output_, bias_.flat());
  return output_;
}

const Tensor& DenseLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(output_));
  MatMulTransposeA(input_cache_, grad_output, grad_weights_);
  ColumnSums(grad_output, grad_bias_.flat());
  if (needs_input_grad()) {  // stays empty in a network's first layer
    MatMulTransposeB(grad_output, weights_, grad_input_);
  }
  return grad_input_;
}

void DenseLayer::CollectParams(std::vector<ParamRef>& out) {
  out.push_back({&weights_, &grad_weights_, Name() + ".W"});
  out.push_back({&bias_, &grad_bias_, Name() + ".b"});
}

std::string DenseLayer::Name() const {
  return "dense[" + std::to_string(in_dim()) + "x" + std::to_string(out_dim()) + "]";
}

size_t DenseLayer::DeployedParameterCount() const {
  return weights_.size() + bias_.size();
}

// ---------------------------------------------------------------------------
// ReluLayer
// ---------------------------------------------------------------------------

namespace {

// Free functions so the __restrict qualifiers survive (they would be lost through a lambda
// capture) and the compiler emits branch-free vector code.
void ReluChunk(const float* __restrict src, float* __restrict dst, size_t i0, size_t i1) {
  for (size_t i = i0; i < i1; ++i) {
    dst[i] = src[i] < 0.0f ? 0.0f : src[i];
  }
}

void ReluGradChunk(const float* __restrict y, const float* __restrict go, float* __restrict g,
                   size_t i0, size_t i1) {
  for (size_t i = i0; i < i1; ++i) {
    g[i] = y[i] <= 0.0f ? 0.0f : go[i];
  }
}

}  // namespace

const Tensor& ReluLayer::Forward(const Tensor& input, bool training) {
  (void)training;
  if (!output_.SameShape(input)) {
    output_ = Tensor(input.shape());
  }
  // Single fused pass (no copy-then-clamp); ReluChunk keeps the exact semantics of the
  // original in-place loop (negative zero passes through untouched).
  const float* src = input.data();
  float* dst = output_.data();
  ParallelFor(0, input.size(), 8192,
              [&](size_t i0, size_t i1) { ReluChunk(src, dst, i0, i1); });
  return output_;
}

const Tensor& ReluLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(output_));
  if (!grad_input_.SameShape(grad_output)) {
    grad_input_ = Tensor(grad_output.shape());
  }
  const float* y = output_.data();
  const float* go = grad_output.data();
  float* g = grad_input_.data();
  ParallelFor(0, output_.size(), 8192,
              [&](size_t i0, size_t i1) { ReluGradChunk(y, go, g, i0, i1); });
  return grad_input_;
}

// ---------------------------------------------------------------------------
// DropoutLayer
// ---------------------------------------------------------------------------

DropoutLayer::DropoutLayer(float rate, Rng& rng) : rate_(rate), rng_(rng.Fork()) {
  NEUROC_CHECK(rate >= 0.0f && rate < 1.0f);
}

const Tensor& DropoutLayer::Forward(const Tensor& input, bool training) {
  output_ = input;
  if (!training || rate_ == 0.0f) {
    // Identity at inference; mask of ones so Backward stays consistent.
    mask_ = Tensor(input.shape());
    mask_.Fill(1.0f);
    return output_;
  }
  mask_ = Tensor(input.shape());
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  float* m = mask_.data();
  float* y = output_.data();
  for (size_t i = 0; i < output_.size(); ++i) {
    m[i] = rng_.NextBool(keep) ? scale : 0.0f;
    y[i] *= m[i];
  }
  return output_;
}

const Tensor& DropoutLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(mask_));
  grad_input_ = grad_output;
  const float* m = mask_.data();
  float* g = grad_input_.data();
  for (size_t i = 0; i < grad_input_.size(); ++i) {
    g[i] *= m[i];
  }
  return grad_input_;
}

std::string DropoutLayer::Name() const {
  return "dropout[" + std::to_string(rate_) + "]";
}

// ---------------------------------------------------------------------------
// BatchNorm1dLayer
// ---------------------------------------------------------------------------

BatchNorm1dLayer::BatchNorm1dLayer(size_t dim, float momentum, float epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_({size_t{1}, dim}),
      beta_({size_t{1}, dim}),
      grad_gamma_({size_t{1}, dim}),
      grad_beta_({size_t{1}, dim}),
      running_mean_({size_t{1}, dim}),
      running_var_({size_t{1}, dim}) {
  gamma_.Fill(1.0f);
  running_var_.Fill(1.0f);
}

const Tensor& BatchNorm1dLayer::Forward(const Tensor& input, bool training) {
  NEUROC_CHECK(input.rank() == 2 && input.cols() == gamma_.cols());
  const size_t n = input.rows();
  const size_t d = input.cols();
  output_ = input;
  x_hat_ = Tensor({n, d});
  batch_inv_std_ = Tensor({size_t{1}, d});
  for (size_t c = 0; c < d; ++c) {
    float mean, var;
    if (training) {
      double m = 0.0;
      for (size_t r = 0; r < n; ++r) {
        m += input.at(r, c);
      }
      mean = static_cast<float>(m / static_cast<double>(n));
      double v = 0.0;
      for (size_t r = 0; r < n; ++r) {
        const double dlt = input.at(r, c) - mean;
        v += dlt * dlt;
      }
      var = static_cast<float>(v / static_cast<double>(n));
      running_mean_[c] = momentum_ * running_mean_[c] + (1.0f - momentum_) * mean;
      running_var_[c] = momentum_ * running_var_[c] + (1.0f - momentum_) * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    batch_inv_std_[c] = inv_std;
    for (size_t r = 0; r < n; ++r) {
      const float xh = (input.at(r, c) - mean) * inv_std;
      x_hat_.at(r, c) = xh;
      output_.at(r, c) = gamma_[c] * xh + beta_[c];
    }
  }
  return output_;
}

const Tensor& BatchNorm1dLayer::Backward(const Tensor& grad_output) {
  NEUROC_CHECK(grad_output.SameShape(output_));
  const size_t n = grad_output.rows();
  const size_t d = grad_output.cols();
  grad_input_ = Tensor({n, d});
  for (size_t c = 0; c < d; ++c) {
    // Standard batch-norm backward over the training-batch statistics.
    double sum_g = 0.0, sum_gx = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum_g += grad_output.at(r, c);
      sum_gx += grad_output.at(r, c) * x_hat_.at(r, c);
    }
    // Backward overwrites gradients (one backward pass per optimizer step).
    grad_beta_[c] = static_cast<float>(sum_g);
    grad_gamma_[c] = static_cast<float>(sum_gx);
    const float inv_std = batch_inv_std_[c];
    const float gamma = gamma_[c];
    const float inv_n = 1.0f / static_cast<float>(n);
    for (size_t r = 0; r < n; ++r) {
      const float g = grad_output.at(r, c);
      grad_input_.at(r, c) =
          gamma * inv_std *
          (g - static_cast<float>(sum_g) * inv_n -
           x_hat_.at(r, c) * static_cast<float>(sum_gx) * inv_n);
    }
  }
  return grad_input_;
}

void BatchNorm1dLayer::CollectParams(std::vector<ParamRef>& out) {
  out.push_back({&gamma_, &grad_gamma_, Name() + ".gamma"});
  out.push_back({&beta_, &grad_beta_, Name() + ".beta"});
}

std::string BatchNorm1dLayer::Name() const {
  return "batchnorm[" + std::to_string(gamma_.cols()) + "]";
}

size_t BatchNorm1dLayer::DeployedParameterCount() const {
  // Deployed batch norm needs gamma, beta, mean and variance per feature — the paper's
  // argument for why BN-dependent TNNs are unsuitable for M0 deployment.
  return 4 * gamma_.cols();
}

}  // namespace neuroc
