// Parity tests for the sparse ternary training kernels.
//
// The contract (sparse_kernels.h) is bit-exactness: each sparse kernel accumulates every
// output element in the dense reference's reduction order, so results are EXPECT_EQ-equal
// on the raw bit patterns — across densities, odd shapes, and any thread-pool size. These
// tests also pin the structural invariants of SparseTernaryMatrix (the row and column views
// must describe the same matrix), the exactness of the threshold selection, and end-to-end
// training determinism: sparse-vs-dense kernels and 1-vs-4 threads must produce identical
// loss histories, and the trained state must match a digest pinned across code changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/dataset.h"
#include "src/tensor/matrix_ops.h"
#include "src/train/network.h"
#include "src/train/sparse_kernels.h"
#include "src/train/ternary.h"
#include "src/train/trainer.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::GlobalThreadsGuard;

Tensor RandomTensor(size_t rows, size_t cols, Rng& rng, double zero_fraction = 0.0) {
  Tensor t({rows, cols});
  for (float& v : t.flat()) {
    v = rng.NextBool(zero_fraction) ? 0.0f : rng.NextGaussian(0.0f, 1.0f);
  }
  return t;
}

// Bit-for-bit equality: distinguishes +0.0 from -0.0 and would catch any reassociated
// rounding, which EXPECT_FLOAT_EQ (and even EXPECT_EQ on floats) would not.
void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  const float* ad = a.data();
  const float* bd = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(ad[i]), std::bit_cast<uint32_t>(bd[i]))
        << what << " diverges at flat index " << i << ": " << ad[i] << " vs " << bd[i];
  }
}

float ThresholdFor(const Tensor& latent, float density) {
  if (density >= 1.0f) {
    return 0.0f;  // Gaussian latents are never exactly 0, so t=0 keeps every entry
  }
  TernaryConfig cfg;
  cfg.target_density = density;
  return TernaryThreshold(latent, cfg);
}

struct Shape {
  size_t in, out, batch;
};

// 256×128 is the paper's first layer; 17×13 batch 5 exercises odd sizes (row-block and
// batch-pairing tails in every kernel).
const Shape kShapes[] = {{256, 128, 64}, {17, 13, 5}, {33, 7, 9}};
const float kDensities[] = {0.05f, 0.3f, 1.0f};

TEST(SparseKernelsTest, ForwardMatchesDenseBitForBit) {
  GlobalThreadsGuard guard;
  Rng rng(42);
  for (const Shape& s : kShapes) {
    for (float density : kDensities) {
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      const float t = ThresholdFor(latent, density);
      Tensor dense;
      Ternarize(latent, t, dense);
      const SparseTernaryMatrix sparse = SparseTernaryMatrix::FromLatent(latent, t);
      // Inputs with exact zeros, like ReLU activations / empty pixels.
      const Tensor x = RandomTensor(s.batch, s.in, rng, 0.4);
      Tensor ref, got;
      MatMul(x, dense, ref);
      for (unsigned threads : {1u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        SparseForward(x, sparse, got);
        ExpectBitEqual(got, ref, "SparseForward");
      }
    }
  }
}

TEST(SparseKernelsTest, GradInputMatchesDenseBitForBit) {
  GlobalThreadsGuard guard;
  Rng rng(43);
  for (const Shape& s : kShapes) {
    for (float density : kDensities) {
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      const float t = ThresholdFor(latent, density);
      Tensor dense;
      Ternarize(latent, t, dense);
      const SparseTernaryMatrix sparse = SparseTernaryMatrix::FromLatent(latent, t);
      const Tensor gz = RandomTensor(s.batch, s.out, rng);
      Tensor ref, got;
      MatMulTransposeB(gz, dense, ref);
      for (unsigned threads : {1u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        SparseGradInput(gz, sparse, got);
        ExpectBitEqual(got, ref, "SparseGradInput");
      }
    }
  }
}

TEST(SparseKernelsTest, GradLatentMatchesDenseBitForBit) {
  GlobalThreadsGuard guard;
  Rng rng(44);
  // Unit-Gaussian latents: about a third exceed the clip and must come out as +0.0.
  const float clip = 1.0f;
  for (const Shape& s : kShapes) {
    // Activation zeros are what the kernel skips; include a fully dense x as well.
    for (double zero_fraction : {0.0, 0.5}) {
      const Tensor x = RandomTensor(s.batch, s.in, rng, zero_fraction);
      const Tensor gz = RandomTensor(s.batch, s.out, rng);
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      Tensor ref, got;
      MatMulTransposeA(x, gz, ref);
      ApplySteClip(latent, clip, ref);
      for (unsigned threads : {1u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        SparseGradLatent(x, gz, latent, clip, got);
        ExpectBitEqual(got, ref, "SparseGradLatent");
      }
    }
  }
}

// The threshold is the exact (1 - density) order statistic of |W| — what std::nth_element
// over the magnitudes returns — at any worker count. Besides Gaussian latents, the cases
// include many tied magnitudes and signed zeros, and a latent large enough that the
// selection splits into several blocks.
TEST(SparseKernelsTest, ThresholdIsTheExactOrderStatistic) {
  GlobalThreadsGuard guard;
  Rng rng(49);
  std::vector<Tensor> latents;
  latents.push_back(RandomTensor(17, 13, rng));
  latents.push_back(RandomTensor(784, 256, rng));
  Tensor ties = RandomTensor(400, 200, rng, 0.3);
  for (float& v : ties.flat()) {
    v = v == 0.0f ? (rng.NextBool(0.5) ? -0.0f : 0.0f) : std::round(v * 4.0f) / 4.0f;
  }
  latents.push_back(ties);
  for (const Tensor& latent : latents) {
    std::vector<float> mags;
    for (float v : latent.flat()) {
      mags.push_back(std::fabs(v));
    }
    for (float density : {0.01f, 0.12f, 0.5f, 0.97f}) {
      TernaryConfig cfg;
      cfg.target_density = density;
      const size_t k = std::min(latent.size() - 1,
                                static_cast<size_t>((1.0f - density) *
                                                    static_cast<float>(latent.size())));
      std::vector<float> sorted = mags;
      std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(k),
                       sorted.end());
      for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        EXPECT_EQ(std::bit_cast<uint32_t>(TernaryThreshold(latent, cfg)),
                  std::bit_cast<uint32_t>(sorted[k]))
            << latent.rows() << "x" << latent.cols() << " density " << density << ", "
            << threads << " threads";
      }
    }
  }
}

TEST(SparseKernelsTest, FromLatentEqualsTernarizeThenFromDense) {
  Rng rng(45);
  for (const Shape& s : kShapes) {
    for (float density : kDensities) {
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      const float t = ThresholdFor(latent, density);
      Tensor dense;
      Ternarize(latent, t, dense);
      const SparseTernaryMatrix a = SparseTernaryMatrix::FromLatent(latent, t);
      const SparseTernaryMatrix b = SparseTernaryMatrix::FromDense(dense);
      EXPECT_EQ(a.rows, b.rows);
      EXPECT_EQ(a.cols, b.cols);
      EXPECT_EQ(a.ptr, b.ptr);
      EXPECT_EQ(a.idx, b.idx);
      EXPECT_EQ(a.sign, b.sign);
      EXPECT_EQ(a.row_ptr, b.row_ptr);
      EXPECT_EQ(a.row_idx, b.row_idx);
      EXPECT_EQ(a.row_sign, b.row_sign);
      EXPECT_EQ(a.NonZeroCount(), CountNonZero(latent, t));
    }
  }
}

TEST(SparseKernelsTest, ToDenseRoundTrips) {
  Rng rng(46);
  for (const Shape& s : kShapes) {
    const Tensor latent = RandomTensor(s.in, s.out, rng);
    const float t = ThresholdFor(latent, 0.3f);
    Tensor dense;
    Ternarize(latent, t, dense);
    Tensor round_trip;
    SparseTernaryMatrix::FromDense(dense).ToDense(round_trip);
    ExpectBitEqual(round_trip, dense, "ToDense round trip");
  }
}

TEST(SparseKernelsTest, AssignFromLatentReusesObjectCorrectly) {
  Rng rng(47);
  // Rebuild the same object across different shapes and densities (larger → smaller →
  // larger); every rebuild must be indistinguishable from a fresh FromLatent.
  SparseTernaryMatrix reused;
  for (const Shape& s : {Shape{64, 32, 1}, Shape{17, 13, 1}, Shape{128, 96, 1}}) {
    for (float density : kDensities) {
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      const float t = ThresholdFor(latent, density);
      reused.AssignFromLatent(latent, t);
      const SparseTernaryMatrix fresh = SparseTernaryMatrix::FromLatent(latent, t);
      EXPECT_EQ(reused.ptr, fresh.ptr);
      EXPECT_EQ(reused.idx, fresh.idx);
      EXPECT_EQ(reused.sign, fresh.sign);
      EXPECT_EQ(reused.row_ptr, fresh.row_ptr);
      EXPECT_EQ(reused.row_idx, fresh.row_idx);
      EXPECT_EQ(reused.row_sign, fresh.row_sign);
    }
  }
}

// Reconstructs the dense matrix from the column view and from the row view; both must
// equal `dense` (the Ternarize reference) bit for bit, with ascending indices in every
// column and row and every sign ±1.
void ExpectViewsDescribe(const SparseTernaryMatrix& a, const Tensor& dense) {
  ASSERT_EQ(a.ptr.size(), a.cols + 1);
  ASSERT_EQ(a.row_ptr.size(), a.rows + 1);
  Tensor from_cols({a.rows, a.cols});
  from_cols.Fill(0.0f);
  for (size_t j = 0; j < a.cols; ++j) {
    for (uint32_t k = a.ptr[j]; k < a.ptr[j + 1]; ++k) {
      if (k > a.ptr[j]) {
        EXPECT_LT(a.idx[k - 1], a.idx[k]) << "column " << j << " not ascending";
      }
      EXPECT_TRUE(a.sign[k] == 1.0f || a.sign[k] == -1.0f) << "column " << j;
      from_cols.at(a.idx[k], j) = a.sign[k];
    }
  }
  Tensor from_rows({a.rows, a.cols});
  from_rows.Fill(0.0f);
  for (size_t i = 0; i < a.rows; ++i) {
    for (uint32_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      if (k > a.row_ptr[i]) {
        EXPECT_LT(a.row_idx[k - 1], a.row_idx[k]) << "row " << i << " not ascending";
      }
      EXPECT_TRUE(a.row_sign[k] == 1.0f || a.row_sign[k] == -1.0f) << "row " << i;
      from_rows.at(i, a.row_idx[k]) = a.row_sign[k];
    }
  }
  ExpectBitEqual(from_cols, dense, "column view vs Ternarize");
  ExpectBitEqual(from_rows, dense, "row view vs Ternarize");
  EXPECT_EQ(a.ptr.back(), a.NonZeroCount());
  EXPECT_EQ(a.row_ptr.back(), a.NonZeroCount());
  EXPECT_NEAR(a.Density(),
              static_cast<double>(a.NonZeroCount()) / static_cast<double>(a.rows * a.cols),
              1e-12);
}

TEST(SparseKernelsTest, ColumnAndRowViewsDescribeTheSameMatrix) {
  GlobalThreadsGuard guard;
  Rng rng(48);
  // 600×200 splits the parallel row-view build into several chunks at 4 threads.
  for (const Shape& s : {Shape{33, 21, 1}, Shape{600, 200, 1}}) {
    for (unsigned threads : {1u, 4u}) {
      ThreadPool::SetGlobalThreads(threads);
      const Tensor latent = RandomTensor(s.in, s.out, rng);
      const float t = ThresholdFor(latent, 0.3f);
      Tensor dense;
      Ternarize(latent, t, dense);
      ExpectViewsDescribe(SparseTernaryMatrix::FromLatent(latent, t), dense);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the properties the bench and tests rely on.
// ---------------------------------------------------------------------------

Dataset SmallDataset(size_t n, uint64_t seed, int side = 8) {
  Dataset ds;
  ds.name = "parity-synthetic";
  ds.width = side;
  ds.height = side;
  ds.channels = 1;
  ds.num_classes = 10;
  ds.images = Tensor({n, static_cast<size_t>(side * side)});
  ds.labels.resize(n);
  Rng rng(seed);
  for (float& v : ds.images.flat()) {
    v = rng.NextBool(0.5) ? 0.0f : rng.NextUniform(0.0f, 1.0f);
  }
  for (int& l : ds.labels) {
    l = static_cast<int>(rng.NextBounded(10));
  }
  return ds;
}

TrainResult TrainSmall(bool sparse, unsigned threads) {
  ThreadPool::SetGlobalThreads(threads);
  const Dataset train = SmallDataset(256, 5);
  const Dataset test = SmallDataset(64, 6);
  NeuroCSpec spec;
  spec.hidden = {32};
  spec.layer.ternary.target_density = 0.2f;
  spec.layer.use_sparse_kernels = sparse;
  Rng rng(9);
  Network net = BuildNeuroC(64, 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.learning_rate = 5e-3f;
  return Train(net, train, test, cfg);
}

void ExpectIdenticalHistories(const TrainResult& a, const TrainResult& b, const char* what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(std::bit_cast<uint32_t>(a.history[e].train_loss),
              std::bit_cast<uint32_t>(b.history[e].train_loss))
        << what << ": train_loss diverges at epoch " << e;
    EXPECT_EQ(a.history[e].train_accuracy, b.history[e].train_accuracy)
        << what << ": epoch " << e;
    EXPECT_EQ(a.history[e].test_accuracy, b.history[e].test_accuracy)
        << what << ": epoch " << e;
  }
}

TEST(SparseKernelsTest, TrainingLossCurveIsThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const TrainResult t1 = TrainSmall(/*sparse=*/true, /*threads=*/1);
  const TrainResult t4 = TrainSmall(/*sparse=*/true, /*threads=*/4);
  ExpectIdenticalHistories(t1, t4, "sparse 1-vs-4 threads");
}

TEST(SparseKernelsTest, SparseAndDenseTrainersProduceIdenticalLossCurves) {
  GlobalThreadsGuard guard;
  const TrainResult dense = TrainSmall(/*sparse=*/false, /*threads=*/1);
  const TrainResult sparse = TrainSmall(/*sparse=*/true, /*threads=*/4);
  ExpectIdenticalHistories(dense, sparse, "dense-1t vs sparse-4t");
}

// FNV-1a over the raw bits of every trained parameter (in Params() order) and of every
// epoch's training loss.
uint64_t TrainedStateDigest(Network& net, const TrainResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](float v) {
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const ParamRef& p : net.Params()) {
    for (float v : p.value->flat()) {
      mix(v);
    }
  }
  for (const EpochStats& e : result.history) {
    mix(e.train_loss);
  }
  return h;
}

// Pins the trained state of a fixed small run. Host-speed work on the training kernels
// (vectorization, parallel ternarization, skipped input gradients) must not move a single
// float; this digest fails if any weight or loss bit changes. The 576-wide first layer makes
// the threshold selection span two blocks and the view build split into chunks. The pinned
// value assumes IEEE single precision without FMA contraction (x86-64 without -march, or
// -ffp-contract=off); the _mt4 re-run checks it with a 4-worker pool.
TEST(SparseKernelsTest, TrainedStateMatchesPinnedDigest) {
  const Dataset train = SmallDataset(256, 11, /*side=*/24);
  const Dataset test = SmallDataset(64, 12, /*side=*/24);
  NeuroCSpec spec;
  spec.hidden = {128, 32};
  spec.layer.ternary.target_density = 0.12f;
  Rng rng(13);
  Network net = BuildNeuroC(train.input_dim(), 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  cfg.lr_decay = 0.85f;
  const TrainResult result = Train(net, train, test, cfg);
  const uint64_t digest = TrainedStateDigest(net, result);
  EXPECT_EQ(digest, 0xec6666e02a6311bdull) << "trained-state digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace neuroc
