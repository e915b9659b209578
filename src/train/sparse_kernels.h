// Sparse ternary kernels for the host-side training hot path.
//
// The deployment encodings (src/core/csc_encoding.*) exploit that the ternary adjacency
// A ∈ {-1,0,+1} is sparse: per output neuron they store a +1 index list and a -1 index list
// and accumulate z_j = Σ x[p+] − Σ x[p−] without multiplies. The trainer historically
// materialized A as a dense float tensor and ran a generic MatMul over it, multiplying by
// zeros for the 70–90% empty entries. SparseTernaryMatrix is the host's signed-index view of
// A: it is rebuilt once per optimizer step by NeuroCLayer (in parallel, see
// AssignFromLatent) and drives the forward and input-gradient kernels below.
//
// Bit-exactness contract: every kernel accumulates each output element in exactly the order
// the dense reference in src/tensor/matrix_ops.* uses (ascending reduction index, zeros
// skipped — skipping a ±0.0 contribution cannot change a float accumulator). The sparse and
// dense training paths therefore produce bit-identical results, and so does any worker count,
// because ParallelFor chunks only partition independent output elements. The loops vectorize
// (neuroc_train builds with GCC's dynamic vectorizer cost model) only across independent
// elements, never across a reduction. The parity tests in tests/sparse_kernels_test.cc
// assert this with EXPECT_EQ on the raw floats.

#ifndef NEUROC_SRC_TRAIN_SPARSE_KERNELS_H_
#define NEUROC_SRC_TRAIN_SPARSE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace neuroc {

// Signed-index view of a ternary [rows=in, cols=out] matrix, in two orders:
//   - the row-major view (row_*) — used by the input-gradient kernel, whose reduction runs
//     along matrix rows; a row view turns it into a sequential gather instead of a
//     zero-then-scatter over the output. It is built first, in parallel by rows;
//   - the column view (ptr/idx/sign), its O(nnz) transpose — used by the forward kernel,
//     because bit-parity with the dense reference requires accumulating +1 and -1 entries
//     interleaved in ascending index order, not Σpos first and Σneg second.
struct SparseTernaryMatrix {
  size_t rows = 0;  // input dimension
  size_t cols = 0;  // output neurons

  // Column view: column j's nonzeros are idx/sign[ptr[j] .. ptr[j+1]), ascending by index,
  // sign ∈ {+1.0f, -1.0f}.
  std::vector<uint32_t> ptr;  // [cols + 1]
  std::vector<uint32_t> idx;
  std::vector<float> sign;

  // Row view: row i's nonzeros are row_idx/row_sign[row_ptr[i] .. row_ptr[i+1]), ascending
  // by column — the reduction order of the dense transpose-B reference the input-gradient
  // kernel must bit-match.
  std::vector<uint32_t> row_ptr;  // [rows + 1]
  std::vector<uint32_t> row_idx;
  std::vector<float> row_sign;

  size_t NonZeroCount() const { return idx.size(); }
  bool empty() const { return cols == 0; }
  double Density() const {
    const size_t total = rows * cols;
    return total == 0 ? 0.0 : static_cast<double>(idx.size()) / static_cast<double>(total);
  }

  // Builds the view by thresholding latent weights at t >= 0: > t → +1, < -t → -1, else 0.
  // Equivalent to Ternarize(latent, t, dense) followed by FromDense(dense).
  static SparseTernaryMatrix FromLatent(const Tensor& latent, float threshold);

  // In-place FromLatent: rebuilds this view reusing existing buffer capacity. The trainer
  // calls this once per optimizer step, and after warm-up it allocates nothing. The row view
  // is counted and filled in parallel by rows, so the result is the same at any worker count.
  void AssignFromLatent(const Tensor& latent, float threshold);

  // Builds the view from an already-ternary dense matrix (entries in {-1, 0, +1}).
  static SparseTernaryMatrix FromDense(const Tensor& adjacency);

  // Materializes the dense {-1,0,+1} float form (shape [rows, cols]).
  void ToDense(Tensor& out) const;
};

// Forward pre-sums: out[r, j] = Σ_i A[i, j] * x[r, i] for a [n, rows] input batch.
// Bit-identical to MatMul(x, dense(A), out); parallel over batch rows.
void SparseForward(const Tensor& x, const SparseTernaryMatrix& a, Tensor& out);

// Input gradient: out[r, i] = Σ_j A[i, j] * gz[r, j] for a [n, cols] upstream gradient.
// Bit-identical to MatMulTransposeB(gz, dense(A), out); parallel over batch rows.
void SparseGradInput(const Tensor& gz, const SparseTernaryMatrix& a, Tensor& out);

// Latent (straight-through) gradient: out[i, j] = Σ_r x[r, i] * gz[r, j], then zeroed
// where |latent[i, j]| > clip (the STE clip, applied in each row block's epilogue while the
// block is still in cache). The latent gradient is dense by construction — zero adjacency
// entries still receive updates so connections can re-appear — but the kernel skips zero
// activations (ReLU outputs, empty pixels), which is where the sparsity of the *data* lives.
// Bit-identical to MatMulTransposeA(x, gz, out) followed by ApplySteClip(latent, clip, out);
// parallel over latent rows.
void SparseGradLatent(const Tensor& x, const Tensor& gz, const Tensor& latent, float clip,
                      Tensor& out);

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_SPARSE_KERNELS_H_
