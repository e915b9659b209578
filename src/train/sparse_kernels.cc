#include "src/train/sparse_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace neuroc {

namespace {

void EnsureShape(Tensor& t, size_t rows, size_t cols) {
  if (t.rank() != 2 || t.rows() != rows || t.cols() != cols) {
    t = Tensor({rows, cols});
  }
}

// Batch rows processed together per column walk, so one pass over the index/sign stream
// feeds several rows (the stream is the memory-bound part at low density).
constexpr size_t kRowBlock = 8;

// Latent entries per chunk of the view build's parallel scans. A scan costs about one
// compare per entry, so a paper-scale first layer (784×256) splits into a handful of chunks
// and the small layers build in-line.
constexpr size_t kScanChunkEntries = size_t{1} << 15;

// Stores the keep flag (w > t or w < -t) of every entry of rows [i0, i1) and each row's
// count at row_ptr[i + 1]. A free function, so the bounds are locals: in a lambda they would
// be read through the closure, which a byte store may alias, and the flag loop would not
// vectorize.
void FlagRows(const float* data, size_t cols, float threshold, uint8_t* keep,
              uint32_t* row_ptr, size_t i0, size_t i1) {
  for (size_t i = i0; i < i1; ++i) {
    const float* row = data + i * cols;
    uint8_t* krow = keep + i * cols;
    uint32_t count = 0;
    for (size_t j = 0; j < cols; ++j) {
      krow[j] = static_cast<uint8_t>((row[j] > threshold) | (row[j] < -threshold));
      count += krow[j];
    }
    row_ptr[i + 1] = count;
  }
}

// Fills `m` in place; all buffers are assign()/resize()d so repeated rebuilds into the same
// object reuse capacity instead of reallocating. With threshold >= 0 a kept entry has the
// sign of w.
void BuildInto(SparseTernaryMatrix& m, size_t rows, size_t cols, const float* data,
               float threshold) {
  NEUROC_CHECK(threshold >= 0.0f);
  m.rows = rows;
  m.cols = cols;
  // Row view, in parallel by rows. The first pass stores a keep flag per entry (it
  // vectorizes) and counts each row; after a prefix sum over the counts, the second pass
  // fills every row at its final offset. Chunks own disjoint rows, so the view is the same
  // for any worker count.
  thread_local std::vector<uint8_t> keep_storage;
  keep_storage.resize(rows * cols);
  uint8_t* keep = keep_storage.data();
  m.row_ptr.assign(rows + 1, 0);
  uint32_t* row_ptr = m.row_ptr.data();
  const size_t grain = std::max<size_t>(1, kScanChunkEntries / std::max<size_t>(1, cols));
  ParallelFor(0, rows, grain, [&](size_t i0, size_t i1) {
    FlagRows(data, cols, threshold, keep, row_ptr, i0, i1);
  });
  for (size_t i = 0; i < rows; ++i) {
    row_ptr[i + 1] += row_ptr[i];
  }
  const size_t nnz = row_ptr[rows];
  m.row_idx.resize(nnz);
  m.row_sign.resize(nnz);
  uint32_t* row_idx = m.row_idx.data();
  float* row_sign = m.row_sign.data();
  ParallelFor(0, rows, grain, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      const float* row = data + i * cols;
      const uint8_t* krow = keep + i * cols;
      // Branch-free compaction: every entry is stored at the cursor, which advances only
      // past kept entries. The loop stops once the row's count is reached, so no store
      // lands in the next row's slots (which another chunk may own).
      uint32_t k = row_ptr[i];
      const uint32_t end = row_ptr[i + 1];
      for (size_t j = 0; j < cols && k < end; ++j) {
        row_idx[k] = static_cast<uint32_t>(j);
        row_sign[k] = std::copysign(1.0f, row[j]);
        k += krow[j];
      }
    }
  });
  // Column view: the O(nnz) transpose of the row view. Scanning rows in ascending order
  // appends ascending row indices to every column.
  m.ptr.assign(cols + 1, 0);
  for (size_t k = 0; k < nnz; ++k) {
    ++m.ptr[row_idx[k] + 1];
  }
  for (size_t j = 0; j < cols; ++j) {
    m.ptr[j + 1] += m.ptr[j];
  }
  m.idx.resize(nnz);
  m.sign.resize(nnz);
  thread_local std::vector<uint32_t> cursor;
  cursor.assign(m.ptr.begin(), m.ptr.end() - 1);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const uint32_t dst = cursor[row_idx[k]]++;
      m.idx[dst] = static_cast<uint32_t>(i);
      m.sign[dst] = row_sign[k];
    }
  }
}

}  // namespace

SparseTernaryMatrix SparseTernaryMatrix::FromLatent(const Tensor& latent, float threshold) {
  SparseTernaryMatrix m;
  m.AssignFromLatent(latent, threshold);
  return m;
}

void SparseTernaryMatrix::AssignFromLatent(const Tensor& latent, float threshold) {
  NEUROC_CHECK(latent.rank() == 2);
  BuildInto(*this, latent.rows(), latent.cols(), latent.data(), threshold);
}

SparseTernaryMatrix SparseTernaryMatrix::FromDense(const Tensor& adjacency) {
  for ([[maybe_unused]] const float a : adjacency.flat()) {
    NEUROC_DCHECK(a == 0.0f || a == 1.0f || a == -1.0f);
  }
  // Entries in {-1, 0, +1} ternarize to themselves at threshold 0.
  return FromLatent(adjacency, 0.0f);
}

void SparseTernaryMatrix::ToDense(Tensor& out) const {
  EnsureShape(out, rows, cols);
  out.Fill(0.0f);
  for (size_t j = 0; j < cols; ++j) {
    for (uint32_t k = ptr[j]; k < ptr[j + 1]; ++k) {
      out.at(idx[k], j) = sign[k];
    }
  }
}

void SparseForward(const Tensor& x, const SparseTernaryMatrix& a, Tensor& out) {
  NEUROC_CHECK(x.rank() == 2 && x.cols() == a.rows);
  const size_t n = x.rows();
  const size_t in = a.rows;
  const size_t cols = a.cols;
  EnsureShape(out, n, cols);
  const float* xd = x.data();
  float* od = out.data();
  ParallelFor(0, n, GrainForOps(a.idx.size()), [&](size_t rb0, size_t rb1) {
    for (size_t rb = rb0; rb < rb1; rb += kRowBlock) {
      const size_t nb = std::min(kRowBlock, rb1 - rb);
      for (size_t j = 0; j < cols; ++j) {
        float acc[kRowBlock] = {0.0f};
        for (uint32_t k = a.ptr[j]; k < a.ptr[j + 1]; ++k) {
          const size_t i = a.idx[k];
          const float s = a.sign[k];
          for (size_t t = 0; t < nb; ++t) {
            acc[t] += s * xd[(rb + t) * in + i];
          }
        }
        for (size_t t = 0; t < nb; ++t) {
          od[(rb + t) * cols + j] = acc[t];
        }
      }
    }
  });
}

void SparseGradInput(const Tensor& gz, const SparseTernaryMatrix& a, Tensor& out) {
  NEUROC_CHECK(gz.rank() == 2 && gz.cols() == a.cols);
  const size_t n = gz.rows();
  const size_t in = a.rows;
  const size_t cols = a.cols;
  EnsureShape(out, n, in);
  const float* gd = gz.data();
  float* od = out.data();
  ParallelFor(0, n, GrainForOps(a.row_idx.size()), [&](size_t rb0, size_t rb1) {
    for (size_t rb = rb0; rb < rb1; rb += kRowBlock) {
      const size_t nb = std::min(kRowBlock, rb1 - rb);
      // Gather along the row-major view: out[r, i] accumulates its contributions in
      // ascending j, the order the dense transpose-B reference reduces in.
      for (size_t i = 0; i < in; ++i) {
        float acc[kRowBlock] = {0.0f};
        for (uint32_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
          const size_t j = a.row_idx[k];
          const float s = a.row_sign[k];
          for (size_t t = 0; t < nb; ++t) {
            acc[t] += s * gd[(rb + t) * cols + j];
          }
        }
        for (size_t t = 0; t < nb; ++t) {
          od[(rb + t) * in + i] = acc[t];
        }
      }
    }
  });
}

void SparseGradLatent(const Tensor& x, const Tensor& gz, const Tensor& latent, float clip,
                      Tensor& out) {
  NEUROC_CHECK(x.rank() == 2 && gz.rank() == 2);
  NEUROC_CHECK(x.rows() == gz.rows());
  NEUROC_CHECK(latent.rank() == 2 && latent.rows() == x.cols() && latent.cols() == gz.cols());
  const size_t n = x.rows();
  const size_t in = x.cols();
  const size_t cols = gz.cols();
  EnsureShape(out, in, cols);
  const float* xd = x.data();
  const float* gd = gz.data();
  const float* wd = latent.data();
  float* od = out.data();
  ParallelFor(0, in, GrainForOps(n * cols), [&](size_t ib0, size_t ib1) {
    for (size_t ib = ib0; ib < ib1; ib += kRowBlock) {
      const size_t nb = std::min(kRowBlock, ib1 - ib);
      std::fill(od + ib * cols, od + (ib + nb) * cols, 0.0f);
      // Batch rows are consumed in pairs so each output row is loaded/stored once per two
      // contributions. The accumulator keeps two separate dependent adds (t += v0*g0;
      // t += v1*g1), which is the exact sequential reduction order of the dense reference —
      // only the redundant memory traffic is fused, not the arithmetic.
      for (size_t r = 0; r + 1 < n; r += 2) {
        const float* __restrict g0 = gd + r * cols;
        const float* __restrict g1 = gd + (r + 1) * cols;
        const float* x0 = xd + r * in + ib;
        const float* x1 = xd + (r + 1) * in + ib;
        for (size_t t = 0; t < nb; ++t) {
          const float v0 = x0[t];
          const float v1 = x1[t];
          float* __restrict orow = od + (ib + t) * cols;
          if (v0 != 0.0f && v1 != 0.0f) {
            for (size_t j = 0; j < cols; ++j) {
              float acc = orow[j];
              acc += v0 * g0[j];
              acc += v1 * g1[j];
              orow[j] = acc;
            }
          } else if (v0 != 0.0f) {
            for (size_t j = 0; j < cols; ++j) {
              orow[j] += v0 * g0[j];
            }
          } else if (v1 != 0.0f) {
            for (size_t j = 0; j < cols; ++j) {
              orow[j] += v1 * g1[j];
            }
          }
          // both zero: ReLU/pixel zeros — the data-side sparsity
        }
      }
      if (n % 2 != 0) {
        const size_t r = n - 1;
        const float* __restrict grow = gd + r * cols;
        const float* xrow = xd + r * in + ib;
        for (size_t t = 0; t < nb; ++t) {
          const float v = xrow[t];
          if (v == 0.0f) {
            continue;
          }
          float* __restrict orow = od + (ib + t) * cols;
          for (size_t j = 0; j < cols; ++j) {
            orow[j] += v * grow[j];
          }
        }
      }
      // STE clip epilogue: the block's gradient rows are final and still in cache.
      for (size_t t = 0; t < nb; ++t) {
        float* __restrict orow = od + (ib + t) * cols;
        const float* __restrict wrow = wd + (ib + t) * cols;
        for (size_t j = 0; j < cols; ++j) {
          orow[j] = std::fabs(wrow[j]) > clip ? 0.0f : orow[j];
        }
      }
    }
  });
}

}  // namespace neuroc
