// Sparse ternary-adjacency encodings (paper Sec. 4.2, Fig. 3).
//
// Every encoding stores, for each output neuron, the indices of its nonzero input connections
// split into a positive and a negative set, and must support inference traversal without
// matrix reconstruction. The four schemes trade decode simplicity against byte footprint:
//
//   kCsc    — standard CSC: absolute pointers [out+1] + absolute indices.
//   kDelta  — per-column counts + (first absolute index, then relative offsets).
//   kMixed  — per-column counts + absolute indices (stateless, smaller than CSC).
//   kBlock  — input split into blocks of <=256; per-block counts + block-local 8-bit
//             indices. The only scheme that guarantees 8-bit indices by construction.
//   kUnrolled — no stored indices at all: the adjacency is compiled into straight-line
//             Thumb (one signed add/sub per nonzero) by src/kernels. Sizes() reports the
//             marginal kernel-text bytes so the flash/cycles trade-off stays comparable.
//
// Each concrete encoding provides: a host reference traversal (Accumulate), exact byte-size
// accounting (Sizes), lossless decode back to the dense matrix (round-trip tested), a
// device serialization (Pack) consumed by the simulated Cortex-M0 kernels, and a textual
// description used to regenerate the paper's Fig. 3.

#ifndef NEUROC_SRC_CORE_ENCODING_H_
#define NEUROC_SRC_CORE_ENCODING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/ternary_matrix.h"

namespace neuroc {

enum class EncodingKind : uint8_t {
  kCsc = 0,
  kDelta = 1,
  kMixed = 2,
  kBlock = 3,
  kUnrolled = 4,
};

const char* EncodingKindName(EncodingKind kind);
inline constexpr EncodingKind kAllEncodingKinds[] = {
    EncodingKind::kCsc, EncodingKind::kDelta, EncodingKind::kMixed, EncodingKind::kBlock,
    EncodingKind::kUnrolled};

struct EncodingOptions {
  // kBlock only; must be in [1, 256]. The default is 255 rather than the paper's stated
  // upper bound of 256: a block of 255 inputs guarantees that *both* the block-local
  // indices and the per-column-per-block counts fit 8 bits, even for a column fully
  // connected within a block (a case learned clustered adjacencies do produce).
  size_t block_size = 255;
};

struct EncodingSizeBreakdown {
  size_t metadata_bytes = 0;  // pointers / counts
  size_t index_bytes = 0;     // index or delta streams
  size_t total() const { return metadata_bytes + index_bytes; }
};

// Location of one serialized array inside a device blob.
struct DeviceArray {
  uint32_t offset = 0;      // byte offset from the start of the blob
  uint32_t count = 0;       // number of elements
  uint8_t elem_width = 1;   // bytes per element (1 or 2)
};

// Everything a device kernel needs to traverse a packed encoding.
struct EncodingDeviceLayout {
  EncodingKind kind = EncodingKind::kCsc;
  DeviceArray pos_meta;  // pointers (kCsc) or counts (others)
  DeviceArray pos_idx;   // absolute indices, delta stream, or block-local indices
  DeviceArray neg_meta;
  DeviceArray neg_idx;
  uint32_t block_size = 0;   // kBlock only
  uint32_t num_blocks = 0;   // kBlock only
};

class Encoding {
 public:
  virtual ~Encoding() = default;

  virtual EncodingKind kind() const = 0;
  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  // Reference traversal: sums[j] = sum over positive connections of input[i] minus the sum
  // over negative connections. `sums` must have out_dim() entries; it is overwritten.
  virtual void Accumulate(std::span<const int8_t> input, std::span<int32_t> sums) const = 0;

  // Lossless reconstruction of the dense adjacency (property-tested round trip).
  virtual TernaryMatrix Decode() const = 0;

  virtual EncodingSizeBreakdown Sizes() const = 0;

  // Appends the serialized arrays to `blob` (2-byte elements are 2-aligned) and returns the
  // layout descriptor. Offsets are relative to the start of `blob`.
  virtual EncodingDeviceLayout Pack(std::vector<uint8_t>& blob) const = 0;

  // Human-readable array dump used by the Fig. 3 bench.
  virtual std::string Describe() const = 0;

 protected:
  Encoding(size_t in_dim, size_t out_dim) : in_dim_(in_dim), out_dim_(out_dim) {}

  size_t in_dim_;
  size_t out_dim_;
};

// Factory covering all five kinds. `matrix` must pass CheckEncodable for `kind`.
std::unique_ptr<Encoding> BuildEncoding(EncodingKind kind, const TernaryMatrix& matrix,
                                        const EncodingOptions& options = {});

// Whether `kind` can store `matrix`. The stream encodings (csc, delta, mixed) pick 1- or
// 2-byte elements for their indices, per-column counts, delta steps and CSC pointers; a
// value above 0xFFFF fits neither (a CSC polarity with more than 65,535 nonzeros, say).
// kResourceExhausted names the value; block and unrolled store any matrix.
Status CheckEncodable(EncodingKind kind, const TernaryMatrix& matrix);

// ---------------------------------------------------------------------------
// Shared helpers for the concrete encodings (exposed for tests).
// ---------------------------------------------------------------------------

// Width in bytes (1 or 2) needed to store values up to max_value inclusive.
uint8_t ElementWidthFor(uint32_t max_value);

// Appends `values` to `blob` using the given element width (little-endian), returning the
// resulting DeviceArray. 2-byte arrays are aligned to a 2-byte boundary first.
DeviceArray AppendArray(std::vector<uint8_t>& blob, std::span<const uint32_t> values,
                        uint8_t elem_width);

// Formats a u32 vector as "[a, b, c]" (used by Describe()).
std::string FormatArray(std::span<const uint32_t> values);

}  // namespace neuroc

#endif  // NEUROC_SRC_CORE_ENCODING_H_
