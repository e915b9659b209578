// Descriptor and packing for the Fig. 2 convolution kernel.
//
// The kernel computes a direct S×S convolution with C input channels and K filters over an
// N×N input, valid padding (output M = N − S + 1), using two precomputed u16 tables: the
// receptive-field-relative offsets (one per weight) and the per-output-pixel base offsets —
// the static-memory equivalent of im2col on a RAM-starved target.

#ifndef NEUROC_SRC_KERNELS_CONV_DESC_H_
#define NEUROC_SRC_KERNELS_CONV_DESC_H_

#include <cstdint>
#include <vector>

#include "src/sim/machine.h"

namespace neuroc {

struct ConvLayerSpec {
  int input_size = 16;   // N (square input)
  int channels = 1;      // C
  int kernel_size = 3;   // S
  int filters = 8;       // K
  int shift = 7;         // requantization shift
};

// Conv descriptor layout, one 32-bit word per field: PackConvLayer writes it and the
// Fig. 2 kernel (GenerateConvKernelSource) reads it at byte offset 4 * word.
enum ConvDescWord : uint32_t {
  kConvDescNumPixels = 0,       // M*M
  kConvDescNumFilters = 1,      // K
  kConvDescFieldSize = 2,       // C*S*S
  kConvDescRelOffsetsAddr = 3,  // u16 [field] receptive-field-relative offsets
  kConvDescWeightsAddr = 4,     // q7 [K][field]
  kConvDescBiasAddr = 5,        // i32 [K]
  kConvDescShift = 6,
  kConvDescInputAddr = 7,       // int8 [C*N*N], channel-planar
  kConvDescOutputAddr = 8,      // q7 [K][pixels]
  kConvDescPixelBasesAddr = 9,  // u16 [pixels] per-output-pixel base offsets
  kConvDescWordCount = 10,
};

struct PackedConvLayer {
  uint32_t desc_addr = 0;
  uint32_t input_addr = 0;   // int8 [C*N*N], channel-planar
  uint32_t output_addr = 0;  // int8 [K * M*M]
  int output_size = 0;       // M
  size_t flash_bytes = 0;    // weights + tables + descriptor
  size_t macc_count = 0;     // K * C * S^2 * M^2 (paper Eq. 7)
};

// Places descriptor, weights (q7), bias (int32), offset tables into simulated flash at
// `flash_base` and plans input/output buffers at `ram_base`. `weights`/`bias` sizes must be
// K*C*S*S and K.
PackedConvLayer PackConvLayer(Machine& machine, const ConvLayerSpec& spec,
                              const std::vector<int8_t>& weights,
                              const std::vector<int32_t>& bias, uint32_t flash_base,
                              uint32_t ram_base);

// Host reference of the same arithmetic, for simulator equivalence tests.
void RunConvReference(const ConvLayerSpec& spec, const std::vector<int8_t>& weights,
                      const std::vector<int32_t>& bias, const std::vector<int8_t>& input,
                      std::vector<int8_t>& output);

}  // namespace neuroc

#endif  // NEUROC_SRC_KERNELS_CONV_DESC_H_
