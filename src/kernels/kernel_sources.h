// Thumb assembly generators for the inference kernels executed on the simulated Cortex-M0.
//
// Every kernel is a function taking r0 = address of an 80-byte layer descriptor (layout in
// src/core/model_image.h) and computing one layer in place (input/output/scratch SRAM
// addresses come from the descriptor). Kernels are specialized per KernelVariant — encoding
// kind, metadata/index element widths and presence of the per-neuron scale — because on a
// core with no branch predictor, folding these choices into the instruction stream is
// exactly the "static control flow" discipline the paper argues for.
//
// Arithmetic matches the host reference bit-for-bit (property-tested in kernels_test):
//   acc = Σ(+x) − Σ(−x); acc = acc * scale_j (if scaled); acc += bias_j;
//   out = sat8((acc + rnd) >> shift), then ReLU if the descriptor flags request it.

#ifndef NEUROC_SRC_KERNELS_KERNEL_SOURCES_H_
#define NEUROC_SRC_KERNELS_KERNEL_SOURCES_H_

#include <string>

#include "src/core/model_image.h"
#include "src/core/unrolled_encoding.h"
#include "src/isa/assembler.h"

namespace neuroc {

// Stable symbol name for a kernel variant, e.g. "nc_delta_m1_i1_s1", "nc_unrolled_l0_s1"
// or "dense_q7".
std::string KernelFunctionName(const KernelVariant& variant);

// Generates the assembly source for one kernel variant. All labels are prefixed with the
// function name so multiple kernels can be assembled into one program. kUnrolled variants
// are per-model, not per-shape — use GenerateUnrolledKernelSource for those.
std::string GenerateKernelSource(const KernelVariant& variant);

// Per-model codegen for EncodingKind::kUnrolled: compiles the layer's frozen adjacency into
// straight-line Thumb — per output neuron a `movs` reset, a chain of
// `adds r1, #delta` pointer retargets + `ldrsb`/`adds`/`subs` accumulates (one per nonzero,
// operand offsets resolved here at generation time), and a `bl` into a shared
// scale/bias/requant/ReLU epilogue. Zero index decoding at runtime; the flash cost is the
// kernel text itself (UnrolledEncoding::Sizes() models the marginal bytes exactly).
//
// The body is one walk over the adjacency with two renderings. GenerateUnrolledKernelSource
// renders it as assembly text (the listing, and the differential oracle for the encoder);
// AppendUnrolledKernel encodes the same instructions straight to Thumb halfwords at
// `program`'s end, assembling only the small prologue/epilogue scaffold from text. The two
// agree byte for byte and symbol for symbol: AppendUnrolledKernel(v, enc, p) leaves p as
// AssembleAppend(GenerateUnrolledKernelSource(v, enc), p) would (pinned in kernels_test).
std::string GenerateUnrolledKernelSource(const KernelVariant& variant,
                                         const UnrolledEncoding& encoding);
void AppendUnrolledKernel(const KernelVariant& variant, const UnrolledEncoding& encoding,
                          AssembledProgram& program);

// Assembled bytes of the fixed (per-kernel, model-independent) part of an unrolled kernel:
// prologue + frame teardown + shared requant epilogue. The pin-tested size contract is
//   assembled kernel bytes == UnrolledEncoding::Sizes().total()
//                             + UnrolledKernelFixedBytes(has_scale).
size_t UnrolledKernelFixedBytes(bool has_scale);

// Convolution kernel for the paper's Fig. 2 FC-vs-CNN comparison: direct convolution driven
// by a precomputed receptive-field offset table (the static equivalent of im2col on a
// platform without the RAM for materialized column matrices). Descriptor layout in
// src/kernels/conv_desc.h.
std::string GenerateConvKernelSource();
inline constexpr char kConvKernelName[] = "conv_q7";

// Number of flash bytes charged for fixed runtime overhead when reporting program memory
// (vector table, reset/startup code and the layer-sequencing main loop of a bare-metal
// build). Matches the overhead of a minimal arm-none-eabi-gcc -Os binary.
inline constexpr size_t kRuntimeOverheadBytes = 768;

}  // namespace neuroc

#endif  // NEUROC_SRC_KERNELS_KERNEL_SOURCES_H_
