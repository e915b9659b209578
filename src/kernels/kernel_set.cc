#include "src/kernels/kernel_set.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/kernels/kernel_sources.h"

namespace neuroc {

KernelSet KernelSet::Build(std::span<const KernelVariant> variants, uint32_t base_addr,
                           bool include_conv, const NeuroCModel* model) {
  KernelSet set;
  for (const KernelVariant& v : variants) {
    if (std::find(set.variants_.begin(), set.variants_.end(), v) == set.variants_.end()) {
      set.variants_.push_back(v);
    }
  }
  // Kernels are self-contained (labels prefixed by the kernel name, no literal pools), so
  // appending them one by one lays out exactly what one concatenated source would.
  AssembledProgram& program = set.program_;
  program.base_addr = base_addr;
  for (const KernelVariant& v : set.variants_) {
    if (!v.is_dense && v.kind == EncodingKind::kUnrolled) {
      NEUROC_CHECK_MSG(model != nullptr, "kUnrolled kernel generation needs the model");
      NEUROC_CHECK(v.unrolled_layer >= 0 &&
                   static_cast<size_t>(v.unrolled_layer) < model->layers().size());
      const Encoding& enc = *model->layers()[v.unrolled_layer].encoding;
      NEUROC_CHECK(enc.kind() == EncodingKind::kUnrolled);
      AppendUnrolledKernel(v, static_cast<const UnrolledEncoding&>(enc), program);
    } else {
      AssembleAppend(GenerateKernelSource(v), program);
    }
  }
  if (include_conv) {
    AssembleAppend(GenerateConvKernelSource(), program);
  }
  if (program.bytes.empty()) {
    AssembleAppend("nop\n", program);  // an empty set still has an entry
  }
  return set;
}

uint32_t KernelSet::EntryFor(const KernelVariant& variant) const {
  return program_.SymbolAddr(KernelFunctionName(variant));
}

uint32_t KernelSet::ConvEntry() const { return program_.SymbolAddr(kConvKernelName); }

}  // namespace neuroc
