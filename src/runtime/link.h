// The link step, the one owner of a model's flash layout. Like the static link behind the
// paper's program-memory figure, it puts the kernel text at the reset address, leaves a
// fixed gap for the bare-metal runtime, then places the packed constant-data image at the
// next word boundary. Deployment, the flash-budget fallback, the Intel HEX export and
// every program-memory figure read one link.

#ifndef NEUROC_SRC_RUNTIME_LINK_H_
#define NEUROC_SRC_RUNTIME_LINK_H_

#include "src/common/status.h"
#include "src/core/mlp_model.h"
#include "src/core/model_image.h"
#include "src/core/neuroc_model.h"
#include "src/kernels/kernel_set.h"
#include "src/sim/machine.h"

namespace neuroc {

struct LinkedModel {
  KernelSet kernels;         // assembled at config.flash_base
  DeviceModelImage image;    // packed at image.flash_data_base, after the runtime gap
  size_t program_bytes = 0;  // code + image + kRuntimeOverheadBytes
};

// Links `model` for the memory map of `config`. Whether the result fits
// `config.flash_size` is the caller's question: non-deployable models are measured too.
LinkedModel LinkModel(const NeuroCModel& model, const MachineConfig& config = {});
LinkedModel LinkModel(const MlpModel& model, const MachineConfig& config = {});

// Encodings the flash-budget fallback and the recovery ladder's redeploy rung try, in
// descending expected speed: the caller asked for the fastest scheme, so the best
// fallback is the fastest one that still fits.
inline constexpr EncodingKind kFallbackEncodings[] = {
    EncodingKind::kDelta, EncodingKind::kMixed, EncodingKind::kCsc, EncodingKind::kBlock};

// What the flash-budget guard did: whether the requested model overflowed flash, the
// structured overflow status naming the shortfall, and which encoding was linked instead.
struct DeployFallbackReport {
  bool fell_back = false;
  EncodingKind requested = EncodingKind::kBlock;   // first layer's encoding as requested
  EncodingKind selected = EncodingKind::kBlock;    // encoding actually linked
  size_t requested_bytes = 0;                      // program bytes of the requested model
  size_t selected_bytes = 0;                       // program bytes of the linked model
  size_t flash_budget = 0;
  Status overflow = Status::Ok();  // kResourceExhausted naming the overflow when fell_back
};

// Flash-budget guard: links `model`; when it overflows `config.flash_size`, reports the
// overflow as a structured kResourceExhausted Status (in `report->overflow`) and links the
// first kFallbackEncodings re-encoding that fits instead, each candidate once. Fails only
// when no encoding fits. Guards kUnrolled above all, whose text grows with every nonzero.
StatusOr<LinkedModel> LinkWithFallback(const NeuroCModel& model,
                                       const MachineConfig& config = {},
                                       DeployFallbackReport* report = nullptr);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_LINK_H_
