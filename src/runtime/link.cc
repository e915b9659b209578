#include "src/runtime/link.h"

#include <string>
#include <utility>

#include "src/kernels/kernel_sources.h"

namespace neuroc {

namespace {

// Kernels first (at the reset address, like a real linker script), the runtime after them,
// then the image at the next word boundary. The first pack only learns the kernel
// variants, which do not depend on where the image goes. `unrolled` is the model the
// kUnrolled kernels are generated from (none for MLPs).
template <typename Model>
LinkedModel Link(const Model& model, const MachineConfig& config,
                 DeviceModelImage (*pack)(const Model&, uint32_t, uint32_t),
                 const NeuroCModel* unrolled) {
  LinkedModel linked;
  linked.kernels = KernelSet::Build(pack(model, config.flash_base, config.ram_base).variants,
                                    config.flash_base, /*include_conv=*/false, unrolled);
  const uint32_t image_base =
      (config.flash_base + static_cast<uint32_t>(linked.kernels.code_bytes()) +
       static_cast<uint32_t>(kRuntimeOverheadBytes) + 3u) & ~3u;
  linked.image = pack(model, image_base, config.ram_base);
  linked.program_bytes =
      linked.kernels.code_bytes() + linked.image.flash.size() + kRuntimeOverheadBytes;
  return linked;
}

}  // namespace

LinkedModel LinkModel(const NeuroCModel& model, const MachineConfig& config) {
  return Link(model, config, PackNeuroCModel, &model);
}

LinkedModel LinkModel(const MlpModel& model, const MachineConfig& config) {
  return Link(model, config, PackMlpModel, nullptr);
}

StatusOr<LinkedModel> LinkWithFallback(const NeuroCModel& model, const MachineConfig& config,
                                       DeployFallbackReport* report) {
  DeployFallbackReport local;
  DeployFallbackReport& r = report != nullptr ? *report : local;
  r = DeployFallbackReport{};
  r.requested = model.layers().front().encoding->kind();
  r.selected = r.requested;
  r.flash_budget = config.flash_size;
  LinkedModel linked = LinkModel(model, config);
  r.requested_bytes = linked.program_bytes;
  r.selected_bytes = r.requested_bytes;
  if (linked.program_bytes <= config.flash_size) {
    return linked;
  }
  r.fell_back = true;
  r.overflow = Status(
      ErrorCode::kResourceExhausted,
      std::string("flash budget overflow: ") + EncodingKindName(r.requested) +
          " image needs " + std::to_string(r.requested_bytes) + " B of " +
          std::to_string(config.flash_size) + " B flash; falling back");
  for (const EncodingKind kind : kFallbackEncodings) {
    LinkedModel candidate = LinkModel(ReencodeModel(model, kind), config);
    if (candidate.program_bytes <= config.flash_size) {
      r.selected = kind;
      r.selected_bytes = candidate.program_bytes;
      return candidate;
    }
  }
  return Status(ErrorCode::kResourceExhausted,
                "no encoding fits the flash budget: " +
                    std::to_string(r.requested_bytes) + " B requested (" +
                    EncodingKindName(r.requested) + ") vs " +
                    std::to_string(config.flash_size) + " B flash");
}

}  // namespace neuroc
