// Intel HEX firmware emission: packages the assembled kernels plus the model image into the
// .hex file format accepted by MCU flashing tools (ST-Link, OpenOCD, vendor bootloaders).
// A parser is provided for round-trip verification.

#ifndef NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_
#define NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/runtime/link.h"

namespace neuroc {

struct FirmwareChunk {
  uint32_t addr = 0;
  std::vector<uint8_t> bytes;
};

// Emits Intel HEX (16-byte data records, type-04 extended linear addresses, type-01 EOF).
std::string EmitIntelHex(std::span<const FirmwareChunk> chunks);

// Parses Intel HEX; returns nullopt on malformed records or checksum mismatch. Contiguous
// data is merged into maximal chunks sorted by address.
std::optional<std::vector<FirmwareChunk>> ParseIntelHex(const std::string& text);

// The complete flash content of a linked model (kernel code at the flash base, model image
// after the runtime gap), ready to flash. Whether it fits the device is the link's
// program_bytes against the flash size; LinkWithFallback checks it.
std::string FirmwareHex(const LinkedModel& linked);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_
