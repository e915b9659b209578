#include "src/core/encoding.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/core/block_encoding.h"
#include "src/core/csc_encoding.h"
#include "src/core/delta_encoding.h"
#include "src/core/mixed_encoding.h"
#include "src/core/unrolled_encoding.h"

namespace neuroc {

const char* EncodingKindName(EncodingKind kind) {
  switch (kind) {
    case EncodingKind::kCsc:
      return "csc";
    case EncodingKind::kDelta:
      return "delta";
    case EncodingKind::kMixed:
      return "mixed";
    case EncodingKind::kBlock:
      return "block";
    case EncodingKind::kUnrolled:
      return "unrolled";
  }
  return "?";
}

std::unique_ptr<Encoding> BuildEncoding(EncodingKind kind, const TernaryMatrix& matrix,
                                        const EncodingOptions& options) {
  switch (kind) {
    case EncodingKind::kCsc:
      return std::make_unique<CscEncoding>(matrix);
    case EncodingKind::kDelta:
      return std::make_unique<DeltaEncoding>(matrix);
    case EncodingKind::kMixed:
      return std::make_unique<MixedEncoding>(matrix);
    case EncodingKind::kBlock:
      return std::make_unique<BlockEncoding>(matrix, options.block_size);
    case EncodingKind::kUnrolled:
      return std::make_unique<UnrolledEncoding>(matrix);
  }
  NEUROC_CHECK(false);
  return nullptr;
}

Status CheckEncodable(EncodingKind kind, const TernaryMatrix& matrix) {
  if (kind == EncodingKind::kBlock || kind == EncodingKind::kUnrolled) {
    return Status::Ok();
  }
  // The largest value the encoding stores at an ElementWidthFor-chosen width, mirroring
  // each encoding's BuildPolarity: csc and mixed size their index elements for in_dim - 1,
  // delta for its largest step.
  uint64_t max_value = 0;
  if (kind != EncodingKind::kDelta && matrix.in_dim() > 0) {
    max_value = matrix.in_dim() - 1;
  }
  for (const bool positive : {true, false}) {
    uint64_t total = 0;
    for (size_t j = 0; j < matrix.out_dim(); ++j) {
      const std::vector<uint32_t> idx =
          positive ? matrix.PositiveIndices(j) : matrix.NegativeIndices(j);
      total += idx.size();
      if (kind == EncodingKind::kCsc) {
        continue;
      }
      max_value = std::max<uint64_t>(max_value, idx.size());  // per-column count
      if (kind == EncodingKind::kDelta) {
        for (size_t k = 0; k < idx.size(); ++k) {
          max_value = std::max<uint64_t>(max_value, k == 0 ? idx[0] : idx[k] - idx[k - 1]);
        }
      }
    }
    if (kind == EncodingKind::kCsc) {
      max_value = std::max(max_value, total);  // the polarity's last column pointer
    }
  }
  if (max_value <= 0xFFFF) {
    return Status::Ok();
  }
  return Status(ErrorCode::kResourceExhausted,
                std::string(EncodingKindName(kind)) + " cannot store a " +
                    std::to_string(matrix.in_dim()) + "x" + std::to_string(matrix.out_dim()) +
                    " layer of " + std::to_string(matrix.NonZeroCount()) +
                    " nonzeros: value " + std::to_string(max_value) +
                    " exceeds the 16-bit element range");
}

uint8_t ElementWidthFor(uint32_t max_value) {
  if (max_value <= 0xFF) {
    return 1;
  }
  NEUROC_CHECK_MSG(max_value <= 0xFFFF, "value exceeds 16-bit encoding range");
  return 2;
}

DeviceArray AppendArray(std::vector<uint8_t>& blob, std::span<const uint32_t> values,
                        uint8_t elem_width) {
  NEUROC_CHECK(elem_width == 1 || elem_width == 2);
  if (elem_width == 2 && blob.size() % 2 != 0) {
    blob.push_back(0);  // alignment pad
  }
  DeviceArray arr;
  arr.offset = static_cast<uint32_t>(blob.size());
  arr.count = static_cast<uint32_t>(values.size());
  arr.elem_width = elem_width;
  for (uint32_t v : values) {
    NEUROC_CHECK(v <= (elem_width == 1 ? 0xFFu : 0xFFFFu));
    blob.push_back(static_cast<uint8_t>(v & 0xFF));
    if (elem_width == 2) {
      blob.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
    }
  }
  return arr;
}

std::string FormatArray(std::span<const uint32_t> values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      s += ", ";
    }
    s += std::to_string(values[i]);
  }
  s += "]";
  return s;
}

}  // namespace neuroc
