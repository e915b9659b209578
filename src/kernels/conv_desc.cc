#include "src/kernels/conv_desc.h"

#include "src/common/check.h"
#include "src/common/fixed_point.h"

namespace neuroc {

namespace {

void PushWord(std::vector<uint8_t>& blob, uint32_t v) {
  blob.push_back(static_cast<uint8_t>(v & 0xFF));
  blob.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  blob.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  blob.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

void PushHalf(std::vector<uint8_t>& blob, uint16_t v) {
  blob.push_back(static_cast<uint8_t>(v & 0xFF));
  blob.push_back(static_cast<uint8_t>(v >> 8));
}

}  // namespace

PackedConvLayer PackConvLayer(Machine& machine, const ConvLayerSpec& spec,
                              const std::vector<int8_t>& weights,
                              const std::vector<int32_t>& bias, uint32_t flash_base,
                              uint32_t ram_base) {
  const int n = spec.input_size;
  const int c = spec.channels;
  const int s = spec.kernel_size;
  const int k = spec.filters;
  const int m = n - s + 1;
  NEUROC_CHECK(m > 0);
  const size_t field = static_cast<size_t>(c) * s * s;
  NEUROC_CHECK(weights.size() == field * static_cast<size_t>(k));
  NEUROC_CHECK(bias.size() == static_cast<size_t>(k));

  PackedConvLayer out;
  out.output_size = m;
  out.macc_count = static_cast<size_t>(k) * c * s * s * m * m;

  // RAM plan: input (planar CHW), then output.
  out.input_addr = ram_base;
  out.output_addr =
      (ram_base + static_cast<uint32_t>(c * n * n) + 3u) & ~3u;

  // Flash blob: descriptor (ConvDescWord) | rel offsets u16[field] | pixel bases u16[m*m] |
  // weights q7 | bias i32.
  std::vector<uint8_t> blob(kConvDescWordCount * 4, 0);
  // Relative offsets of each weight element within the input, from the receptive-field
  // origin pixel (top-left of the window in channel 0).
  const uint32_t rel_off = static_cast<uint32_t>(blob.size());
  for (int ch = 0; ch < c; ++ch) {
    for (int dy = 0; dy < s; ++dy) {
      for (int dx = 0; dx < s; ++dx) {
        const int off = ch * n * n + dy * n + dx;
        NEUROC_CHECK(off >= 0 && off < 65536);
        PushHalf(blob, static_cast<uint16_t>(off));
      }
    }
  }
  const uint32_t pix_off = static_cast<uint32_t>(blob.size());
  for (int y = 0; y < m; ++y) {
    for (int x = 0; x < m; ++x) {
      const int off = y * n + x;
      PushHalf(blob, static_cast<uint16_t>(off));
    }
  }
  const uint32_t w_off = static_cast<uint32_t>(blob.size());
  for (int8_t wv : weights) {
    blob.push_back(static_cast<uint8_t>(wv));
  }
  while (blob.size() % 4 != 0) {
    blob.push_back(0);
  }
  const uint32_t b_off = static_cast<uint32_t>(blob.size());
  for (int32_t bv : bias) {
    PushWord(blob, static_cast<uint32_t>(bv));
  }
  // Fill the descriptor.
  auto put_word = [&](ConvDescWord index, uint32_t v) {
    blob[static_cast<size_t>(index) * 4 + 0] = static_cast<uint8_t>(v & 0xFF);
    blob[static_cast<size_t>(index) * 4 + 1] = static_cast<uint8_t>((v >> 8) & 0xFF);
    blob[static_cast<size_t>(index) * 4 + 2] = static_cast<uint8_t>((v >> 16) & 0xFF);
    blob[static_cast<size_t>(index) * 4 + 3] = static_cast<uint8_t>((v >> 24) & 0xFF);
  };
  put_word(kConvDescNumPixels, static_cast<uint32_t>(m * m));
  put_word(kConvDescNumFilters, static_cast<uint32_t>(k));
  put_word(kConvDescFieldSize, static_cast<uint32_t>(field));
  put_word(kConvDescRelOffsetsAddr, flash_base + rel_off);
  put_word(kConvDescWeightsAddr, flash_base + w_off);
  put_word(kConvDescBiasAddr, flash_base + b_off);
  put_word(kConvDescShift, static_cast<uint32_t>(spec.shift));
  put_word(kConvDescInputAddr, out.input_addr);
  put_word(kConvDescOutputAddr, out.output_addr);
  put_word(kConvDescPixelBasesAddr, flash_base + pix_off);

  machine.LoadBytes(flash_base, blob);
  out.desc_addr = flash_base;
  out.flash_bytes = blob.size();
  return out;
}

void RunConvReference(const ConvLayerSpec& spec, const std::vector<int8_t>& weights,
                      const std::vector<int32_t>& bias, const std::vector<int8_t>& input,
                      std::vector<int8_t>& output) {
  const int n = spec.input_size;
  const int c = spec.channels;
  const int s = spec.kernel_size;
  const int k = spec.filters;
  const int m = n - s + 1;
  NEUROC_CHECK(input.size() == static_cast<size_t>(c) * n * n);
  output.assign(static_cast<size_t>(k) * m * m, 0);
  for (int f = 0; f < k; ++f) {
    const int8_t* wrow = weights.data() + static_cast<size_t>(f) * c * s * s;
    for (int y = 0; y < m; ++y) {
      for (int x = 0; x < m; ++x) {
        int32_t acc = bias[static_cast<size_t>(f)];
        int e = 0;
        for (int ch = 0; ch < c; ++ch) {
          for (int dy = 0; dy < s; ++dy) {
            for (int dx = 0; dx < s; ++dx, ++e) {
              const int32_t xv = input[static_cast<size_t>(ch) * n * n +
                                       static_cast<size_t>(y + dy) * n + (x + dx)];
              acc += static_cast<int32_t>(wrow[e]) * xv;
            }
          }
        }
        output[static_cast<size_t>(f) * m * m + static_cast<size_t>(y) * m + x] =
            static_cast<int8_t>(SatInt8(RoundingRightShift(acc, spec.shift)));
      }
    }
  }
}

}  // namespace neuroc
