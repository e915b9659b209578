#include "src/train/ternary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/tensor/matrix_ops.h"

namespace neuroc {

namespace {

// |w| as its IEEE-754 bit pattern. For non-negative floats the pattern is monotonic in
// the value, so the k-th smallest key IS the k-th smallest |w|.
inline uint32_t MagnitudeKey(float w) { return std::bit_cast<uint32_t>(w) & 0x7fffffffu; }

// Radix levels over the 31 key bits: 10 + 11 + 10.
constexpr int kHiShift = 21;  // level 1: exponent + 2 mantissa bits
constexpr int kMidShift = 10;
constexpr uint32_t kMidMask = 0x7ffu;
constexpr uint32_t kLoMask = 0x3ffu;
constexpr size_t kHiBuckets = size_t{1} << (31 - kHiShift);
// Latent entries per level-1 histogram block; chunks of ParallelFor own whole blocks.
constexpr size_t kSelectBlock = size_t{1} << 16;
constexpr size_t kSelectGrainBlocks = 1;

// Returns the bucket holding the k-th smallest entry (0-indexed) of a histogram and
// subtracts the counts of the buckets below it from k.
size_t FindBucket(const uint32_t* hist, size_t buckets, size_t& k) {
  size_t b = 0;
  while (b + 1 < buckets && hist[b] <= k) {
    k -= hist[b];
    ++b;
  }
  return b;
}

// k-th smallest magnitude (0-indexed): the exact order statistic std::nth_element on fabs
// values would return, by three radix levels on MagnitudeKey. Level 1 histograms the top
// key bits per fixed block, in parallel; the counts are integers, so merging them gives
// the same totals at any worker count. Each block then compacts its keys that fall in the
// selected bucket (a ~1/10 sample at paper scale), branch-free, to an offset fixed by the
// block counts. Levels 2 and 3 histogram that sample on the middle and low key bits. This
// runs once per layer per optimizer step.
float SelectMagnitude(const Tensor& latent, size_t k) {
  const size_t n = latent.size();
  const float* src = latent.data();
  const size_t blocks = (n + kSelectBlock - 1) / kSelectBlock;
  thread_local std::vector<uint32_t> hist_storage;
  thread_local std::vector<uint32_t> candidate_storage;
  thread_local std::vector<size_t> offset_storage;
  hist_storage.assign(blocks * kHiBuckets + kHiBuckets, 0);
  uint32_t* hist = hist_storage.data();  // [blocks][kHiBuckets], then the merged totals
  ParallelFor(0, blocks, kSelectGrainBlocks, [&](size_t b0, size_t b1) {
    // Latents cluster in a few buckets, so consecutive increments of one counter would
    // serialize on store-to-load forwarding; four interleaved counters per bucket keep
    // four chains in flight.
    uint32_t lanes[4][kHiBuckets];
    for (size_t b = b0; b < b1; ++b) {
      std::fill(&lanes[0][0], &lanes[0][0] + 4 * kHiBuckets, 0u);
      const size_t begin = b * kSelectBlock;
      const size_t end = std::min(n, begin + kSelectBlock);
      size_t i = begin;
      for (; i + 4 <= end; i += 4) {
        ++lanes[0][MagnitudeKey(src[i]) >> kHiShift];
        ++lanes[1][MagnitudeKey(src[i + 1]) >> kHiShift];
        ++lanes[2][MagnitudeKey(src[i + 2]) >> kHiShift];
        ++lanes[3][MagnitudeKey(src[i + 3]) >> kHiShift];
      }
      for (; i < end; ++i) {
        ++lanes[0][MagnitudeKey(src[i]) >> kHiShift];
      }
      uint32_t* h = hist + b * kHiBuckets;
      for (size_t v = 0; v < kHiBuckets; ++v) {
        h[v] = lanes[0][v] + lanes[1][v] + lanes[2][v] + lanes[3][v];
      }
    }
  });
  uint32_t* total = hist + blocks * kHiBuckets;
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t v = 0; v < kHiBuckets; ++v) {
      total[v] += hist[b * kHiBuckets + v];
    }
  }
  const uint32_t hi = static_cast<uint32_t>(FindBucket(total, kHiBuckets, k));
  // Block b's candidates go to [offset[b], offset[b] + count): each region has one spare
  // slot, because the branch-free compaction stores every key at the cursor.
  offset_storage.resize(blocks + 1);
  size_t* offset = offset_storage.data();
  offset[0] = 0;
  for (size_t b = 0; b < blocks; ++b) {
    offset[b + 1] = offset[b] + hist[b * kHiBuckets + hi] + 1;
  }
  candidate_storage.resize(offset[blocks]);
  uint32_t* candidates = candidate_storage.data();
  ParallelFor(0, blocks, kSelectGrainBlocks, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      uint32_t* out = candidates + offset[b];
      size_t c = 0;
      const size_t end = std::min(n, (b + 1) * kSelectBlock);
      for (size_t i = b * kSelectBlock; i < end; ++i) {
        const uint32_t key = MagnitudeKey(src[i]);
        out[c] = key;
        c += (key >> kHiShift) == hi;
      }
    }
  });
  uint32_t mid_hist[kMidMask + 1] = {0};
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t* in = candidates + offset[b];
    for (size_t c = 0, e = offset[b + 1] - offset[b] - 1; c < e; ++c) {
      ++mid_hist[(in[c] >> kMidShift) & kMidMask];
    }
  }
  const uint32_t mid = static_cast<uint32_t>(FindBucket(mid_hist, kMidMask + 1, k));
  uint32_t lo_hist[kLoMask + 1] = {0};
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t* in = candidates + offset[b];
    for (size_t c = 0, e = offset[b + 1] - offset[b] - 1; c < e; ++c) {
      lo_hist[in[c] & kLoMask] += ((in[c] >> kMidShift) & kMidMask) == mid;
    }
  }
  const uint32_t lo = static_cast<uint32_t>(FindBucket(lo_hist, kLoMask + 1, k));
  return std::bit_cast<float>((hi << kHiShift) | (mid << kMidShift) | lo);
}

}  // namespace

float TernaryThreshold(const Tensor& latent, const TernaryConfig& cfg) {
  if (cfg.target_density <= 0.0f) {
    return cfg.threshold_factor * MeanAbs(latent);
  }
  NEUROC_CHECK(cfg.target_density <= 1.0f);
  // Threshold at the (1 - density) quantile of |W|: keeps ~density of the connections.
  const size_t keep =
      std::min(latent.size() - 1,
               static_cast<size_t>((1.0f - cfg.target_density) *
                                   static_cast<float>(latent.size())));
  return SelectMagnitude(latent, keep);
}

void Ternarize(const Tensor& latent, float threshold, Tensor& out) {
  if (!out.SameShape(latent)) {
    out = Tensor(latent.shape());
  }
  const float* src = latent.data();
  float* dst = out.data();
  for (size_t i = 0; i < latent.size(); ++i) {
    if (src[i] > threshold) {
      dst[i] = 1.0f;
    } else if (src[i] < -threshold) {
      dst[i] = -1.0f;
    } else {
      dst[i] = 0.0f;
    }
  }
}

void TernarizeToInt8(const Tensor& latent, float threshold, std::vector<int8_t>& out) {
  out.resize(latent.size());
  const float* src = latent.data();
  for (size_t i = 0; i < latent.size(); ++i) {
    out[i] = src[i] > threshold ? int8_t{1} : (src[i] < -threshold ? int8_t{-1} : int8_t{0});
  }
}

void ApplySteClip(const Tensor& latent, float clip, Tensor& grad) {
  NEUROC_CHECK(latent.SameShape(grad));
  const float* w = latent.data();
  float* g = grad.data();
  for (size_t i = 0; i < latent.size(); ++i) {
    if (std::fabs(w[i]) > clip) {
      g[i] = 0.0f;
    }
  }
}

size_t CountNonZero(const Tensor& latent, float threshold) {
  size_t n = 0;
  for (float w : latent.flat()) {
    if (w > threshold || w < -threshold) {
      ++n;
    }
  }
  return n;
}

}  // namespace neuroc
