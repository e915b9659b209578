#include <gtest/gtest.h>

#include <cstring>

#include "src/core/block_encoding.h"
#include "src/core/csc_encoding.h"
#include "src/core/delta_encoding.h"
#include "src/core/encoding.h"
#include "src/core/mixed_encoding.h"
#include "src/core/mlp_model.h"
#include "src/core/model_image.h"
#include "src/core/neuroc_model.h"
#include "src/core/ternary_matrix.h"
#include "src/data/synth.h"
#include "src/train/trainer.h"

namespace neuroc {
namespace {

TEST(TernaryMatrixTest, SetAndGet) {
  TernaryMatrix m(4, 3);
  m.set(1, 2, 1);
  m.set(3, 0, -1);
  EXPECT_EQ(m.at(1, 2), 1);
  EXPECT_EQ(m.at(3, 0), -1);
  EXPECT_EQ(m.at(0, 0), 0);
  EXPECT_EQ(m.NonZeroCount(), 2u);
}

TEST(TernaryMatrixTest, ColumnIndicesAscendingAndCorrect) {
  TernaryMatrix m(6, 2);
  m.set(5, 0, 1);
  m.set(1, 0, 1);
  m.set(3, 0, -1);
  const auto pos = m.PositiveIndices(0);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 1u);
  EXPECT_EQ(pos[1], 5u);
  const auto neg = m.NegativeIndices(0);
  ASSERT_EQ(neg.size(), 1u);
  EXPECT_EQ(neg[0], 3u);
  EXPECT_TRUE(m.PositiveIndices(1).empty());
}

TEST(TernaryMatrixTest, FromSignTensorRejectsNonTernary) {
  Tensor t = Tensor::FromData(1, 2, {0.5f, 1.0f});
  EXPECT_DEATH(TernaryMatrix::FromSignTensor(t), "not ternary");
}

TEST(TernaryMatrixTest, RandomDensityApproximatelyRespected) {
  Rng rng(1);
  TernaryMatrix m = TernaryMatrix::Random(100, 100, 0.15, rng);
  EXPECT_NEAR(m.Density(), 0.15, 0.02);
}

// ---------------------------------------------------------------------------
// Property tests across all four encodings.
// ---------------------------------------------------------------------------

struct EncodingCase {
  EncodingKind kind;
  size_t in_dim;
  size_t out_dim;
  double density;
  size_t block_size;
};

class EncodingPropertyTest : public ::testing::TestWithParam<EncodingCase> {
 protected:
  std::unique_ptr<Encoding> Build(const TernaryMatrix& m) {
    EncodingOptions opt;
    opt.block_size = GetParam().block_size;
    return BuildEncoding(GetParam().kind, m, opt);
  }
};

TEST_P(EncodingPropertyTest, DecodeRoundTripsExactly) {
  const auto p = GetParam();
  Rng rng(p.in_dim * 31 + p.out_dim + static_cast<size_t>(p.kind));
  const TernaryMatrix m = TernaryMatrix::Random(p.in_dim, p.out_dim, p.density, rng);
  const auto enc = Build(m);
  EXPECT_TRUE(enc->Decode() == m);
}

TEST_P(EncodingPropertyTest, AccumulateMatchesDenseReference) {
  const auto p = GetParam();
  Rng rng(p.in_dim + p.out_dim * 77 + static_cast<size_t>(p.kind));
  const TernaryMatrix m = TernaryMatrix::Random(p.in_dim, p.out_dim, p.density, rng);
  const auto enc = Build(m);
  std::vector<int8_t> input(p.in_dim);
  for (auto& v : input) {
    v = static_cast<int8_t>(rng.NextInt(-128, 127));
  }
  std::vector<int32_t> sums(p.out_dim);
  enc->Accumulate(input, sums);
  for (size_t j = 0; j < p.out_dim; ++j) {
    int32_t expected = 0;
    for (size_t i = 0; i < p.in_dim; ++i) {
      expected += m.at(i, j) * input[i];
    }
    EXPECT_EQ(sums[j], expected) << "column " << j;
  }
}

TEST_P(EncodingPropertyTest, SizesMatchPackedBlobSize) {
  const auto p = GetParam();
  Rng rng(p.in_dim * 5 + p.out_dim);
  const TernaryMatrix m = TernaryMatrix::Random(p.in_dim, p.out_dim, p.density, rng);
  const auto enc = Build(m);
  std::vector<uint8_t> blob;
  enc->Pack(blob);
  const size_t total = enc->Sizes().total();
  if (p.kind == EncodingKind::kUnrolled) {
    // Unrolled weights live in generated kernel text, not the packed image: Pack()
    // contributes nothing and Sizes() reports the marginal code bytes instead
    // (pinned against the assembler in kernels_test).
    EXPECT_EQ(blob.size(), 0u);
    EXPECT_GT(total, 0u);
    return;
  }
  // Packed blob may include up to 3 alignment pad bytes for 16-bit arrays.
  EXPECT_GE(blob.size(), total);
  EXPECT_LE(blob.size(), total + 4);
}

TEST_P(EncodingPropertyTest, EmptyMatrixEncodesAndDecodes) {
  const auto p = GetParam();
  const TernaryMatrix m(p.in_dim, p.out_dim);  // all zeros
  const auto enc = Build(m);
  EXPECT_TRUE(enc->Decode() == m);
  std::vector<int8_t> input(p.in_dim, 17);
  std::vector<int32_t> sums(p.out_dim, -1);
  enc->Accumulate(input, sums);
  for (int32_t s : sums) {
    EXPECT_EQ(s, 0);
  }
}

TEST_P(EncodingPropertyTest, DescribeMentionsArrays) {
  const auto p = GetParam();
  Rng rng(9);
  const TernaryMatrix m = TernaryMatrix::Random(p.in_dim, p.out_dim, p.density, rng);
  const auto enc = Build(m);
  const std::string desc = enc->Describe();
  EXPECT_NE(desc.find("pos"), std::string::npos);
  EXPECT_NE(desc.find("neg"), std::string::npos);
}

std::vector<EncodingCase> AllEncodingCases() {
  std::vector<EncodingCase> cases;
  for (EncodingKind kind : kAllEncodingKinds) {
    cases.push_back({kind, 8, 4, 0.3, 4});
    cases.push_back({kind, 64, 16, 0.1, 32});
    cases.push_back({kind, 300, 40, 0.15, 256});   // 16-bit absolute indices
    cases.push_back({kind, 1024, 10, 0.05, 256});  // large sparse input
    cases.push_back({kind, 17, 3, 0.9, 16});       // dense, odd sizes
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKindsAndShapes, EncodingPropertyTest,
                         ::testing::ValuesIn(AllEncodingCases()));

TEST(EncodingTest, ElementWidthSelection) {
  EXPECT_EQ(ElementWidthFor(0), 1);
  EXPECT_EQ(ElementWidthFor(255), 1);
  EXPECT_EQ(ElementWidthFor(256), 2);
  EXPECT_EQ(ElementWidthFor(65535), 2);
}

// CheckEncodable accepts exactly the matrices whose stored values all fit 16-bit elements,
// so every accepted one builds (BuildEncoding would abort on the others).
TEST(EncodingTest, CheckEncodableFindsTheValueBeyondSixteenBits) {
  Rng rng(61);
  // 784×256 at density 0.7: ~70k nonzeros per polarity overflow a CSC pointer, while the
  // per-column counts and steps of delta and mixed stay small.
  const TernaryMatrix wide = TernaryMatrix::Random(784, 256, 0.7, rng);
  const Status csc = CheckEncodable(EncodingKind::kCsc, wide);
  EXPECT_EQ(csc.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(csc.ToString().find("exceeds the 16-bit element range"), std::string::npos)
      << csc.ToString();
  for (EncodingKind kind : {EncodingKind::kDelta, EncodingKind::kMixed, EncodingKind::kBlock,
                            EncodingKind::kUnrolled}) {
    EXPECT_TRUE(CheckEncodable(kind, wide).ok()) << EncodingKindName(kind);
    EXPECT_EQ(BuildEncoding(kind, wide)->Decode(), wide) << EncodingKindName(kind);
  }
  // A 70,000-input column with one nonzero near the top: csc and mixed size their indices
  // for in_dim - 1 and cannot store it; delta's only step is the index itself.
  TernaryMatrix tall(70000, 1);
  tall.set(5, 0, 1);
  EXPECT_FALSE(CheckEncodable(EncodingKind::kCsc, tall).ok());
  EXPECT_FALSE(CheckEncodable(EncodingKind::kMixed, tall).ok());
  EXPECT_TRUE(CheckEncodable(EncodingKind::kDelta, tall).ok());
  EXPECT_EQ(BuildEncoding(EncodingKind::kDelta, tall)->Decode(), tall);
  tall.set(69999, 0, -1);
  EXPECT_FALSE(CheckEncodable(EncodingKind::kDelta, tall).ok());
}

TEST(EncodingTest, AppendArrayLittleEndianAndAligned) {
  std::vector<uint8_t> blob{0xAA};  // odd size to force alignment pad
  std::vector<uint32_t> values{0x1234, 0x5678};
  const DeviceArray arr = AppendArray(blob, values, 2);
  EXPECT_EQ(arr.offset % 2, 0u);
  EXPECT_EQ(blob[arr.offset], 0x34);
  EXPECT_EQ(blob[arr.offset + 1], 0x12);
  EXPECT_EQ(blob[arr.offset + 2], 0x78);
}

TEST(EncodingTest, BlockEncodingAlwaysUses8BitArrays) {
  Rng rng(2);
  const TernaryMatrix m = TernaryMatrix::Random(1000, 32, 0.1, rng);
  BlockEncoding enc(m, 256);
  std::vector<uint8_t> blob;
  const auto layout = enc.Pack(blob);
  EXPECT_EQ(layout.pos_meta.elem_width, 1);
  EXPECT_EQ(layout.pos_idx.elem_width, 1);
  EXPECT_EQ(layout.neg_meta.elem_width, 1);
  EXPECT_EQ(layout.neg_idx.elem_width, 1);
  EXPECT_EQ(layout.num_blocks, 4u);  // ceil(1000/256)
}

TEST(EncodingTest, CscUses16BitIndicesForLargeInputs) {
  Rng rng(3);
  const TernaryMatrix m = TernaryMatrix::Random(300, 8, 0.2, rng);
  CscEncoding enc(m);
  EXPECT_EQ(enc.positive().index_width, 2);
}

TEST(EncodingTest, BlockIsSmallestOnLargeSparseLayers) {
  // The paper's Fig. 5b finding: block-based encoding has the lowest flash footprint once
  // absolute indices (and, at high sparsity, some delta gaps) need 16 bits.
  Rng rng(4);
  const TernaryMatrix m = TernaryMatrix::Random(784, 64, 0.02, rng);
  EncodingOptions opt;
  size_t block_size = BuildEncoding(EncodingKind::kBlock, m, opt)->Sizes().total();
  for (EncodingKind kind : {EncodingKind::kCsc, EncodingKind::kDelta, EncodingKind::kMixed}) {
    EXPECT_LE(block_size, BuildEncoding(kind, m, opt)->Sizes().total())
        << EncodingKindName(kind);
  }
}

TEST(EncodingTest, DeltaStreamUsesRelativeOffsets) {
  TernaryMatrix m(20, 1);
  m.set(3, 0, 1);
  m.set(7, 0, 1);
  m.set(15, 0, 1);
  DeltaEncoding enc(m);
  const auto& pos = enc.positive();
  ASSERT_EQ(pos.counts[0], 3u);
  ASSERT_EQ(pos.stream.size(), 3u);
  EXPECT_EQ(pos.stream[0], 3u);  // absolute
  EXPECT_EQ(pos.stream[1], 4u);  // 7-3
  EXPECT_EQ(pos.stream[2], 8u);  // 15-7
}

// ---------------------------------------------------------------------------
// Quantized model export.
// ---------------------------------------------------------------------------

struct TrainedFixture {
  Dataset train;
  Dataset test;
  Network net;
};

TrainedFixture TrainSmallNeuroC(bool with_scale = true) {
  TrainedFixture fx;
  Dataset all = MakeDigits8x8(900, 77);
  Rng rng(5);
  auto [train, test] = all.Split(0.2, rng);
  fx.train = std::move(train);
  fx.test = std::move(test);
  NeuroCSpec spec;
  spec.hidden = {40};
  spec.layer.use_per_neuron_scale = with_scale;
  fx.net = BuildNeuroC(64, 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  Train(fx.net, fx.train, fx.test, cfg);
  return fx;
}

class QuantizedNeuroCTest : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(QuantizedNeuroCTest, QuantizedAccuracyCloseToFloat) {
  TrainedFixture fx = TrainSmallNeuroC();
  const float float_acc = EvaluateAccuracy(fx.net, fx.test);
  NeuroCQuantOptions opt;
  opt.encoding = GetParam();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train, opt);
  const QuantizedDataset qtest = QuantizeInputs(fx.test);
  const float q_acc = model.EvaluateAccuracy(qtest);
  EXPECT_GT(q_acc, float_acc - 0.05f)
      << "int8 quantization lost too much accuracy (" << float_acc << " -> " << q_acc << ")";
}

TEST_P(QuantizedNeuroCTest, AllEncodingsProduceIdenticalPredictions) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCQuantOptions opt_a;
  opt_a.encoding = GetParam();
  NeuroCQuantOptions opt_ref;
  opt_ref.encoding = EncodingKind::kCsc;
  NeuroCModel a = NeuroCModel::FromTrained(fx.net, fx.train, opt_a);
  NeuroCModel ref = NeuroCModel::FromTrained(fx.net, fx.train, opt_ref);
  const QuantizedDataset qtest = QuantizeInputs(fx.test);
  for (size_t i = 0; i < std::min<size_t>(qtest.num_examples(), 50); ++i) {
    std::span<const int8_t> x(qtest.example(i), qtest.input_dim);
    EXPECT_EQ(a.Predict(x), ref.Predict(x)) << "example " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, QuantizedNeuroCTest,
                         ::testing::ValuesIn(std::vector<EncodingKind>(
                             std::begin(kAllEncodingKinds), std::end(kAllEncodingKinds))));

TEST(QuantizedNeuroCTest, TnnAblationExportsWithoutScale) {
  TrainedFixture fx = TrainSmallNeuroC(/*with_scale=*/false);
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  for (const auto& layer : model.layers()) {
    EXPECT_FALSE(layer.has_scale());
    EXPECT_EQ(layer.scale_frac, 0);
  }
  // Weight bytes must be smaller than the scaled variant of identical architecture.
  TrainedFixture fx2 = TrainSmallNeuroC(/*with_scale=*/true);
  NeuroCModel scaled = NeuroCModel::FromTrained(fx2.net, fx2.train);
  EXPECT_LT(model.WeightBytes(), scaled.WeightBytes());
}

TEST(QuantizedMlpTest, QuantizedAccuracyCloseToFloat) {
  Dataset all = MakeDigits8x8(900, 78);
  Rng rng(6);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{32}, 0.0f, false}, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  Train(net, train, test, cfg);
  const float float_acc = EvaluateAccuracy(net, test);
  MlpModel model = MlpModel::FromTrained(net, train);
  const float q_acc = model.EvaluateAccuracy(QuantizeInputs(test));
  EXPECT_GT(q_acc, float_acc - 0.05f);
}

TEST(QuantizedMlpTest, BatchNormFoldingPreservesAccuracy) {
  Dataset all = MakeDigits8x8(900, 79);
  Rng rng(7);
  auto [train, test] = all.Split(0.2, rng);
  Network net = BuildMlp(64, 10, {{32}, 0.0f, true}, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  Train(net, train, test, cfg);
  const float float_acc = EvaluateAccuracy(net, test);
  ASSERT_GT(float_acc, 0.7f);
  MlpModel model = MlpModel::FromTrained(net, train);
  const float q_acc = model.EvaluateAccuracy(QuantizeInputs(test));
  EXPECT_GT(q_acc, float_acc - 0.07f) << "BN folding degraded accuracy";
  // Folded model has no extra BN layers: 2 quant layers only.
  EXPECT_EQ(model.layers().size(), 2u);
}

TEST(QuantizedMlpTest, MaccCountMatchesArchitecture) {
  Dataset all = MakeDigits8x8(200, 80);
  Rng rng(8);
  Network net = BuildMlp(64, 10, {{32}, 0.0f, false}, rng);
  MlpModel model = MlpModel::FromTrained(net, all);
  EXPECT_EQ(model.MaccCount(), 64u * 32 + 32 * 10);
}


TEST(StripScalesTest, RemovesScalesPreservesStructure) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  NeuroCModel stripped = StripScales(model);
  ASSERT_EQ(stripped.layers().size(), model.layers().size());
  for (size_t k = 0; k < model.layers().size(); ++k) {
    const auto& a = model.layers()[k];
    const auto& b = stripped.layers()[k];
    EXPECT_FALSE(b.has_scale());
    EXPECT_EQ(b.scale_frac, 0);
    EXPECT_EQ(a.in_dim, b.in_dim);
    EXPECT_EQ(a.out_dim, b.out_dim);
    EXPECT_EQ(a.encoding->kind(), b.encoding->kind());
    EXPECT_TRUE(a.encoding->Decode() == b.encoding->Decode());
    EXPECT_EQ(a.bias_q, b.bias_q);
    EXPECT_GE(b.requant_shift, 0);
  }
  EXPECT_LT(stripped.WeightBytes(), model.WeightBytes());
}

TEST(StripScalesTest, StrippedModelStillRunsEndToEnd) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  NeuroCModel stripped = StripScales(model);
  std::vector<int8_t> input(stripped.in_dim(), 17);
  std::vector<int8_t> out;
  stripped.Forward(input, out);
  EXPECT_EQ(out.size(), stripped.out_dim());
}

TEST(QuantizedNeuroCTest, ForwardRejectsWrongInputSize) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  std::vector<int8_t> bad(model.in_dim() + 1, 0);
  std::vector<int8_t> out;
  EXPECT_DEATH(model.Forward(bad, out), "");
}

TEST(QuantizedNeuroCTest, WeightBytesBreakdownIsConsistent) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  size_t sum = 0;
  for (const auto& l : model.layers()) {
    const size_t expected = l.encoding->Sizes().total() + l.scale_q.size() +
                            l.bias_q.size() * sizeof(int32_t);
    EXPECT_EQ(l.WeightBytes(), expected);
    sum += l.WeightBytes();
  }
  EXPECT_EQ(model.WeightBytes(), sum);
}

// ---------------------------------------------------------------------------
// Flash image packing.
// ---------------------------------------------------------------------------

uint32_t ReadWordAt(const std::vector<uint8_t>& blob, size_t offset) {
  return static_cast<uint32_t>(blob[offset]) | (static_cast<uint32_t>(blob[offset + 1]) << 8) |
         (static_cast<uint32_t>(blob[offset + 2]) << 16) |
         (static_cast<uint32_t>(blob[offset + 3]) << 24);
}

TEST(ModelImageTest, NeuroCDescriptorsAreConsistent) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  const uint32_t flash_base = 0x08001000;
  const uint32_t ram_base = 0x20000000;
  DeviceModelImage image = PackNeuroCModel(model, flash_base, ram_base);
  ASSERT_EQ(image.num_layers(), 2u);
  EXPECT_EQ(image.input_dim, 64u);
  EXPECT_EQ(image.output_dim, 10u);
  for (size_t k = 0; k < image.num_layers(); ++k) {
    const uint32_t desc_off = image.descriptor_addrs[k] - flash_base;
    const uint32_t in_dim = ReadWordAt(image.flash, desc_off + kDescInDim * 4);
    const uint32_t out_dim = ReadWordAt(image.flash, desc_off + kDescOutDim * 4);
    EXPECT_EQ(in_dim, model.layers()[k].in_dim);
    EXPECT_EQ(out_dim, model.layers()[k].out_dim);
    // Every flash pointer must stay inside the packed image.
    for (DescWord w : {kDescPosMetaAddr, kDescPosIdxAddr, kDescNegMetaAddr, kDescNegIdxAddr,
                       kDescBiasAddr}) {
      const uint32_t addr = ReadWordAt(image.flash, desc_off + w * 4);
      EXPECT_GE(addr, flash_base);
      EXPECT_LE(addr, flash_base + image.flash.size());
    }
    // RAM pointers must stay inside the planned region.
    for (DescWord w : {kDescInputAddr, kDescOutputAddr, kDescScratchAddr}) {
      const uint32_t addr = ReadWordAt(image.flash, desc_off + w * 4);
      EXPECT_GE(addr, ram_base);
      EXPECT_LT(addr, ram_base + image.ram_bytes_used);
    }
  }
  // Layer 0 output buffer must equal layer 1 input buffer (ping-pong), and the image's
  // final output address must be layer 1's output buffer.
  const uint32_t out0 =
      ReadWordAt(image.flash, image.descriptor_addrs[0] - flash_base + kDescOutputAddr * 4);
  const uint32_t in1 =
      ReadWordAt(image.flash, image.descriptor_addrs[1] - flash_base + kDescInputAddr * 4);
  const uint32_t out1 =
      ReadWordAt(image.flash, image.descriptor_addrs[1] - flash_base + kDescOutputAddr * 4);
  EXPECT_EQ(out0, in1);
  EXPECT_EQ(image.output_addr, out1);
  EXPECT_NE(out0, out1);
}

TEST(ModelImageTest, MlpImagePacksWeightsVerbatim) {
  Dataset all = MakeDigits8x8(300, 81);
  Rng rng(9);
  Network net = BuildMlp(64, 10, {{16}, 0.0f, false}, rng);
  MlpModel model = MlpModel::FromTrained(net, all);
  DeviceModelImage image = PackMlpModel(model, 0x08000800, 0x20000100);
  ASSERT_EQ(image.num_layers(), 2u);
  const uint32_t desc_off = image.descriptor_addrs[0] - 0x08000800;
  const uint32_t weights_addr = ReadWordAt(image.flash, desc_off + kDescWeightsAddr * 4);
  const uint32_t weights_off = weights_addr - 0x08000800;
  const auto& w = model.layers()[0].weights;
  ASSERT_LE(weights_off + w.size(), image.flash.size());
  EXPECT_EQ(std::memcmp(image.flash.data() + weights_off, w.data(), w.size()), 0);
  EXPECT_TRUE(image.variants[0].is_dense);
}

TEST(ModelImageTest, RamUsageFitsCortexM0Budget) {
  TrainedFixture fx = TrainSmallNeuroC();
  NeuroCModel model = NeuroCModel::FromTrained(fx.net, fx.train);
  DeviceModelImage image = PackNeuroCModel(model, 0x08001000, 0x20000000);
  EXPECT_LT(image.ram_bytes_used, 16u * 1024) << "activation plan exceeds 16 KB SRAM";
}

}  // namespace
}  // namespace neuroc
