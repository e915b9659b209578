#include <gtest/gtest.h>

#include "src/common/crc32.h"
#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/kernels/conv_desc.h"
#include "src/kernels/kernel_set.h"
#include "src/kernels/kernel_sources.h"
#include "src/runtime/deployed_model.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

// ---------------------------------------------------------------------------
// Kernel source generation sanity.
// ---------------------------------------------------------------------------

TEST(KernelSourcesTest, AllVariantsAssemble) {
  for (EncodingKind kind : kAllEncodingKinds) {
    if (kind == EncodingKind::kUnrolled) {
      continue;  // per-model codegen, covered by UnrolledKernel* below
    }
    for (int mw : {1, 2}) {
      for (int iw : {1, 2}) {
        for (bool scale : {false, true}) {
          if (kind == EncodingKind::kBlock && (mw != 1 || iw != 1)) {
            continue;
          }
          KernelVariant v;
          v.kind = kind;
          v.meta_width = static_cast<uint8_t>(mw);
          v.idx_width = static_cast<uint8_t>(iw);
          v.has_scale = scale;
          const std::string src = GenerateKernelSource(v);
          const AssembledProgram p = Assemble(src, 0x08000000);
          EXPECT_GT(p.bytes.size(), 40u) << KernelFunctionName(v);
          EXPECT_LT(p.bytes.size(), 1200u) << KernelFunctionName(v);
        }
      }
    }
  }
  KernelVariant dense;
  dense.is_dense = true;
  const AssembledProgram p = Assemble(GenerateKernelSource(dense), 0x08000000);
  EXPECT_GT(p.bytes.size(), 40u);
}

TEST(KernelSourcesTest, ConvKernelAssembles) {
  const AssembledProgram p = Assemble(GenerateConvKernelSource(), 0x08000000);
  EXPECT_GT(p.bytes.size(), 100u);
}

TEST(KernelSetTest, DeduplicatesVariants) {
  KernelVariant a;
  a.kind = EncodingKind::kDelta;
  KernelVariant b = a;
  const KernelVariant variants[] = {a, b, a};
  KernelSet set = KernelSet::Build(variants, 0x08000000);
  // One copy of the kernel only; entry resolvable.
  EXPECT_EQ(set.EntryFor(a), 0x08000000u);
}

TEST(KernelSetTest, VariantNamesAreUnique) {
  std::set<std::string> names;
  for (EncodingKind kind : kAllEncodingKinds) {
    if (kind == EncodingKind::kUnrolled) {
      continue;
    }
    for (int mw : {1, 2}) {
      for (int iw : {1, 2}) {
        for (bool scale : {false, true}) {
          KernelVariant v;
          v.kind = kind;
          v.meta_width = static_cast<uint8_t>(mw);
          v.idx_width = static_cast<uint8_t>(iw);
          v.has_scale = scale;
          names.insert(KernelFunctionName(v));
        }
      }
    }
  }
  // Unrolled kernels are named per model layer, so distinct layers never collide.
  for (int layer : {0, 1, 2}) {
    for (bool scale : {false, true}) {
      KernelVariant v;
      v.kind = EncodingKind::kUnrolled;
      v.unrolled_layer = static_cast<int16_t>(layer);
      v.has_scale = scale;
      names.insert(KernelFunctionName(v));
    }
  }
  EXPECT_EQ(names.size(), 4u * 2 * 2 * 2 + 3u * 2);
}

// ---------------------------------------------------------------------------
// Unrolled per-model codegen.
// ---------------------------------------------------------------------------

TEST(UnrolledKernelTest, GeneratesAndAssembles) {
  Rng rng(321);
  const TernaryMatrix m = TernaryMatrix::Random(300, 24, 0.1, rng);
  const UnrolledEncoding enc(m);
  KernelVariant v;
  v.kind = EncodingKind::kUnrolled;
  v.unrolled_layer = 0;
  v.has_scale = true;
  const std::string src = GenerateUnrolledKernelSource(v, enc);
  const AssembledProgram p = Assemble(src, 0x08000000);
  EXPECT_GT(p.bytes.size(), 100u);
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l0_s1"));
}

TEST(UnrolledKernelTest, SizeModelPinsAssembledBytes) {
  // The contract that keeps UnrolledEncoding::Sizes() honest: assembled kernel bytes must
  // equal the marginal size model plus the fixed scaffold, for any adjacency.
  Rng rng(987);
  for (const auto& [in, out, density] :
       {std::tuple<size_t, size_t, double>{64, 16, 0.2}, {300, 24, 0.05}, {17, 3, 0.9},
        {784, 32, 0.02}, {40, 8, 0.0}}) {
    for (const bool scale : {false, true}) {
      const TernaryMatrix m = TernaryMatrix::Random(in, out, density, rng);
      const UnrolledEncoding enc(m);
      KernelVariant v;
      v.kind = EncodingKind::kUnrolled;
      v.unrolled_layer = 3;
      v.has_scale = scale;
      const AssembledProgram p = Assemble(GenerateUnrolledKernelSource(v, enc), 0x08000000);
      EXPECT_EQ(p.bytes.size(), enc.Sizes().total() + UnrolledKernelFixedBytes(scale))
          << in << "x" << out << " d=" << density << " scale=" << scale;
    }
  }
}

TEST(UnrolledKernelTest, RoundTripDecode) {
  Rng rng(654);
  const TernaryMatrix m = TernaryMatrix::Random(120, 20, 0.15, rng);
  const UnrolledEncoding enc(m);
  EXPECT_EQ(enc.Decode(), m);
  EXPECT_EQ(enc.NonZeroCount(), m.NonZeroCount());
}

TEST(UnrolledKernelTest, DirectEncodingMatchesAssembledListing) {
  // KernelSet encodes the unrolled body straight to halfwords; the text listing run
  // through the assembler is its differential oracle. Sweep: the serving-churn shapes
  // (784x64, 784x128 at density 0.12) and the Fig. 5 N_out points that fit the 128 KB
  // flash, with and without scale, at a word-aligned base and at a base that is only
  // halfword-aligned (where an unrolled kernel lands after an odd number of halfwords).
  struct Shape {
    size_t in_dim;
    size_t out_dim;
    double density;
  };
  const Shape shapes[] = {{784, 64, 0.12},    {784, 128, 0.12},   {784, 32, 0.115},
                          {784, 64, 0.115},   {784, 128, 0.115},  {2048, 32, 0.045},
                          {2048, 64, 0.045},  {2048, 128, 0.045}};
  Rng rng(1405);
  for (const Shape& shape : shapes) {
    const TernaryMatrix m =
        TernaryMatrix::Random(shape.in_dim, shape.out_dim, shape.density, rng);
    const UnrolledEncoding enc(m);
    for (const bool scale : {false, true}) {
      KernelVariant v;
      v.kind = EncodingKind::kUnrolled;
      v.unrolled_layer = 1;
      v.has_scale = scale;
      const std::string listing = GenerateUnrolledKernelSource(v, enc);
      for (const uint32_t base : {0x08000000u, 0x08000402u}) {
        SCOPED_TRACE(std::to_string(shape.in_dim) + "x" + std::to_string(shape.out_dim) +
                     " d=" + std::to_string(shape.density) + " scale=" +
                     std::to_string(scale) + " base=" + std::to_string(base));
        const AssembledProgram oracle = Assemble(listing, base);
        AssembledProgram direct;
        direct.base_addr = base;
        AppendUnrolledKernel(v, enc, direct);
        EXPECT_EQ(direct.base_addr, oracle.base_addr);
        EXPECT_EQ(direct.bytes, oracle.bytes);
        EXPECT_EQ(direct.symbols, oracle.symbols);
        EXPECT_EQ(direct.bytes.size(), enc.Sizes().total() + UnrolledKernelFixedBytes(scale));
      }
    }
  }
}

TEST(UnrolledKernelTest, AppendedKernelMatchesAssemblingTheConcatenatedListing) {
  // Appending after another kernel: the unrolled kernel starts wherever the previous one
  // ended, and a text kernel may follow it at a halfword-only-aligned address.
  Rng rng(78);
  const UnrolledEncoding enc(TernaryMatrix::Random(100, 33, 0.2, rng));
  KernelVariant unrolled;
  unrolled.kind = EncodingKind::kUnrolled;
  unrolled.unrolled_layer = 1;
  KernelVariant block;
  block.kind = EncodingKind::kBlock;
  const std::string head = GenerateKernelSource(KernelVariant{});
  const std::string tail = GenerateKernelSource(block);
  const AssembledProgram oracle =
      Assemble(head + GenerateUnrolledKernelSource(unrolled, enc) + tail, 0x08000000);
  AssembledProgram pieces;
  pieces.base_addr = 0x08000000;
  AssembleAppend(head, pieces);
  AppendUnrolledKernel(unrolled, enc, pieces);
  AssembleAppend(tail, pieces);
  EXPECT_EQ(pieces.bytes, oracle.bytes);
  EXPECT_EQ(pieces.symbols, oracle.symbols);
  // Both joins fall on halfword-only-aligned addresses.
  EXPECT_EQ(pieces.SymbolAddr(KernelFunctionName(unrolled)) % 4, 2u);
  EXPECT_EQ(pieces.SymbolAddr(KernelFunctionName(block)) % 4, 2u);
}

// Model with a per-layer encoding choice, for KernelSet layouts that mix unrolled and
// table-driven kernels.
NeuroCModel MakeMixedModel(uint64_t seed, const std::vector<size_t>& dims,
                           const std::vector<EncodingKind>& encodings, double density,
                           bool has_scale) {
  Rng rng(seed);
  std::vector<QuantNeuroCLayer> layers;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    SyntheticNeuroCLayerSpec spec;
    spec.in_dim = dims[i];
    spec.out_dim = dims[i + 1];
    spec.density = density;
    spec.encoding = encodings[i];
    spec.has_scale = has_scale;
    spec.relu = i + 2 < dims.size();
    layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

TEST(KernelSetTest, ProgramsMatchPinnedDigests) {
  // Size and CRC-32 of whole kernel sections, recorded when every kernel was still
  // assembled from one concatenated listing. Seeds 9–12 put a kernel at an address that
  // is 2 mod 4 (after an unrolled kernel of odd halfword count).
  constexpr EncodingKind U = EncodingKind::kUnrolled;
  constexpr EncodingKind D = EncodingKind::kDelta;
  constexpr EncodingKind B = EncodingKind::kBlock;
  constexpr EncodingKind C = EncodingKind::kCsc;
  struct Pin {
    uint64_t seed;
    std::vector<size_t> dims;
    std::vector<EncodingKind> encodings;
    double density;
    bool has_scale;
    size_t bytes;
    uint32_t crc;
  };
  const Pin pins[] = {
      {7, {784, 128, 10}, {U, U}, 0.12, true, 74182, 0x42ebe6e8},
      {8, {784, 64, 10}, {U, U}, 0.12, false, 38174, 0xe6659dd0},
      {9, {100, 33, 17, 10}, {D, U, B}, 0.2, true, 1632, 0xb2c14c3b},
      {10, {100, 31, 19, 10}, {U, C, U}, 0.3, false, 6492, 0x38ef4ee4},
      {11, {64, 24, 10}, {U, U}, 0.2, true, 2696, 0x73a00226},
      {12, {64, 27, 10}, {U, D}, 0.25, true, 3242, 0x8f5d6c93},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    const NeuroCModel model =
        MakeMixedModel(pin.seed, pin.dims, pin.encodings, pin.density, pin.has_scale);
    const DeviceModelImage image = PackNeuroCModel(model, 0x08000000, 0x20000000);
    const KernelSet set = KernelSet::Build(image.variants, 0x08000000, false, &model);
    EXPECT_EQ(set.code_bytes(), pin.bytes);
    EXPECT_EQ(Crc32(std::span<const uint8_t>(set.program().bytes)), pin.crc);
  }
}

TEST(UnrolledKernelTest, PerLayerKernelsDoNotDeduplicate) {
  // Two unrolled layers with identical shape classes must still get distinct kernels —
  // their instruction streams differ because the adjacencies differ.
  Rng rng(4321);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 48;
  l0.out_dim = 48;
  l0.density = 0.2;
  l0.encoding = EncodingKind::kUnrolled;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  const AssembledProgram& p = deployed.kernel_program();
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l0_s1"));
  EXPECT_TRUE(p.symbols.contains("nc_unrolled_l1_s1"));
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(48, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    deployed.Predict(input);
    EXPECT_EQ(deployed.LastOutput(), expected);
  }
}

// ---------------------------------------------------------------------------
// THE load-bearing property: simulated Thumb kernels match the host reference bit-for-bit.
// ---------------------------------------------------------------------------

struct EquivalenceCase {
  EncodingKind kind;
  size_t in_dim;
  size_t out_dim;
  double density;
  bool has_scale;
  bool relu;
  int shift;
};

class KernelEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(KernelEquivalenceTest, SimulatorMatchesHostReference) {
  const EquivalenceCase p = GetParam();
  Rng rng(static_cast<uint64_t>(p.in_dim * 131 + p.out_dim * 7 +
                                static_cast<uint64_t>(p.kind) + (p.has_scale ? 1000 : 0)));
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = p.in_dim;
  spec.out_dim = p.out_dim;
  spec.density = p.density;
  spec.encoding = p.kind;
  spec.has_scale = p.has_scale;
  spec.relu = p.relu;
  spec.requant_shift = p.shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));

  DeployedModel deployed = DeployedModel::Deploy(model);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(p.in_dim, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    deployed.Predict(input);
    const std::vector<int8_t> actual = deployed.LastOutput();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "mismatch at output " << i << " trial " << trial << " kind "
          << EncodingKindName(p.kind);
    }
  }
}

TEST_P(KernelEquivalenceTest, LatencyIsInputIndependent) {
  // The paper's predictability claim: identical cycle count for any input.
  const EquivalenceCase p = GetParam();
  Rng rng(99 + static_cast<uint64_t>(p.kind));
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = p.in_dim;
  spec.out_dim = p.out_dim;
  spec.density = p.density;
  spec.encoding = p.kind;
  spec.has_scale = p.has_scale;
  spec.relu = p.relu;
  spec.requant_shift = p.shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  deployed.Predict(MakeRandomInput(p.in_dim, rng));
  const uint64_t first = deployed.report().cycles_per_inference;
  for (int trial = 0; trial < 3; ++trial) {
    deployed.Predict(MakeRandomInput(p.in_dim, rng));
    EXPECT_EQ(deployed.report().cycles_per_inference, first);
  }
}

std::vector<EquivalenceCase> EquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  for (EncodingKind kind : kAllEncodingKinds) {
    cases.push_back({kind, 64, 16, 0.2, true, true, 9});
    cases.push_back({kind, 300, 24, 0.1, true, false, 10});   // 16-bit indices
    cases.push_back({kind, 784, 32, 0.05, true, true, 11});   // large sparse
    cases.push_back({kind, 64, 16, 0.2, false, true, 5});     // TNN ablation (no scale)
    cases.push_back({kind, 40, 8, 0.9, true, true, 12});      // dense adjacency
    cases.push_back({kind, 17, 3, 0.5, true, false, 0});      // odd sizes, zero shift
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelEquivalenceTest,
                         ::testing::ValuesIn(EquivalenceCases()));

TEST(KernelEquivalenceTest, MultiLayerNetworkMatchesHost) {
  Rng rng(4242);
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 128;
  l0.out_dim = 48;
  l0.density = 0.15;
  l0.encoding = EncodingKind::kBlock;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 48;
  l1.out_dim = 10;
  l1.relu = false;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<int8_t> input = MakeRandomInput(128, rng);
    std::vector<int8_t> expected;
    model.Forward(input, expected);
    const int cls = deployed.Predict(input);
    EXPECT_EQ(cls, model.Predict(input));
    const std::vector<int8_t> actual = deployed.LastOutput();
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]);
    }
  }
}

TEST(KernelEquivalenceTest, DenseKernelMatchesHost) {
  Rng rng(777);
  for (auto [in, out] : {std::pair<size_t, size_t>{64, 16}, {100, 10}, {17, 5}}) {
    std::vector<QuantDenseLayer> layers;
    layers.push_back(MakeSyntheticDenseLayer(in, out, true, 10, rng));
    MlpModel model = MlpModel::FromLayers(std::move(layers));
    DeployedModel deployed = DeployedModel::Deploy(model);
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<int8_t> input = MakeRandomInput(in, rng);
      std::vector<int8_t> expected;
      model.Forward(input, expected);
      deployed.Predict(input);
      const std::vector<int8_t> actual = deployed.LastOutput();
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i]) << in << "x" << out << " output " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, DenseMultiLayerMatchesHost) {
  Rng rng(778);
  std::vector<QuantDenseLayer> layers;
  layers.push_back(MakeSyntheticDenseLayer(96, 32, true, 11, rng));
  layers.push_back(MakeSyntheticDenseLayer(32, 10, false, 11, rng));
  MlpModel model = MlpModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  const std::vector<int8_t> input = MakeRandomInput(96, rng);
  std::vector<int8_t> expected;
  model.Forward(input, expected);
  deployed.Predict(input);
  const std::vector<int8_t> actual = deployed.LastOutput();
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]);
  }
}

TEST(KernelEquivalenceTest, RandomizedArchitectureSweepMatchesHost) {
  // Differential fuzzing at the model level: random depths, widths, densities, and a
  // DIFFERENT encoding per layer — every sampled architecture must agree with the host
  // reference bit-for-bit on every output.
  Rng rng(0xF00D);
  for (int trial = 0; trial < 12; ++trial) {
    const int depth = static_cast<int>(rng.NextInt(1, 3));
    size_t in_dim = static_cast<size_t>(rng.NextInt(8, 200));
    const size_t first_in = in_dim;
    std::vector<QuantNeuroCLayer> layers;
    for (int d = 0; d < depth; ++d) {
      SyntheticNeuroCLayerSpec spec;
      spec.in_dim = in_dim;
      spec.out_dim = static_cast<size_t>(rng.NextInt(1, 48));
      spec.density = rng.NextUniform(0.02f, 0.9f);
      spec.encoding = kAllEncodingKinds[rng.NextBounded(std::size(kAllEncodingKinds))];
      spec.has_scale = rng.NextBool(0.8);
      spec.relu = d + 1 < depth ? true : rng.NextBool(0.5);
      spec.requant_shift = static_cast<int>(rng.NextInt(0, 14));
      layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
      in_dim = spec.out_dim;
    }
    NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
    DeployedModel deployed = DeployedModel::Deploy(model);
    for (int input_trial = 0; input_trial < 3; ++input_trial) {
      const std::vector<int8_t> input = MakeRandomInput(first_in, rng);
      std::vector<int8_t> expected;
      model.Forward(input, expected);
      deployed.Predict(input);
      ASSERT_EQ(deployed.LastOutput(), expected)
          << "trial " << trial << " model " << model.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Convolution kernel.
// ---------------------------------------------------------------------------

TEST(ConvKernelTest, SimulatorMatchesHostReference) {
  Rng rng(555);
  for (const ConvLayerSpec spec : {ConvLayerSpec{16, 1, 3, 4, 7}, ConvLayerSpec{8, 2, 3, 3, 8},
                                   ConvLayerSpec{12, 1, 5, 2, 9}}) {
    const int m = spec.input_size - spec.kernel_size + 1;
    const size_t field = static_cast<size_t>(spec.channels) * spec.kernel_size *
                         spec.kernel_size;
    std::vector<int8_t> weights(field * spec.filters);
    for (auto& w : weights) {
      w = static_cast<int8_t>(rng.NextInt(-128, 127));
    }
    std::vector<int32_t> bias(spec.filters);
    for (auto& b : bias) {
      b = static_cast<int32_t>(rng.NextInt(-1000, 1000));
    }
    const std::vector<int8_t> input = MakeRandomInput(
        static_cast<size_t>(spec.channels) * spec.input_size * spec.input_size, rng);

    Machine machine;
    KernelSet kernels = KernelSet::Build({}, 0x08000000, /*include_conv=*/true);
    machine.LoadBytes(0x08000000, kernels.program().bytes);
    const uint32_t data_base = 0x08000000 + ((static_cast<uint32_t>(kernels.code_bytes()) + 3u) & ~3u);
    PackedConvLayer packed = PackConvLayer(machine, spec, weights, bias, data_base, 0x20000000);
    machine.LoadBytes(packed.input_addr,
                      std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(input.data()), input.size()));
    machine.CallFunction(kernels.ConvEntry(), {packed.desc_addr});

    std::vector<int8_t> expected;
    RunConvReference(spec, weights, bias, input, expected);
    std::vector<int8_t> actual(static_cast<size_t>(spec.filters) * m * m);
    machine.memory().HostRead(packed.output_addr,
                              std::span<uint8_t>(reinterpret_cast<uint8_t*>(actual.data()),
                                                 actual.size()));
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "conv mismatch at " << i << " (N=" << spec.input_size << ")";
    }
  }
}

TEST(ConvKernelTest, MaccCountMatchesPaperFormula) {
  ConvLayerSpec spec{16, 1, 3, 8, 7};
  Machine machine;
  std::vector<int8_t> weights(static_cast<size_t>(spec.filters) * spec.kernel_size *
                              spec.kernel_size);
  std::vector<int32_t> bias(spec.filters, 0);
  PackedConvLayer packed =
      PackConvLayer(machine, spec, weights, bias, 0x08001000, 0x20000000);
  // Paper Eq. 7: MACCs = K * C * S^2 * M^2 with M = N - S + 1 = 14.
  EXPECT_EQ(packed.macc_count, 8u * 1 * 9 * 14 * 14);
  EXPECT_EQ(packed.output_size, 14);
}

// ---------------------------------------------------------------------------
// DeployedModel reporting.
// ---------------------------------------------------------------------------

TEST(DeployedModelTest, ReportAccountsCodeImageAndOverhead) {
  Rng rng(12);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 100;
  spec.out_dim = 20;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  std::vector<testutil::LinkCase> cases = testutil::MakeLinkCases();
  cases.push_back({"100x20", NeuroCModel::FromLayers(std::move(layers))});
  for (const testutil::LinkCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::visit(
        [](const auto& model) {
          const LinkedModel linked = LinkModel(model);
          DeployedModel deployed = DeployedModel::Deploy(model);
          EXPECT_EQ(deployed.report().program_bytes, linked.program_bytes);
          EXPECT_EQ(deployed.report().program_bytes,
                    deployed.report().code_bytes + deployed.report().image_bytes +
                        kRuntimeOverheadBytes);
          EXPECT_EQ(deployed.image_base(), linked.image.flash_data_base);
          EXPECT_GT(deployed.report().ram_bytes, 0u);
          deployed.MeasureLatencyMs();
          EXPECT_GT(deployed.report().cycles_per_inference, 0u);
          EXPECT_GT(deployed.report().latency_ms, 0.0);
        },
        c.model);
  }
}

TEST(DeployedModelTest, FlashImageMatchesPinnedDigests) {
  // The linked flash layout of the deploy-layer model set: kernel code at the reset
  // address, the runtime gap, then the packed image. Recorded while the layout was still
  // computed separately by the estimate, deploy and hex-export paths.
  struct Pin {
    size_t code_bytes;
    uint32_t image_base;
    size_t program_bytes;
    uint32_t code_crc;
    uint32_t image_crc;
  };
  const Pin pins[] = {
      {206, 0x080003d0, 1710, 0x80b9fa8e, 0x6cfff254},      // 64-csc
      {390, 0x08000488, 1910, 0xdb118a61, 0x12950533},      // 64-delta
      {334, 0x08000450, 1842, 0x87f0eacc, 0x9c68c59f},      // 64-mixed
      {414, 0x080004a0, 1934, 0xe17f20ff, 0xc60393c5},      // 64-block
      {2066, 0x08000b14, 3206, 0x844ac16d, 0xbc481c21},     // 64-unrolled
      {416, 0x080004a0, 26996, 0x42c08011, 0x002f8da6},     // 784-csc
      {390, 0x08000488, 14578, 0xdb118a61, 0xc2bff0fa},     // 784-delta
      {540, 0x0800051c, 26744, 0xc6fbcfa2, 0x287d3044},     // 784-mixed
      {414, 0x080004a0, 15498, 0xe17f20ff, 0x15dc5f33},     // 784-block
      {76234, 0x08012ccc, 77854, 0x744544d3, 0x1ab6455a},   // 784-unrolled
      {1502, 0x080008e0, 3614, 0x5f050c2a, 0x7546bcd9},     // mixed-layers
      {140, 0x0800038c, 5652, 0x351652a9, 0xe7ca8c8c},      // mlp
  };
  const std::vector<testutil::LinkCase> cases = testutil::MakeLinkCases();
  ASSERT_EQ(cases.size(), std::size(pins));
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    StatusOr<DeployedModel> dm = std::visit(
        [](const auto& model) { return DeployedModel::TryDeploy(model); }, cases[i].model);
    ASSERT_TRUE(dm.ok()) << dm.status().ToString();
    EXPECT_EQ(dm->report().code_bytes, pins[i].code_bytes);
    EXPECT_EQ(dm->image_base(), pins[i].image_base);
    EXPECT_EQ(dm->report().program_bytes, pins[i].program_bytes);
    EXPECT_EQ(Crc32(std::span<const uint8_t>(dm->kernel_program().bytes)), pins[i].code_crc);
    EXPECT_EQ(Crc32(std::span<const uint8_t>(dm->image().flash)), pins[i].image_crc);
  }
}

TEST(DeployedModelTest, OversizedModelAbortsAtDeploy) {
  Rng rng(13);
  // Two layers of 16-bit CSC totalling ~140 KB: beyond the 128 KB flash budget.
  SyntheticNeuroCLayerSpec l0;
  l0.in_dim = 700;
  l0.out_dim = 460;
  l0.density = 0.12;
  l0.encoding = EncodingKind::kCsc;
  SyntheticNeuroCLayerSpec l1 = l0;
  l1.in_dim = 460;
  l1.out_dim = 460;
  l1.density = 0.15;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(l0, rng));
  layers.push_back(MakeSyntheticNeuroCLayer(l1, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  EXPECT_GT(LinkModel(model).program_bytes, 128u * 1024);
  EXPECT_DEATH(DeployedModel::Deploy(model), "does not fit program memory");
}

TEST(DeployedModelTest, ScaleRemovalShrinksFootprintAndLatencyMarginally) {
  // The paper's Fig. 8b/8c finding in miniature: removing w_j saves <1 ms and only a few
  // hundred bytes.
  Rng rng(14);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 784;
  spec.out_dim = 128;
  spec.density = 0.12;
  SyntheticNeuroCLayerSpec tnn = spec;
  tnn.has_scale = false;
  std::vector<QuantNeuroCLayer> a;
  a.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  std::vector<QuantNeuroCLayer> b;
  b.push_back(MakeSyntheticNeuroCLayer(tnn, rng));
  NeuroCModel scaled = NeuroCModel::FromLayers(std::move(a));
  NeuroCModel plain = NeuroCModel::FromLayers(std::move(b));
  DeployedModel ds = DeployedModel::Deploy(scaled);
  DeployedModel dp = DeployedModel::Deploy(plain);
  const double ls = ds.MeasureLatencyMs();
  const double lp = dp.MeasureLatencyMs();
  EXPECT_LT(lp, ls);
  EXPECT_LT(ls - lp, 1.0);  // < 1 ms
  EXPECT_LT(dp.report().program_bytes, ds.report().program_bytes);
  EXPECT_LT(ds.report().program_bytes - dp.report().program_bytes, 600u);
}

}  // namespace
}  // namespace neuroc
