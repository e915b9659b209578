#include <string>
#include <utility>
#include <vector>

#include "src/core/synthetic.h"
#include "src/fuzz/oracles.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

namespace {

// Attaching any CpuProbe routes Cpu::Run through the step interpreter for every
// instruction; this one observes nothing.
struct StepOnlyProbe : CpuProbe {
  void OnRetire(uint32_t, Op, uint32_t) override {}
};

// One reference/device comparison across both simulator execution paths. `block` runs
// block-compiled execution (the deploy default), `step` the step interpreter (probe
// attached) — both must agree with the host byte-for-byte, and with each other on cycle
// counts (block compilation is a pure performance transform).
template <typename Model>
CaseResult CompareAgainstHost(const FuzzCase& c, const Model& model) {
  auto block_or = DeployedModel::TryDeploy(model);
  auto step_or = DeployedModel::TryDeploy(model);
  for (const auto* d : {&block_or, &step_or}) {
    if (!d->ok()) {
      if (d->status().code() == ErrorCode::kResourceExhausted) {
        return {FuzzVerdict::kSkip, "resource_exhausted: model does not fit the device"};
      }
      return {FuzzVerdict::kFail, "deploy failed: " + d->status().ToString()};
    }
  }
  StepOnlyProbe probe;  // declared first so it outlives its attachment
  struct Mode {
    const char* name;
    DeployedModel deployed;
  };
  Mode modes[] = {{"block", std::move(*block_or)}, {"step", std::move(*step_or)}};
  modes[1].deployed.machine().cpu().set_probe(&probe);

  const std::vector<std::vector<int8_t>> inputs = KernelCaseInputs(c);
  std::vector<int8_t> expected;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string which = " (input " + std::to_string(i) + ")";
    model.Forward(inputs[i], expected);
    const int host_pred = model.Predict(inputs[i]);

    uint64_t block_cycles = 0;
    for (Mode& mode : modes) {
      const std::string where = std::string(", path ") + mode.name + which;
      const StatusOr<int> pred = mode.deployed.TryPredict(inputs[i]);
      if (!pred.ok()) {
        return {FuzzVerdict::kFail, "guest fault" + where + ": " + pred.status().ToString()};
      }
      if (mode.deployed.LastOutput() != expected) {
        return {FuzzVerdict::kFail, "sim output != host output" + where};
      }
      if (*pred != host_pred) {
        return {FuzzVerdict::kFail, "sim argmax != host argmax" + where};
      }
      const uint64_t cycles = mode.deployed.report().cycles_per_inference;
      if (&mode == &modes[0]) {
        block_cycles = cycles;
      } else if (cycles != block_cycles) {
        return {FuzzVerdict::kFail,
                "cycle count differs between execution paths" + which + ": block=" +
                    std::to_string(block_cycles) + " " + mode.name + "=" +
                    std::to_string(cycles)};
      }
    }
  }
  return {};
}

}  // namespace

FuzzCase GenerateKernelCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kKernel;
  c.case_seed = case_seed;
  Rng g(FuzzSubSeed(case_seed, 0));

  c.encoding = static_cast<int>(g.NextBounded(6));  // five sparse encodings + dense q7
  // Bucketed widths: the small buckets hit degenerate shapes (empty columns, single
  // neurons), the large ones push past 255 inputs where encodings switch to 16-bit
  // index arithmetic.
  switch (g.NextBounded(4)) {
    case 0: c.in_dim = static_cast<uint32_t>(1 + g.NextBounded(12)); break;
    case 1: c.in_dim = static_cast<uint32_t>(13 + g.NextBounded(52)); break;
    case 2: c.in_dim = static_cast<uint32_t>(65 + g.NextBounded(96)); break;
    default: c.in_dim = static_cast<uint32_t>(161 + g.NextBounded(160)); break;
  }
  switch (g.NextBounded(3)) {
    case 0: c.out_dim = static_cast<uint32_t>(1 + g.NextBounded(8)); break;
    case 1: c.out_dim = static_cast<uint32_t>(9 + g.NextBounded(24)); break;
    default: c.out_dim = static_cast<uint32_t>(33 + g.NextBounded(16)); break;
  }
  c.density_ppm = static_cast<uint32_t>(20'000 + g.NextBounded(930'001));
  c.block_size = static_cast<uint32_t>(16 + g.NextBounded(240));
  c.has_scale = g.NextBool(0.8);
  c.relu = g.NextBool(0.5);
  // Keep out_frac = in_frac + scale_frac - requant_shift non-negative in both scale modes.
  c.requant_shift = static_cast<int>(g.NextInt(0, c.has_scale ? 12 : 7));
  c.input_dist = static_cast<InputDist>(g.NextBounded(4));
  return c;
}

std::vector<std::vector<int8_t>> KernelCaseInputs(const FuzzCase& c) {
  if (!c.explicit_input.empty()) {
    return {c.explicit_input};
  }
  Rng rng(FuzzSubSeed(c.case_seed, 2));
  std::vector<std::vector<int8_t>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(MakeRandomInput(c.in_dim, c.input_dist, rng));
  }
  return inputs;
}

CaseResult RunKernelCase(const FuzzCase& c) {
  if (c.in_dim == 0 || c.out_dim == 0) {
    return {FuzzVerdict::kFail, "invalid kernel case: zero dimension"};
  }
  if (!c.explicit_input.empty() && c.explicit_input.size() != c.in_dim) {
    return {FuzzVerdict::kFail, "invalid kernel case: input length != in_dim"};
  }
  Rng mrng(FuzzSubSeed(c.case_seed, 1));
  if (c.encoding == kDenseBaselineEncoding) {
    std::vector<QuantDenseLayer> layers;
    layers.push_back(
        MakeSyntheticDenseLayer(c.in_dim, c.out_dim, c.relu, c.requant_shift, mrng));
    const MlpModel model = MlpModel::FromLayers(std::move(layers));
    return CompareAgainstHost(c, model);
  }
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = c.in_dim;
  spec.out_dim = c.out_dim;
  spec.density = static_cast<double>(c.density_ppm) * 1e-6;
  spec.encoding = static_cast<EncodingKind>(c.encoding);
  spec.encoding_options.block_size = c.block_size;
  spec.has_scale = c.has_scale;
  spec.relu = c.relu;
  spec.requant_shift = c.requant_shift;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, mrng));
  const NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  return CompareAgainstHost(c, model);
}

}  // namespace neuroc
