// Regenerates paper Fig. 5: latency (5a) and flash usage (5b) of the sparse encodings on
// the simulated Cortex-M0, sweeping the output size N_out in powers of two from 32 to 256
// for a single feedforward layer with fixed input dimension and sparsity (Sec. 4.3), plus
// the fifth (unrolled per-model codegen) encoding added on top of the paper's four.
//
// Paper reference points at N_out = 256 (in their fixed configuration):
//   latency: delta 26 ms < mixed 28 ms < block 30 ms < CSC 32 ms
//   flash:   block 11.6 KB (smallest, 8-bit by construction) ... CSC 20.1 KB (largest)
//
// We report two sparsity regimes, because which format is smallest depends on whether the
// delta/mixed streams still fit 8 bits: a moderate-density regime (deltas fit one byte →
// delta is both fastest and compact) and a high-sparsity regime (gaps overflow one byte →
// only the block format keeps 8-bit arrays, and is clearly smallest, as in Fig. 5b).
//
// The unrolled encoding inverts the trade: weights become straight-line Thumb with no
// runtime index decoding, so it is the fastest format at every point, but its flash cost
// per nonzero is the largest — the headline section pins the cycles-vs-delta ratio at
// density 0.05 and the sweep documents where unrolled stops fitting the 128 KB budget.
//
// Emits BENCH_fig5_encoding_tradeoffs.json. Every metric here is simulator-deterministic
// (cycles, flash bytes, energy proxy), so `--smoke` only exists for CLI symmetry with the
// other gated benches; the output is identical with or without it.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/synthetic.h"
#include "src/obs/json_writer.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/runtime/profile.h"

using namespace neuroc;

namespace {

struct CellResult {
  EncodingKind kind = EncodingKind::kCsc;
  uint64_t cycles = 0;
  double latency_ms = 0.0;
  size_t flash_bytes = 0;
  bool deployable = false;  // fits the paper board's 128 KB budget
  EnergyEstimate energy;
};

NeuroCModel MakeLayerModel(size_t in_dim, size_t n_out, double density, EncodingKind kind,
                           uint64_t seed) {
  Rng rng(seed);  // same adjacency sample per row across encodings
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = in_dim;
  spec.out_dim = n_out;
  spec.density = density;
  spec.encoding = kind;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  return NeuroCModel::FromLayers(std::move(layers));
}

// Measures one (shape, encoding) cell. Models that overflow the board's 128 KB flash are
// still measured for cycles/energy on a roomy-flash machine (the cycle count is a
// property of the code, not the budget) and reported deployable=false.
CellResult Measure(size_t in_dim, size_t n_out, double density, EncodingKind kind,
                   uint64_t seed) {
  NeuroCModel model = MakeLayerModel(in_dim, n_out, density, kind, seed);
  CellResult r;
  r.kind = kind;
  MachineConfig config = Stm32f072rb().ToMachineConfig();
  LinkedModel linked = LinkModel(model, config);
  r.flash_bytes = linked.program_bytes;
  r.deployable = r.flash_bytes <= benchutil::kFlashBudget;
  if (!r.deployable) {
    config.flash_size = 4 * 1024 * 1024;
  }
  DeployedModel deployed = DeployedModel::Deploy(std::move(linked), config);
  // The paper averages 100 timer runs; the simulator is cycle-deterministic (verified in
  // tests), so a single run is exact.
  r.latency_ms = deployed.MeasureLatencyMs();
  r.cycles = deployed.report().cycles_per_inference;
  r.energy = ProfileInferenceDetailed(deployed).energy;
  return r;
}

struct Regime {
  const char* name;
  const char* json_name;
  size_t in_dim;
  double density;
  uint64_t seed;
};

constexpr Regime kRegimes[] = {
    {"moderate density (8-bit delta streams)", "moderate_density", 784, 0.115, 41},
    {"high sparsity (16-bit absolute indices and delta gaps)", "high_sparsity", 2048,
     0.045, 43},
};
constexpr size_t kNouts[] = {32, 64, 128, 256};

void WriteCellJson(JsonWriter& w, const CellResult& r) {
  w.BeginObject();
  w.Key("encoding").Value(EncodingKindName(r.kind));
  w.Key("cycles_per_inference").Value(r.cycles);
  w.Key("latency_ms").ValueFixed(r.latency_ms, 4);
  w.Key("flash_bytes").Value(static_cast<uint64_t>(r.flash_bytes));
  w.Key("deployable").Value(r.deployable);
  w.Key("energy").BeginObject();
  w.Key("total_uj").ValueFixed(r.energy.total_uj(), 4);
  w.Key("core_uj").ValueFixed(r.energy.core_total_pj * 1e-6, 4);
  w.Key("flash_uj").ValueFixed(r.energy.flash_pj * 1e-6, 4);
  w.Key("sram_uj").ValueFixed(r.energy.sram_pj * 1e-6, 4);
  w.EndObject();
  w.EndObject();
}

const CellResult* FindCell(const std::vector<CellResult>& row, EncodingKind kind) {
  for (const CellResult& r : row) {
    if (r.kind == kind) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fig5_encoding_tradeoffs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0) {
      out_path = argv[i];
    }
  }

  std::printf("Fig. 5: encoding trade-offs on the simulated Cortex-M0 @ 8 MHz\n");
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("fig5_encoding_tradeoffs");
  w.Key("flash_budget_bytes").Value(static_cast<uint64_t>(benchutil::kFlashBudget));
  w.Key("regimes").BeginArray();

  for (const Regime& regime : kRegimes) {
    std::printf("\n--- %s: input dim %zu, density %.3f ---\n", regime.name, regime.in_dim,
                regime.density);
    std::printf("%6s |", "N_out");
    for (EncodingKind k : kAllEncodingKinds) {
      std::printf(" %8s_ms %8s_KB |", EncodingKindName(k), EncodingKindName(k));
    }
    std::printf("\n");

    w.BeginObject();
    w.Key("regime").Value(regime.json_name);
    w.Key("in_dim").Value(static_cast<uint64_t>(regime.in_dim));
    w.Key("density").ValueFixed(regime.density, 3);
    w.Key("rows").BeginArray();
    // Smallest N_out (if any) where unrolled overflows the flash budget while the block
    // format still fits — the flash side of the speed-for-flash crossover.
    size_t unrolled_overflow_nout = 0;
    for (const size_t nout : kNouts) {
      std::printf("%6zu |", nout);
      std::vector<CellResult> row;
      for (EncodingKind kind : kAllEncodingKinds) {
        row.push_back(Measure(regime.in_dim, nout, regime.density, kind, regime.seed));
        const CellResult& r = row.back();
        std::printf(" %11.2f %11.2f |", r.latency_ms,
                    static_cast<double>(r.flash_bytes) / 1024.0);
      }
      std::printf("\n");
      const CellResult* unrolled = FindCell(row, EncodingKind::kUnrolled);
      const CellResult* block = FindCell(row, EncodingKind::kBlock);
      const CellResult* delta = FindCell(row, EncodingKind::kDelta);
      if (unrolled_overflow_nout == 0 && !unrolled->deployable && block->deployable) {
        unrolled_overflow_nout = nout;
      }
      w.BeginObject();
      w.Key("n_out").Value(static_cast<uint64_t>(nout));
      w.Key("cycle_ratio_delta_vs_unrolled")
          .ValueFixed(static_cast<double>(delta->cycles) /
                          static_cast<double>(unrolled->cycles),
                      3);
      w.Key("encodings").BeginArray();
      for (const CellResult& r : row) {
        WriteCellJson(w, r);
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("unrolled_overflow_n_out")
        .Value(static_cast<uint64_t>(unrolled_overflow_nout));
    w.EndObject();
    if (unrolled_overflow_nout != 0) {
      std::printf(
          "  unrolled overflows the %zu KB budget from N_out = %zu (block still fits)\n",
          benchutil::kFlashBudget / 1024, unrolled_overflow_nout);
    }
  }
  w.EndArray();

  // Headline acceptance point: density 0.05, the regime the unrolled codegen targets.
  // The ratio is simulated-cycle-deterministic and gated by bench_compare.
  {
    const size_t in_dim = 784;
    const size_t n_out = 128;
    const double density = 0.05;
    const CellResult delta = Measure(in_dim, n_out, density, EncodingKind::kDelta, 47);
    const CellResult unrolled =
        Measure(in_dim, n_out, density, EncodingKind::kUnrolled, 47);
    const double ratio =
        static_cast<double>(delta.cycles) / static_cast<double>(unrolled.cycles);
    std::printf(
        "\nheadline @ %zux%zu density %.2f: delta %llu cycles, unrolled %llu cycles "
        "(%.2fx fewer); flash delta %.1f KB vs unrolled %.1f KB\n",
        in_dim, n_out, density, static_cast<unsigned long long>(delta.cycles),
        static_cast<unsigned long long>(unrolled.cycles), ratio,
        static_cast<double>(delta.flash_bytes) / 1024.0,
        static_cast<double>(unrolled.flash_bytes) / 1024.0);
    w.Key("headline").BeginObject();
    w.Key("in_dim").Value(static_cast<uint64_t>(in_dim));
    w.Key("n_out").Value(static_cast<uint64_t>(n_out));
    w.Key("density").ValueFixed(density, 2);
    w.Key("delta_cycles").Value(delta.cycles);
    w.Key("unrolled_cycles").Value(unrolled.cycles);
    w.Key("cycle_ratio_delta_vs_unrolled").ValueFixed(ratio, 3);
    w.Key("delta_flash_bytes").Value(static_cast<uint64_t>(delta.flash_bytes));
    w.Key("unrolled_flash_bytes").Value(static_cast<uint64_t>(unrolled.flash_bytes));
    w.EndObject();
  }

  std::printf(
      "\nShape checks vs paper: delta lowest latency of the four stream formats; CSC\n"
      "highest latency and largest stream flash; the block format is the only one\n"
      "guaranteed 8-bit, and is the most compact in the high-sparsity regime. The\n"
      "unrolled codegen format is fastest everywhere and largest everywhere: it trades\n"
      "flash for cycles and loses deployability first as the layer grows.\n");
  w.EndObject();
  benchutil::WriteBenchJson(out_path, w);
  return 0;
}
