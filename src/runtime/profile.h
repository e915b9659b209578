// Execution profiling of deployed models on the simulated MCU. Instruction mix and
// per-category cycle attribution come from exact per-opcode data gathered by the
// block-granular counters, and the detailed profile adds the per-PC attribution (a
// PcProfile, src/obs/sim_profiler.h), per-symbol hotspots, per-layer cycles, memory
// heatmaps and the SRAM stack high-water mark. This is the quantitative backing for the
// paper's Sec. 4.1 discussion — on a cache-less in-order core, the memory-access pattern
// and control path *are* the performance model.

#ifndef NEUROC_SRC_RUNTIME_PROFILE_H_
#define NEUROC_SRC_RUNTIME_PROFILE_H_

#include <cstdint>
#include <string>

#include "src/obs/energy.h"
#include "src/obs/json_writer.h"
#include "src/obs/sim_profiler.h"
#include "src/runtime/deployed_model.h"

namespace neuroc {

// Stack headroom below which ProfileInferenceDetailed warns: the board has 16 KB of SRAM
// in total, and a stack growing into the activation buffers corrupts inference silently.
inline constexpr uint32_t kStackHeadroomWarnBytes = 256;

struct ExecutionProfile {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  // Instruction counts by category.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t alu = 0;        // data processing, moves, shifts, extends
  uint64_t multiplies = 0;
  uint64_t branches = 0;   // B/B<cond>/BL/BX + PC writes
  uint64_t stack_ops = 0;  // PUSH/POP
  // Cycle attribution by the same categories (sums to `cycles` exactly; includes each
  // instruction's fetch wait states, memory-access costs and branch penalties).
  uint64_t load_cycles = 0;
  uint64_t store_cycles = 0;
  uint64_t alu_cycles = 0;
  uint64_t multiply_cycles = 0;
  uint64_t branch_cycles = 0;
  uint64_t stack_cycles = 0;
  // Memory traffic (accesses, not bytes).
  uint64_t flash_reads = 0;
  uint64_t sram_reads = 0;
  uint64_t sram_writes = 0;

  double CyclesPerInstruction() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
};

// Full attribution package for one inference.
struct InferenceProfile {
  ExecutionProfile summary;
  PcProfile attribution;            // raw per-PC/per-opcode attribution (+ provenance)
  HotspotReport hotspots;           // per-symbol/per-loop-label cycle attribution
  std::vector<uint64_t> layer_cycles;
  MemHeatmap heatmap;               // per-region access histograms
  uint32_t stack_bytes_used = 0;    // SRAM stack high-water mark
  uint32_t stack_headroom_bytes = 0;  // gap between deepest stack and activation top
  EnergyModel energy_model;         // proxy weights the estimate was computed with
  EnergyEstimate energy;            // cycles × active-power + access-energy estimate
};

// Runs one inference on `model` (zero input) and returns the op-class summary of exactly
// that run. The block-granular counters (src/obs/block_profiler.h) are folded by opcode in
// O(compiled ops) — no per-PC map — so the profiled run stays on block-compiled execution
// and reading it costs little even for a 100k-instruction unrolled kernel. The summary
// equals that of ProfileInferenceDetailed and of the step-interpreter probe (SimProfiler),
// which tests keep as the reference.
ExecutionProfile ProfileInference(DeployedModel& model);

// The load-time golden run: ProfileInference's zero-input inference, then a RAM-and-
// register restore from the pristine snapshot. An inference cannot write flash (a guest
// store to flash faults), so flash, its decoded slots and the compiled blocks stay warm for
// every later run, and the machine is otherwise as deployed. One run yields both the
// watchdog calibration (DeployedModel::ArmWatchdog) and the energy proxy the serving cache
// attaches to responses. On a guest fault the machine is fully scrubbed and the fault
// returned.
StatusOr<ExecutionProfile> RunGoldenInference(DeployedModel& model);

// The energy proxy of one profiled inference (EnergyModel::CortexM0Proxy() by default).
EnergyEstimate EstimateEnergy(const ExecutionProfile& profile,
                              const EnergyModel& model = EnergyModel::CortexM0Proxy());

// As above, plus symbol-resolved hotspots, memory heatmap (`heatmap_bucket_bytes`-sized
// buckets), stack tracking, and the energy-proxy estimate. Warns via NEUROC_LOG_WARN
// when the measured stack high water comes within kStackHeadroomWarnBytes of the
// activation buffers.
InferenceProfile ProfileInferenceDetailed(DeployedModel& model,
                                          uint32_t heatmap_bucket_bytes = 64);

// Multi-line human-readable report.
std::string FormatProfile(const ExecutionProfile& profile);

// FormatProfile + hotspot table + per-layer cycles + stack/heatmap summary. Set
// `annotated_disassembly` to append the per-instruction listing.
std::string FormatInferenceProfile(const InferenceProfile& profile,
                                   const DeployedModel& model,
                                   bool annotated_disassembly = false);

// Machine-readable form of the full profile (one JSON object at the writer's position).
void WriteInferenceProfileJson(JsonWriter& w, const InferenceProfile& profile,
                               const DeployedModel& model);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_PROFILE_H_
