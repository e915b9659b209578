// Block-granular profiler: the fast-path counterpart of SimProfiler.
//
// Attaching a SimProfiler (a CpuProbe) transparently drops the CPU out of block-compiled
// execution — per-retire callbacks can only come from the step interpreter — so the fast
// path the runtime actually ships was exactly the path the profiler could not observe.
// BlockProfiler closes that gap: attaching it flips the CPU into block-profile mode
// (Cpu::EnableBlockProfile), which stays on block dispatch and pays one exec-counter bump
// per block (plus a per-op flash-wait hit counter on data accesses and the taken count of
// a conditional-branch terminator — the only dynamic cycle sources inside a block).
//
// Collect() expands those counters into the same exact per-PC/per-opcode attribution the
// step probe would have produced, using the block compiler's per-op static-cycle prefix
// sums: bit-identical to SimProfiler on straight-line (non-faulting) code, and with
// mid-block fault and interpreter-fallback residue folded in so total cycles still equal
// the profiled window's Cpu::cycles() delta exactly (pinned in tests/obs_test.cc).
// CollectByOp() folds the same counters by opcode without the per-PC expansion.

#ifndef NEUROC_SRC_OBS_BLOCK_PROFILER_H_
#define NEUROC_SRC_OBS_BLOCK_PROFILER_H_

#include "src/obs/sim_profiler.h"
#include "src/sim/cpu.h"

namespace neuroc {

class BlockProfiler {
 public:
  // Enables block-profile mode for the lifetime of this object and opens a fresh
  // attribution window (prior collected data is cleared).
  explicit BlockProfiler(Cpu& cpu) : cpu_(cpu) { cpu_.EnableBlockProfile(true); }
  ~BlockProfiler() { cpu_.EnableBlockProfile(false); }
  BlockProfiler(const BlockProfiler&) = delete;
  BlockProfiler& operator=(const BlockProfiler&) = delete;

  // Snapshot of everything attributed since attach (or the last Reset). Expansion runs
  // here, not per-block-exit, so reading the profile is the only O(program) cost.
  PcProfile Collect() const;
  // The same window folded by opcode only (op_counts/op_cycles and the totals; pc_stats
  // left empty): O(compiled ops) instead of one map entry per executed PC, for callers
  // that need the op-class summary and not the per-PC attribution.
  PcProfile CollectByOp() const;
  void Reset() { cpu_.ResetBlockProfile(); }

 private:
  Cpu& cpu_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_OBS_BLOCK_PROFILER_H_
