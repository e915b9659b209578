#include "src/obs/block_profiler.h"

namespace neuroc {

PcProfile BlockProfiler::Collect() const {
  PcProfile out;
  out.source = kProfileSourceBlockCounters;
  for (const auto& [addr, stat] : cpu_.CollectBlockProfile()) {
    out.Add(addr, stat.op, stat.count, stat.cycles);
  }
  return out;
}

PcProfile BlockProfiler::CollectByOp() const {
  PcProfile out;
  out.source = kProfileSourceBlockCounters;
  const Cpu::OpProfile by_op = cpu_.CollectBlockProfileByOp();
  out.op_counts = by_op.counts;
  out.op_cycles = by_op.cycles;
  for (size_t op = 0; op < by_op.counts.size(); ++op) {
    out.total_instructions += by_op.counts[op];
    out.total_cycles += by_op.cycles[op];
  }
  return out;
}

}  // namespace neuroc
