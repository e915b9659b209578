// Convenience wrapper: an STM32F072-like machine (flash + SRAM + Cortex-M0 cycle model) with
// an AAPCS call interface. Benches load an assembled kernel plus a packed model image, call
// the kernel entry point with r0..r3 arguments, and read back cycles and memory statistics.

#ifndef NEUROC_SRC_SIM_MACHINE_H_
#define NEUROC_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <initializer_list>
#include <span>

#include "src/common/status.h"
#include "src/sim/cpu.h"
#include "src/sim/memory.h"

namespace neuroc {

struct MachineConfig {
  uint32_t flash_base = 0x08000000;
  uint32_t flash_size = 128 * 1024;  // STM32F072RB
  uint32_t ram_base = 0x20000000;
  uint32_t ram_size = 16 * 1024;
  CycleModel cycle_model = CycleModel::CortexM0();
  double clock_hz = 8e6;  // the paper's operating point
  uint64_t max_instructions = 400'000'000;  // runaway guard
};

// Full architectural snapshot of a machine: CPU registers/flags/counters plus memory
// contents and observation state. What is NOT captured (all host-side attachments or
// deterministically rebuilt derived state): probe/trace attachment and ring contents,
// the decode cache, compiled blocks, and block-profile windows. Restoring is therefore
// bit-identical for every architecturally observable quantity — cycles, instructions,
// registers, memory, stats, heatmaps — whether blocks or the step interpreter ran.
struct MachineSnapshot {
  CpuArchState cpu;
  MemoryState memory;
  FaultReport last_fault;
};

// How much of a snapshot Restore rewinds. kFull also rewrites flash (and invalidates the
// decode/block caches); kRamAndRegisters leaves flash and its derived caches untouched —
// the cheap per-trial fork/retry path when flash is known (or assumed) pristine.
enum class RestoreScope : uint8_t { kFull = 0, kRamAndRegisters = 1 };

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  MemoryMap& memory() { return memory_; }
  Cpu& cpu() { return cpu_; }
  const MachineConfig& config() const { return config_; }

  // Copies bytes into simulated memory (flash or RAM).
  void LoadBytes(uint32_t addr, std::span<const uint8_t> bytes);

  // Calls a Thumb function at `addr` with up to four register arguments. The stack pointer
  // is set to the top of SRAM; the function returns through the stop sentinel in LR.
  // Returns the cycle count consumed by the call, or — when the *guest* faults (undefined
  // instruction, unmapped/unaligned access, store to flash, instruction-budget overrun) —
  // a Status carrying a FaultReport with the faulting PC, address, cycle counters and the
  // trace-ring tail (when tracing is enabled). This is the single exception→Status
  // conversion boundary: no GuestFault propagates past it.
  StatusOr<uint64_t> TryCallFunction(uint32_t addr, std::initializer_list<uint32_t> args);

  // Watchdog-supervised variant: additionally stops the guest with a structured
  // kDeadlineExceeded FaultReport once the call has consumed more than `cycle_budget`
  // simulated cycles (relative to the call start; 0 = unsupervised). The deadline fires
  // at the same retired instruction on either execution path, and a budget that is never
  // approached changes no observable quantity — identical cycles, counters, heatmaps.
  StatusOr<uint64_t> TryCallFunction(uint32_t addr, std::initializer_list<uint32_t> args,
                                     uint64_t cycle_budget);

  // Captures the full architectural state (CPU + memory + last fault). Snapshots are
  // plain values: fork as many machines from one warmed-up state as needed (search
  // trials), or park one as the pristine image for scrub/retry recovery.
  MachineSnapshot Snapshot() const;
  // Restores a snapshot taken on a machine with the same configuration. kFull rewinds
  // everything including flash; kRamAndRegisters skips the flash rewrite (and the decode
  // cache invalidation it forces), which is the fast path for retry-from-snapshot when
  // flash integrity is separately assured.
  void Restore(const MachineSnapshot& snapshot, RestoreScope scope = RestoreScope::kFull);

  // Legacy abort-on-fault wrapper: prints the FaultReport diagnostic and aborts if the
  // call faults. For measurement code where a guest fault means the experiment itself is
  // invalid; fault-tolerant paths (search trials, fault campaigns) use TryCallFunction.
  uint64_t CallFunction(uint32_t addr, std::initializer_list<uint32_t> args);

  // FaultReport of the most recent TryCallFunction that faulted (code == kOk if the most
  // recent call succeeded). Kept for post-mortem inspection after the StatusOr is consumed.
  const FaultReport& last_fault() const { return last_fault_; }

  // r0 after the last call.
  uint32_t ReturnValue() const { return cpu_.reg(0); }

  // Converts cycles to milliseconds at the configured clock.
  double CyclesToMs(uint64_t cycles) const {
    return 1e3 * static_cast<double>(cycles) / config_.clock_hz;
  }

 private:
  MachineConfig config_;
  MemoryMap memory_;
  Cpu cpu_;
  FaultReport last_fault_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SIM_MACHINE_H_
