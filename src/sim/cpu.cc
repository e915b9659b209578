#include "src/sim/cpu.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "src/common/check.h"
#include "src/isa/decoder.h"
#include "src/isa/disassembler.h"
#include "src/sim/guest_fault.h"

namespace neuroc {

Cpu::Cpu(MemoryMap* memory, CycleModel model) : mem_(memory), model_(model) {
  mem_->RegisterFlashWriteListener(&icache_valid_);
  step_block_.ops.resize(1);
}

Cpu::~Cpu() { mem_->UnregisterFlashWriteListener(&icache_valid_); }

void Cpu::EnableBlockProfile(bool enabled) {
  if (enabled) {
    ResetBlockProfile();  // each enable opens a fresh attribution window
  } else {
    FlushBlockProfiles();  // keep in-flight block counters readable after detach
  }
  block_profile_enabled_ = enabled;
}

void Cpu::ResetBlockProfile() {
  for (const Block& blk : blocks_) {
    blk.prof_execs = 0;
    blk.prof_bcond_taken = 0;
    std::fill(blk.prof_mem_hits.begin(), blk.prof_mem_hits.end(), 0);
  }
  block_profile_.clear();
}

const std::map<uint32_t, Cpu::ProfiledPc>& Cpu::CollectBlockProfile() const {
  FlushBlockProfiles();
  return block_profile_;
}

void Cpu::RebuildDecodeCache() {
  const std::span<const uint8_t> flash = mem_->flash_bytes();
  // Only decode up to the load high-water mark: images occupy a few KB of the 128 KB
  // flash, and slots past it hold the erase pattern the CPU normally never reaches (if it
  // does, StepInner falls back to the raw fetch path, which behaves identically).
  const size_t covered = std::min<size_t>(flash.size(), mem_->flash_high_water());
  const size_t slots = covered / 2;
  icache_.resize(slots);
  for (size_t s = 0; s < slots; ++s) {
    const uint16_t hw1 = static_cast<uint16_t>(flash[2 * s] | (flash[2 * s + 1] << 8));
    // Same peek rule as the interpreter: hw2 is read only for a wide (BL-prefix)
    // encoding, and reads as 0 when the prefix sits on the last mapped halfword.
    uint16_t hw2 = 0;
    uint8_t flash_reads = 1;
    if ((hw1 & 0xF800) == 0xF000 && 2 * s + 3 < flash.size()) {
      hw2 = static_cast<uint16_t>(flash[2 * s + 2] | (flash[2 * s + 3] << 8));
      flash_reads = 2;
    }
    icache_[s] = Predecoded{DecodeInstr(hw1, hw2), hw1, hw2, flash_reads};
  }
  // Compiled blocks are views over the predecoded slots; drop them whenever the slots
  // change (any host write into flash lands here via the shared listener flag).
  FlushBlockHistograms();
  FlushBlockProfiles();
  blocks_.clear();
  block_index_.assign(slots, kBlockNotCompiled);
  icache_valid_ = true;
}

namespace {

// APSR bit masks for the block compiler's liveness pass.
constexpr uint8_t kFlagN = 1;
constexpr uint8_t kFlagZ = 2;
constexpr uint8_t kFlagC = 4;
constexpr uint8_t kFlagV = 8;
constexpr uint8_t kAllFlags = kFlagN | kFlagZ | kFlagC | kFlagV;
constexpr uint8_t kFlagsNZ = kFlagN | kFlagZ;
constexpr uint8_t kFlagsNZC = kFlagN | kFlagZ | kFlagC;

struct FlagEffects {
  uint8_t reads = 0;       // flag bits the instruction consumes
  uint8_t may_write = 0;   // bits it can write (shift-by-register writes C conditionally)
  uint8_t must_write = 0;  // bits it always writes (these kill earlier writes)
};

FlagEffects FlagEffectsOf(Op op, int32_t imm) {
  switch (op) {
    case Op::kLslImm:
      // imm == 0 is the MOVS register form: C unchanged.
      return imm == 0 ? FlagEffects{0, kFlagsNZ, kFlagsNZ}
                      : FlagEffects{0, kFlagsNZC, kFlagsNZC};
    case Op::kLsrImm:
    case Op::kAsrImm:
      return {0, kFlagsNZC, kFlagsNZC};
    case Op::kLslReg:
    case Op::kLsrReg:
    case Op::kAsrReg:
    case Op::kRor:
      // C is written only when the register-held amount is non-zero.
      return {0, kFlagsNZC, kFlagsNZ};
    case Op::kAddReg:
    case Op::kSubReg:
    case Op::kAddImm3:
    case Op::kSubImm3:
    case Op::kAddImm8:
    case Op::kSubImm8:
    case Op::kCmpImm:
    case Op::kCmpReg:
    case Op::kCmpHi:
    case Op::kCmn:
    case Op::kNeg:
      return {0, kAllFlags, kAllFlags};
    case Op::kAdc:
    case Op::kSbc:
      return {kFlagC, kAllFlags, kAllFlags};
    case Op::kMovImm:
    case Op::kAnd:
    case Op::kEor:
    case Op::kOrr:
    case Op::kBic:
    case Op::kMvn:
    case Op::kTst:
    case Op::kMul:
      return {0, kFlagsNZ, kFlagsNZ};
    case Op::kBcond:
      return {kAllFlags, 0, 0};
    default:
      return {};
  }
}

// Ops whose execution can raise a GuestFault (every memory access; a branch itself cannot
// fault — a bad target faults on the next fetch, in the interpreter). The architectural
// flags are observable at a fault, so liveness must be forced across these.
bool MayFault(Op op) {
  switch (op) {
    case Op::kLdrLit:
    case Op::kStrReg: case Op::kStrImm: case Op::kStrSp:
    case Op::kLdrReg: case Op::kLdrImm: case Op::kLdrSp:
    case Op::kStrbReg: case Op::kStrbImm:
    case Op::kLdrbReg: case Op::kLdrbImm:
    case Op::kStrhReg: case Op::kStrhImm:
    case Op::kLdrhReg: case Op::kLdrhImm:
    case Op::kLdrsbReg: case Op::kLdrshReg:
    case Op::kPush: case Op::kPop: case Op::kLdm: case Op::kStm:
      return true;
    default:
      return false;
  }
}

// Control-flow instructions end a basic block (they are included as its terminator).
bool IsTerminator(const Instr& in) {
  switch (in.op) {
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlx:
      return true;
    case Op::kAddHi:
    case Op::kMovHi:
      return in.rd == kRegPc;
    case Op::kPop:
      return (in.reglist & 0x100) != 0;
    default:
      return false;
  }
}

int PopCount8(uint16_t reglist) {
  int count = 0;
  for (int r = 0; r <= 8; ++r) {
    if (reglist & (1 << r)) {
      ++count;
    }
  }
  return count;
}

// Static execution cost of an instruction: the one cycle table both execution paths charge from
// (excluding the per-fetch flash wait states and the dynamic parts: data-access wait
// states and the taken/not-taken split of kBcond, which the executor resolves at runtime).
uint32_t StaticExecCycles(const Instr& in, const CycleModel& m) {
  switch (in.op) {
    case Op::kMul:
      return static_cast<uint32_t>(m.mul);
    case Op::kLdrLit:
    case Op::kLdrReg: case Op::kLdrImm: case Op::kLdrSp:
    case Op::kLdrbReg: case Op::kLdrbImm:
    case Op::kLdrhReg: case Op::kLdrhImm:
    case Op::kLdrsbReg: case Op::kLdrshReg:
      return static_cast<uint32_t>(m.load);
    case Op::kStrReg: case Op::kStrImm: case Op::kStrSp:
    case Op::kStrbReg: case Op::kStrbImm:
    case Op::kStrhReg: case Op::kStrhImm:
      return static_cast<uint32_t>(m.store);
    case Op::kPush:
    case Op::kLdm:
    case Op::kStm:
      return static_cast<uint32_t>(m.push_pop_base + PopCount8(in.reglist));
    case Op::kPop: {
      uint32_t c = static_cast<uint32_t>(m.push_pop_base + PopCount8(in.reglist));
      if (in.reglist & 0x100) {
        c += static_cast<uint32_t>(m.pop_pc_extra);
      }
      return c;
    }
    case Op::kB:
      return static_cast<uint32_t>(m.branch_taken);
    case Op::kBl:
      return static_cast<uint32_t>(m.bl);
    case Op::kBx:
    case Op::kBlx:
      return static_cast<uint32_t>(m.bx);
    case Op::kBcond:
      return 0;  // taken/not-taken resolved by the executor
    case Op::kAddHi:
    case Op::kMovHi:
      return static_cast<uint32_t>(in.rd == kRegPc ? m.pc_alu : m.alu);
    default:
      return static_cast<uint32_t>(m.alu);
  }
}

}  // namespace

Cpu::BlockOp Cpu::LowerOp(const Instr& in, uint32_t addr, uint8_t fetch_reads) {
  BlockOp o;
  o.op = in.op;
  o.rd = in.rd;
  o.rn = in.rn;
  o.rm = in.rm;
  o.cond = in.cond;
  o.reglist = in.reglist;
  o.imm = in.imm;
  o.fetch_reads = fetch_reads;
  o.is_mem = MayFault(in.op) ? 1 : 0;
  o.addr = addr;
  // Pre-resolve PC-relative operands to absolute values.
  switch (in.op) {
    case Op::kLdrLit:
    case Op::kAdr:
      o.imm = static_cast<int32_t>(((addr + 4) & ~3u) + static_cast<uint32_t>(in.imm));
      break;
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
      o.imm = static_cast<int32_t>(addr + 4 + static_cast<uint32_t>(in.imm));
      break;
    default:
      break;
  }
  return o;
}

// Walks predecoded slots from `entry_slot` until a control-flow terminator, an
// invalid/UDF decode, the end of decode coverage, or the length cap, fusing the run into
// one Block. Returns the block index, or kBlockStepOnly when the entry cannot start a
// block. A backward pass then marks which APSR writes are dead (overwritten before any
// consumer — conditional branch or ADC/SBC — with no intervening possible-fault site) so
// the executor can skip materializing them.
int32_t Cpu::CompileBlock(size_t entry_slot) {
  // Bounds compile time and the O(length) cold-path fault fixup; a longer straight-line
  // run simply continues as a fall-through successor block. Sized so the per-column bodies
  // of unrolled kernels (kUnrolled compiles ~3 ops per nonzero between `bl` terminators)
  // are eaten whole even for near-dense columns of wide layers.
  constexpr size_t kMaxBlockOps = 16384;
  Block b;
  uint32_t static_cycles = 0;
  size_t slot = entry_slot;
  while (slot < icache_.size() && b.ops.size() < kMaxBlockOps) {
    const Predecoded& pd = icache_[slot];
    const Instr& in = pd.instr;
    if (in.op == Op::kInvalid || in.op == Op::kUdf) {
      break;  // the interpreter raises the fault with the exact seed diagnostics
    }
    BlockOp o = LowerOp(in, mem_->flash_base() + static_cast<uint32_t>(2 * slot),
                        pd.flash_reads);
    o.cycles_before = static_cycles;
    static_cycles += static_cast<uint32_t>(model_.flash_wait_states) +
                     StaticExecCycles(in, model_);
    b.ops.push_back(o);
    if (IsTerminator(in)) {
      b.terminated = true;
      break;
    }
    slot += in.length;
  }
  if (b.ops.empty()) {
    block_index_[entry_slot] = kBlockStepOnly;
    return kBlockStepOnly;
  }
  // Backward APSR liveness. Flags are live out of every block (the interpreter or a
  // successor block may consume them), and live into every possible-fault site (the
  // architectural flags are part of the faulted machine state).
  uint8_t live = kAllFlags;
  for (size_t k = b.ops.size(); k-- > 0;) {
    BlockOp& o = b.ops[k];
    const FlagEffects fe = FlagEffectsOf(o.op, o.imm);
    o.set_flags = (fe.may_write & live) != 0 ? 1 : 0;
    live = static_cast<uint8_t>((live & ~fe.must_write) | fe.reads);
    if (o.is_mem) {
      live = kAllFlags;
    }
  }
  // Batched accounting: the static cycle total, total counted fetches and the per-Op
  // retire histogram. The profiled execute path indexes prof_mem_hits unconditionally,
  // so it is sized here once instead of checked on every block entry.
  b.static_cycles = static_cycles;
  b.prof_mem_hits.assign(b.ops.size(), 0);
  // Worst-case dynamic cycles one execution can add: every possible-fault op charged as a
  // flash data access (the reglist ops never charge dynamically — conservative is fine,
  // over-estimating only breaks to the exact step interpreter a little earlier), plus the
  // dearer outcome of a kBcond terminator. Run uses static_cycles + dyn_bound to prove a
  // block cannot cross the watchdog cycle limit.
  const uint32_t fw = static_cast<uint32_t>(model_.flash_wait_states);
  std::array<uint32_t, 80> histo{};
  for (const BlockOp& o : b.ops) {
    b.fetch_reads += o.fetch_reads;
    if (o.is_mem) {
      b.dyn_bound += fw;
    }
    if (o.op == Op::kBcond) {
      b.dyn_bound += static_cast<uint32_t>(
          std::max(model_.branch_taken, model_.branch_not_taken));
    }
    ++histo[static_cast<size_t>(o.op)];
  }
  for (size_t op = 0; op < histo.size(); ++op) {
    if (histo[op] != 0) {
      b.histogram.emplace_back(static_cast<uint8_t>(op), histo[op]);
    }
  }
  blocks_.push_back(std::move(b));
  const int32_t index = static_cast<int32_t>(blocks_.size() - 1);
  block_index_[entry_slot] = index;
  return index;
}

CpuArchState Cpu::SaveState() const {
  // Fold deferred block-exit accounting so the captured histogram reads exactly as the
  // step interpreter would have left it.
  FlushBlockHistograms();
  CpuArchState s;
  s.regs = regs_;
  s.pc = pc_;
  s.flags = flags_;
  s.cycles = cycles_;
  s.instructions = instructions_;
  s.op_histogram = op_histogram_;
  return s;
}

void Cpu::RestoreState(const CpuArchState& state) {
  // Flush first so block exec counters accrued since the capture fold into the *current*
  // histogram and then get overwritten — never into the restored one.
  FlushBlockHistograms();
  regs_ = state.regs;
  pc_ = state.pc;
  flags_ = state.flags;
  cycles_ = state.cycles;
  instructions_ = state.instructions;
  op_histogram_ = state.op_histogram;
}

void Cpu::ResetCounters() {
  cycles_ = 0;
  instructions_ = 0;
  // Deferred block histograms describe retires that predate the reset: fold them in (so
  // the exec counters read zero) and then wipe everything, exactly as the interpreter's
  // per-step accounting would have been wiped.
  FlushBlockHistograms();
  op_histogram_.fill(0);
  mem_->ResetStats();
}

void Cpu::FlushBlockHistograms() const {
  for (const Block& blk : blocks_) {
    if (blk.execs == 0) {
      continue;
    }
    for (const auto& [hist_op, count] : blk.histogram) {
      op_histogram_[hist_op] += count * blk.execs;
    }
    blk.execs = 0;
  }
}

// Exact expansion of the per-block counters: each op's static cycle cost (fetch wait
// states + fixed execution cost) is the delta of consecutive cycles_before prefix sums,
// charged prof_execs times; the only dynamic costs are the recorded per-op flash-wait
// hits and the taken/not-taken split of a kBcond terminator. Overlapping blocks (a block
// entered mid-way compiles its own view of the same PCs) simply sum into the same map
// entries. Mid-block fault residue and interpreter-step residue were already folded into
// block_profile_ at the point they occurred, so after this flush the map's cycle total
// equals the exact interpreter-visible charge for every retired instruction.
template <typename Fn>
void Cpu::ForEachProfiledOp(const Block& blk, Fn&& fn) const {
  if (blk.prof_execs == 0) {
    // Counters are always sized, so "never ran profiled" needs a hit scan — nonzero hits
    // without an exec happen only when every profiled run faulted mid-block.
    bool any_hits = false;
    for (const uint64_t h : blk.prof_mem_hits) {
      any_hits |= h != 0;
    }
    if (!any_hits) {
      return;
    }
  }
  const uint64_t fetch_ws = static_cast<uint64_t>(model_.flash_wait_states);
  const size_t n = blk.ops.size();
  for (size_t k = 0; k < n; ++k) {
    const BlockOp& o = blk.ops[k];
    const uint64_t static_k =
        (k + 1 < n ? blk.ops[k + 1].cycles_before : blk.static_cycles) - o.cycles_before;
    uint64_t cyc = blk.prof_execs * static_k;
    cyc += blk.prof_mem_hits[k] * fetch_ws;
    if (o.op == Op::kBcond) {
      cyc += blk.prof_bcond_taken * static_cast<uint64_t>(model_.branch_taken) +
             (blk.prof_execs - blk.prof_bcond_taken) *
                 static_cast<uint64_t>(model_.branch_not_taken);
    }
    if (blk.prof_execs == 0 && cyc == 0) {
      continue;  // nothing retired at this PC through this block
    }
    fn(o, blk.prof_execs, cyc);
  }
}

void Cpu::FlushBlockProfiles() const {
  for (const Block& blk : blocks_) {
    ForEachProfiledOp(blk, [&](const BlockOp& o, uint64_t count, uint64_t cycles) {
      ProfiledPc& stat = block_profile_[o.addr];
      stat.count += count;
      stat.cycles += cycles;
      stat.op = o.op;
    });
    blk.prof_execs = 0;
    blk.prof_bcond_taken = 0;
    std::fill(blk.prof_mem_hits.begin(), blk.prof_mem_hits.end(), 0);
  }
}

Cpu::OpProfile Cpu::CollectBlockProfileByOp() const {
  OpProfile out;
  auto add = [&](Op op, uint64_t count, uint64_t cycles) {
    out.counts[static_cast<size_t>(op)] += count;
    out.cycles[static_cast<size_t>(op)] += cycles;
  };
  for (const Block& blk : blocks_) {
    ForEachProfiledOp(blk, [&](const BlockOp& o, uint64_t count, uint64_t cycles) {
      add(o.op, count, cycles);
    });
  }
  // Already-expanded entries: fault and interpreter-step residue, plus whatever an
  // earlier flush moved out of the block counters.
  for (const auto& [addr, stat] : block_profile_) {
    add(stat.op, stat.count, stat.cycles);
  }
  return out;
}

Op Cpu::PeekOpAt(uint32_t addr) const {
  // Host-side (uncounted) decode peek, mirroring the interpreter's fetch rule: hw2 is
  // read only for a wide (BL-prefix) encoding whose second halfword is mapped.
  if (mem_->RegionOf(addr) == MemRegion::kNone) {
    return Op::kInvalid;
  }
  uint8_t raw[2];
  mem_->HostRead(addr, raw);
  const uint16_t hw1 = static_cast<uint16_t>(raw[0] | (raw[1] << 8));
  uint16_t hw2 = 0;
  if ((hw1 & 0xF800) == 0xF000 && mem_->RegionOf(addr + 2) != MemRegion::kNone) {
    mem_->HostRead(addr + 2, raw);
    hw2 = static_cast<uint16_t>(raw[0] | (raw[1] << 8));
  }
  return DecodeInstr(hw1, hw2).op;
}

void Cpu::EnableTrace(size_t depth) {
  trace_.assign(depth, TraceEntry{});
  trace_pos_ = 0;
  trace_count_ = 0;
}

std::string Cpu::DumpTrace() const {
  std::string out;
  if (trace_.empty()) {
    return out;
  }
  const size_t n = trace_count_ < trace_.size() ? static_cast<size_t>(trace_count_)
                                                : trace_.size();
  // Oldest first: the ring position points at the next overwrite slot.
  size_t start = trace_count_ < trace_.size() ? 0 : trace_pos_;
  for (size_t i = 0; i < n; ++i) {
    const TraceEntry& e = trace_[(start + i) % trace_.size()];
    const Instr in = DecodeInstr(e.hw1, e.hw2);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %08x: %04x  ", e.addr, e.hw1);
    out += buf;
    out += Disassemble(in, e.addr);
    out += "\n";
  }
  return out;
}

Cpu::AddResult Cpu::AddWithCarry(uint32_t x, uint32_t y, bool carry_in) {
  const uint64_t unsigned_sum =
      static_cast<uint64_t>(x) + static_cast<uint64_t>(y) + (carry_in ? 1 : 0);
  const int64_t signed_sum = static_cast<int64_t>(static_cast<int32_t>(x)) +
                             static_cast<int64_t>(static_cast<int32_t>(y)) +
                             (carry_in ? 1 : 0);
  AddResult r;
  r.value = static_cast<uint32_t>(unsigned_sum);
  r.carry = unsigned_sum != static_cast<uint64_t>(r.value);
  r.overflow = signed_sum != static_cast<int64_t>(static_cast<int32_t>(r.value));
  return r;
}

bool Cpu::EvalCond(Cond cond) const {
  switch (cond) {
    case Cond::kEq: return flags_.z;
    case Cond::kNe: return !flags_.z;
    case Cond::kCs: return flags_.c;
    case Cond::kCc: return !flags_.c;
    case Cond::kMi: return flags_.n;
    case Cond::kPl: return !flags_.n;
    case Cond::kVs: return flags_.v;
    case Cond::kVc: return !flags_.v;
    case Cond::kHi: return flags_.c && !flags_.z;
    case Cond::kLs: return !flags_.c || flags_.z;
    case Cond::kGe: return flags_.n == flags_.v;
    case Cond::kLt: return flags_.n != flags_.v;
    case Cond::kGt: return !flags_.z && flags_.n == flags_.v;
    case Cond::kLe: return flags_.z || flags_.n != flags_.v;
    case Cond::kAl: return true;
  }
  return false;
}

void Cpu::Run(uint64_t max_instructions, uint64_t cycle_limit) {
  const uint64_t start = instructions_;
  while (!halted()) {
    if (BlockModeActive()) {
      if (!icache_valid_) {
        RebuildDecodeCache();
      }
      // Chained block dispatch: block mode's activation conditions and the cache validity
      // cannot change inside Run (probes/traces attach between calls, and the guest
      // cannot write flash — it faults), so blocks execute back to back until the pc
      // leaves compiled coverage, an entry can't start a block, or a block could cross
      // the instruction budget or the watchdog cycle limit. Those cases break to the step
      // interpreter, which keeps the budget/deadline fault firing at exactly the same
      // retired instruction as a fully stepped run. A wrapping pc (SRAM, unmapped, the halt
      // sentinel) makes `slot` huge and exits the loop through the coverage check.
      const uint32_t flash_base = mem_->flash_base();
      const size_t covered_slots = block_index_.size();
      for (;;) {
        const size_t slot = static_cast<size_t>(pc_ - flash_base) >> 1;
        if (slot >= covered_slots) {
          break;
        }
        int32_t index = block_index_[slot];
        if (index == kBlockNotCompiled) {
          index = CompileBlock(slot);
        }
        if (index < 0) {
          break;
        }
        const Block& blk = blocks_[static_cast<size_t>(index)];
        if (instructions_ - start + blk.ops.size() > max_instructions) {
          break;
        }
        if (cycle_limit != 0 &&
            cycles_ + blk.static_cycles + blk.dyn_bound > cycle_limit) {
          break;
        }
        if (block_profile_enabled_) {
          ExecuteBlock<ExecMode::kBlockProfiled>(blk);
        } else {
          ExecuteBlock<ExecMode::kBlock>(blk);
        }
      }
      if (halted()) {
        return;
      }
    }
    Step();
    if (instructions_ - start > max_instructions) {
      throw GuestFault{ErrorCode::kInstructionBudgetExceeded, "instruction budget exceeded",
                       /*addr=*/0, /*pc=*/pc_, /*instruction=*/0};
    }
    if (cycle_limit != 0 && cycles_ > cycle_limit) {
      throw GuestFault{ErrorCode::kDeadlineExceeded, "watchdog cycle deadline exceeded",
                       /*addr=*/0, /*pc=*/pc_, /*instruction=*/0};
    }
  }
}

// Executes one op-chain with a single dispatch: no per-op counter updates, trace or probe
// checks, and no decode-cache lookups. This is the only code that gives an op its
// register, flag, memory and dynamic-cycle effect; static costs come from
// StaticExecCycles, folded into the chain's static_cycles. For a compiled block (kBlock,
// kBlockProfiled) cycle, instruction, histogram and fetch accounting are applied once at
// block exit, and a GuestFault mid-block patches them to the exact state a stepped run
// shows at the faulting instruction before rethrowing. For StepInner's one-op chain
// (kStep, every flag live) only the op's cycles are added: the interpreter has done the
// rest before dispatch, so a fault propagates with nothing to patch. GCC does not inline
// a function containing a computed goto, so the step path pays one out-of-line call per
// instruction; the block path pays one per block.
// Dispatch plumbing for ExecuteBlock. With GNU extensions every op ends in its own
// indirect jump through the label table (token threading), giving the host branch
// predictor one dispatch site per preceding op instead of a single shared one; other
// compilers get a plain switch in a loop with identical semantics.
#if defined(__GNUC__) || defined(__clang__)
#define NEUROC_BLOCK_COMPUTED_GOTO 1
#else
#define NEUROC_BLOCK_COMPUTED_GOTO 0
#endif

#if NEUROC_BLOCK_COMPUTED_GOTO
// NEUROC_NEXT also advances the profiled hit-counter cursor in lockstep with the op
// pointer (discarded in the unprofiled instantiation), so charge_mem records a flash-wait
// hit with a plain `++*prof_slot` — no per-access op-index math on the hot path. The
// one-op step chain exits after its op without the end-of-chain compare.
#define NEUROC_OP(name) lbl_##name:
#define NEUROC_NEXT                                   \
  do {                                                \
    if constexpr (kProfiled) ++prof_slot;             \
    if (kOneOp || ++op == op_end) goto block_exit;    \
    goto* kDispatch[static_cast<size_t>(op->op)];     \
  } while (0)
#else
#define NEUROC_OP(name) case Op::name:
#define NEUROC_NEXT                                   \
  {                                                   \
    if constexpr (kProfiled) ++prof_slot;             \
    if (kOneOp || ++op == op_end) goto block_exit;    \
  }                                                   \
  break
#endif

// Reads of r15 observe the instruction's address + 4; only hi-register forms and BX/BLX
// can encode r15 as an operand, so the compare lives in those cases alone.
#define NEUROC_RVAL(r) ((r) == kRegPc ? op->addr + 4 : regs_[(r)])
template <Cpu::ExecMode kMode>
#if NEUROC_BLOCK_COMPUTED_GOTO && defined(__GNUC__) && !defined(__clang__)
// Keep GCC's global CSE from re-merging the per-op indirect jumps into one shared
// dispatch site, which would undo the branch-prediction benefit of token threading.
__attribute__((optimize("no-gcse")))
#endif
void Cpu::ExecuteBlock(const Block& b) {
  constexpr bool kProfiled = kMode == ExecMode::kBlockProfiled;
  constexpr bool kOneOp = kMode == ExecMode::kStep;
  const uint32_t fetch_ws = static_cast<uint32_t>(model_.flash_wait_states);
  const uint32_t flash_base = mem_->flash_base();
  const uint32_t flash_size = mem_->flash_size();
  // All static cycle costs are folded into b.static_cycles; only the data-access flash
  // wait states and the conditional-branch outcome accumulate here.
  uint64_t dyn = 0;
  const size_t n = b.ops.size();
  const BlockOp* ops = b.ops.data();
  const BlockOp* const op_end = ops + n;
  const BlockOp* op = ops;
  // Cursor into the block's per-op hit counters, advanced by NEUROC_NEXT in lockstep
  // with `op` (sized to ops.size() at compile time, so it stays in bounds by the same
  // argument op does).
  [[maybe_unused]] uint64_t* prof_slot = nullptr;
  if constexpr (kProfiled) {
    prof_slot = b.prof_mem_hits.data();
  }
  // Data-access flash wait states (the static load/store cost is folded). Under
  // profiling the hit is also attributed to the current op so the expansion can charge
  // it to the exact PC.
  const auto charge_mem = [&](uint32_t a) {
    if (fetch_ws != 0 && a - flash_base < flash_size) {
      dyn += fetch_ws;
      if constexpr (kProfiled) {
        ++*prof_slot;
      }
    }
  };
  try {
#if NEUROC_BLOCK_COMPUTED_GOTO
    // One entry per Op value, in enum order (spot-checked below so silent reordering of
    // the enum cannot misroute dispatch).
    static const void* const kDispatch[] = {
        &&lbl_kInvalid,
        &&lbl_kLslImm,   &&lbl_kLsrImm,   &&lbl_kAsrImm,
        &&lbl_kAddReg,   &&lbl_kSubReg,   &&lbl_kAddImm3,  &&lbl_kSubImm3,
        &&lbl_kMovImm,   &&lbl_kCmpImm,   &&lbl_kAddImm8,  &&lbl_kSubImm8,
        &&lbl_kAnd,      &&lbl_kEor,      &&lbl_kLslReg,   &&lbl_kLsrReg,
        &&lbl_kAsrReg,   &&lbl_kAdc,      &&lbl_kSbc,      &&lbl_kRor,
        &&lbl_kTst,      &&lbl_kNeg,      &&lbl_kCmpReg,   &&lbl_kCmn,
        &&lbl_kOrr,      &&lbl_kMul,      &&lbl_kBic,      &&lbl_kMvn,
        &&lbl_kAddHi,    &&lbl_kCmpHi,    &&lbl_kMovHi,    &&lbl_kBx,
        &&lbl_kBlx,      &&lbl_kLdrLit,   &&lbl_kStrReg,   &&lbl_kStrhReg,
        &&lbl_kStrbReg,  &&lbl_kLdrsbReg, &&lbl_kLdrReg,   &&lbl_kLdrhReg,
        &&lbl_kLdrbReg,  &&lbl_kLdrshReg, &&lbl_kStrImm,   &&lbl_kLdrImm,
        &&lbl_kStrbImm,  &&lbl_kLdrbImm,  &&lbl_kStrhImm,  &&lbl_kLdrhImm,
        &&lbl_kStrSp,    &&lbl_kLdrSp,    &&lbl_kAdr,      &&lbl_kAddSpImm,
        &&lbl_kAddSp7,   &&lbl_kSubSp7,   &&lbl_kSxth,     &&lbl_kSxtb,
        &&lbl_kUxth,     &&lbl_kUxtb,     &&lbl_kRev,      &&lbl_kRev16,
        &&lbl_kRevsh,    &&lbl_kPush,     &&lbl_kPop,      &&lbl_kLdm,
        &&lbl_kStm,      &&lbl_kNop,      &&lbl_kBcond,    &&lbl_kB,
        &&lbl_kBl,       &&lbl_kUdf,
    };
    static_assert(static_cast<size_t>(Op::kLslImm) == 1 &&
                      static_cast<size_t>(Op::kMovImm) == 8 &&
                      static_cast<size_t>(Op::kAnd) == 12 &&
                      static_cast<size_t>(Op::kAddHi) == 28 &&
                      static_cast<size_t>(Op::kLdrLit) == 33 &&
                      static_cast<size_t>(Op::kStrImm) == 42 &&
                      static_cast<size_t>(Op::kStrSp) == 48 &&
                      static_cast<size_t>(Op::kSxth) == 54 &&
                      static_cast<size_t>(Op::kPush) == 61 &&
                      static_cast<size_t>(Op::kNop) == 65 &&
                      static_cast<size_t>(Op::kUdf) == 69,
                  "dispatch table must match the Op enum order");
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == 70,
                  "dispatch table must cover every Op");
    goto* kDispatch[static_cast<size_t>(op->op)];
#else
    for (;;) {
      switch (op->op) {
#endif
    NEUROC_OP(kLslImm) {
      const uint32_t v = regs_[op->rm];
      uint32_t result;
      if (op->imm == 0) {
        result = v;  // MOVS register form: C unchanged
      } else {
        if (op->set_flags) {
          flags_.c = (v >> (32 - op->imm)) & 1;
        }
        result = v << op->imm;
      }
      regs_[op->rd] = result;
      if (op->set_flags) {
        SetNZ(result);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kLsrImm) {
      const uint32_t v = regs_[op->rm];
      const int amount = op->imm == 0 ? 32 : op->imm;
      uint32_t result;
      if (amount == 32) {
        if (op->set_flags) {
          flags_.c = (v >> 31) & 1;
        }
        result = 0;
      } else {
        if (op->set_flags) {
          flags_.c = (v >> (amount - 1)) & 1;
        }
        result = v >> amount;
      }
      regs_[op->rd] = result;
      if (op->set_flags) {
        SetNZ(result);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kAsrImm) {
      const uint32_t v = regs_[op->rm];
      const int amount = op->imm == 0 ? 32 : op->imm;
      uint32_t result;
      if (amount == 32) {
        if (op->set_flags) {
          flags_.c = (v >> 31) & 1;
        }
        result = (v >> 31) ? 0xFFFFFFFFu : 0u;
      } else {
        if (op->set_flags) {
          flags_.c = (v >> (amount - 1)) & 1;
        }
        result = static_cast<uint32_t>(static_cast<int32_t>(v) >> amount);
      }
      regs_[op->rd] = result;
      if (op->set_flags) {
        SetNZ(result);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kAddReg)
    NEUROC_OP(kAddImm3) {
      const uint32_t op2 =
          op->op == Op::kAddReg ? regs_[op->rm] : static_cast<uint32_t>(op->imm);
      if (op->set_flags) {
        const AddResult r = AddWithCarry(regs_[op->rn], op2, false);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] = regs_[op->rn] + op2;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kSubReg)
    NEUROC_OP(kSubImm3) {
      const uint32_t op2 =
          op->op == Op::kSubReg ? regs_[op->rm] : static_cast<uint32_t>(op->imm);
      if (op->set_flags) {
        const AddResult r = AddWithCarry(regs_[op->rn], ~op2, true);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] = regs_[op->rn] - op2;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kMovImm)
      regs_[op->rd] = static_cast<uint32_t>(op->imm);
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kCmpImm)
    NEUROC_OP(kCmpReg)
    NEUROC_OP(kCmpHi) {
      if (op->set_flags) {
        const uint32_t lhs = NEUROC_RVAL(op->rn);
        const uint32_t rhs =
            op->op == Op::kCmpImm ? static_cast<uint32_t>(op->imm) : NEUROC_RVAL(op->rm);
        const AddResult r = AddWithCarry(lhs, ~rhs, true);
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kAddImm8) {
      if (op->set_flags) {
        const AddResult r =
            AddWithCarry(regs_[op->rd], static_cast<uint32_t>(op->imm), false);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] += static_cast<uint32_t>(op->imm);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kSubImm8) {
      if (op->set_flags) {
        const AddResult r =
            AddWithCarry(regs_[op->rd], ~static_cast<uint32_t>(op->imm), true);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] -= static_cast<uint32_t>(op->imm);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kAnd)
      regs_[op->rd] &= regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kEor)
      regs_[op->rd] ^= regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kOrr)
      regs_[op->rd] |= regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kBic)
      regs_[op->rd] &= ~regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kMvn)
      regs_[op->rd] = ~regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kTst)
      if (op->set_flags) {
        SetNZ(regs_[op->rn] & regs_[op->rm]);
      }
      NEUROC_NEXT;
    NEUROC_OP(kCmn)
      if (op->set_flags) {
        const AddResult r = AddWithCarry(regs_[op->rn], regs_[op->rm], false);
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      }
      NEUROC_NEXT;
    NEUROC_OP(kLslReg)
    NEUROC_OP(kLsrReg)
    NEUROC_OP(kAsrReg)
    NEUROC_OP(kRor) {
      const uint32_t amount = regs_[op->rm] & 0xFF;
      uint32_t v = regs_[op->rd];
      if (amount != 0) {
        switch (op->op) {
          case Op::kLslReg:
            if (amount < 32) {
              if (op->set_flags) {
                flags_.c = (v >> (32 - amount)) & 1;
              }
              v <<= amount;
            } else {
              if (op->set_flags) {
                flags_.c = (amount == 32) ? (v & 1) : false;
              }
              v = 0;
            }
            break;
          case Op::kLsrReg:
            if (amount < 32) {
              if (op->set_flags) {
                flags_.c = (v >> (amount - 1)) & 1;
              }
              v >>= amount;
            } else {
              if (op->set_flags) {
                flags_.c = (amount == 32) ? ((v >> 31) & 1) : false;
              }
              v = 0;
            }
            break;
          case Op::kAsrReg:
            if (amount < 32) {
              if (op->set_flags) {
                flags_.c = (v >> (amount - 1)) & 1;
              }
              v = static_cast<uint32_t>(static_cast<int32_t>(v) >> amount);
            } else {
              if (op->set_flags) {
                flags_.c = (v >> 31) & 1;
              }
              v = (v >> 31) ? 0xFFFFFFFFu : 0u;
            }
            break;
          case Op::kRor: {
            const uint32_t rot = amount & 31;
            if (rot != 0) {
              v = (v >> rot) | (v << (32 - rot));
            }
            if (op->set_flags) {
              flags_.c = (v >> 31) & 1;
            }
            break;
          }
          default:
            break;
        }
      }
      regs_[op->rd] = v;
      if (op->set_flags) {
        SetNZ(v);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kAdc) {
      if (op->set_flags) {
        const AddResult r = AddWithCarry(regs_[op->rd], regs_[op->rm], flags_.c);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] += regs_[op->rm] + (flags_.c ? 1u : 0u);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kSbc) {
      if (op->set_flags) {
        const AddResult r = AddWithCarry(regs_[op->rd], ~regs_[op->rm], flags_.c);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] += ~regs_[op->rm] + (flags_.c ? 1u : 0u);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kNeg) {
      if (op->set_flags) {
        const AddResult r = AddWithCarry(~regs_[op->rm], 0, true);
        regs_[op->rd] = r.value;
        SetNZ(r.value);
        flags_.c = r.carry;
        flags_.v = r.overflow;
      } else {
        regs_[op->rd] = 0u - regs_[op->rm];
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kMul)
      regs_[op->rd] = regs_[op->rd] * regs_[op->rm];
      if (op->set_flags) {
        SetNZ(regs_[op->rd]);  // ARMv6-M MULS sets N and Z only
      }
      NEUROC_NEXT;
    NEUROC_OP(kAddHi) {
      const uint32_t result = NEUROC_RVAL(op->rd) + NEUROC_RVAL(op->rm);
      if (op->rd == kRegPc) {
        pc_ = result & ~1u;  // block terminator
      } else {
        regs_[op->rd] = result;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kMovHi) {
      const uint32_t result = NEUROC_RVAL(op->rm);
      if (op->rd == kRegPc) {
        pc_ = result & ~1u;  // block terminator
      } else {
        regs_[op->rd] = result;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kBx)
      pc_ = NEUROC_RVAL(op->rm) & ~1u;
      NEUROC_NEXT;
    NEUROC_OP(kBlx) {
      const uint32_t target = NEUROC_RVAL(op->rm);
      regs_[kRegLr] = (op->addr + 2) | 1;
      pc_ = target & ~1u;
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrLit) {
      const uint32_t a = static_cast<uint32_t>(op->imm);  // resolved at compile time
      regs_[op->rd] = mem_->Read32(a);
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kStrReg)
    NEUROC_OP(kStrImm)
    NEUROC_OP(kStrSp) {
      uint32_t a;
      if (op->op == Op::kStrReg) {
        a = regs_[op->rn] + regs_[op->rm];
      } else if (op->op == Op::kStrSp) {
        a = regs_[kRegSp] + static_cast<uint32_t>(op->imm);
      } else {
        a = regs_[op->rn] + static_cast<uint32_t>(op->imm);
      }
      mem_->Write32(a, regs_[op->rd]);
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrReg)
    NEUROC_OP(kLdrImm)
    NEUROC_OP(kLdrSp) {
      uint32_t a;
      if (op->op == Op::kLdrReg) {
        a = regs_[op->rn] + regs_[op->rm];
      } else if (op->op == Op::kLdrSp) {
        a = regs_[kRegSp] + static_cast<uint32_t>(op->imm);
      } else {
        a = regs_[op->rn] + static_cast<uint32_t>(op->imm);
      }
      regs_[op->rd] = mem_->Read32(a);
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kStrbReg)
    NEUROC_OP(kStrbImm) {
      const uint32_t a = op->op == Op::kStrbReg
                             ? regs_[op->rn] + regs_[op->rm]
                             : regs_[op->rn] + static_cast<uint32_t>(op->imm);
      mem_->Write8(a, static_cast<uint8_t>(regs_[op->rd]));
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrbReg)
    NEUROC_OP(kLdrbImm) {
      const uint32_t a = op->op == Op::kLdrbReg
                             ? regs_[op->rn] + regs_[op->rm]
                             : regs_[op->rn] + static_cast<uint32_t>(op->imm);
      regs_[op->rd] = mem_->Read8(a);
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kStrhReg)
    NEUROC_OP(kStrhImm) {
      const uint32_t a = op->op == Op::kStrhReg
                             ? regs_[op->rn] + regs_[op->rm]
                             : regs_[op->rn] + static_cast<uint32_t>(op->imm);
      mem_->Write16(a, static_cast<uint16_t>(regs_[op->rd]));
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrhReg)
    NEUROC_OP(kLdrhImm) {
      const uint32_t a = op->op == Op::kLdrhReg
                             ? regs_[op->rn] + regs_[op->rm]
                             : regs_[op->rn] + static_cast<uint32_t>(op->imm);
      regs_[op->rd] = mem_->Read16(a);
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrsbReg) {
      const uint32_t a = regs_[op->rn] + regs_[op->rm];
      regs_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int8_t>(mem_->Read8(a))));
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdrshReg) {
      const uint32_t a = regs_[op->rn] + regs_[op->rm];
      regs_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int16_t>(mem_->Read16(a))));
      charge_mem(a);
      NEUROC_NEXT;
    }
    NEUROC_OP(kAdr)
      regs_[op->rd] = static_cast<uint32_t>(op->imm);  // resolved at compile time
      NEUROC_NEXT;
    NEUROC_OP(kAddSpImm)
      regs_[op->rd] = regs_[kRegSp] + static_cast<uint32_t>(op->imm);
      NEUROC_NEXT;
    NEUROC_OP(kAddSp7)
      regs_[kRegSp] += static_cast<uint32_t>(op->imm);
      NEUROC_NEXT;
    NEUROC_OP(kSubSp7)
      regs_[kRegSp] -= static_cast<uint32_t>(op->imm);
      NEUROC_NEXT;
    NEUROC_OP(kSxth)
      regs_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int16_t>(regs_[op->rm] & 0xFFFF)));
      NEUROC_NEXT;
    NEUROC_OP(kSxtb)
      regs_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int8_t>(regs_[op->rm] & 0xFF)));
      NEUROC_NEXT;
    NEUROC_OP(kUxth)
      regs_[op->rd] = regs_[op->rm] & 0xFFFF;
      NEUROC_NEXT;
    NEUROC_OP(kUxtb)
      regs_[op->rd] = regs_[op->rm] & 0xFF;
      NEUROC_NEXT;
    NEUROC_OP(kRev) {
      const uint32_t v = regs_[op->rm];
      regs_[op->rd] = ((v & 0xFF) << 24) | ((v & 0xFF00) << 8) | ((v >> 8) & 0xFF00) |
                    ((v >> 24) & 0xFF);
      NEUROC_NEXT;
    }
    NEUROC_OP(kRev16) {
      const uint32_t v = regs_[op->rm];
      regs_[op->rd] = ((v & 0x00FF00FF) << 8) | ((v & 0xFF00FF00) >> 8);
      NEUROC_NEXT;
    }
    NEUROC_OP(kRevsh) {
      const uint32_t v = regs_[op->rm];
      const uint16_t swapped =
          static_cast<uint16_t>(((v & 0xFF) << 8) | ((v >> 8) & 0xFF));
      regs_[op->rd] =
          static_cast<uint32_t>(static_cast<int32_t>(static_cast<int16_t>(swapped)));
      NEUROC_NEXT;
    }
    NEUROC_OP(kPush) {
      const int count = PopCount8(op->reglist);
      uint32_t a = regs_[kRegSp] - 4u * static_cast<uint32_t>(count);
      regs_[kRegSp] = a;
      for (int r = 0; r < 8; ++r) {
        if (op->reglist & (1 << r)) {
          mem_->Write32(a, regs_[r]);
          a += 4;
        }
      }
      if (op->reglist & 0x100) {
        mem_->Write32(a, regs_[kRegLr]);
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kPop) {
      const int count = PopCount8(op->reglist);
      uint32_t a = regs_[kRegSp];
      for (int r = 0; r < 8; ++r) {
        if (op->reglist & (1 << r)) {
          regs_[r] = mem_->Read32(a);
          a += 4;
        }
      }
      bool to_pc = false;
      uint32_t pc_value = 0;
      if (op->reglist & 0x100) {
        pc_value = mem_->Read32(a);
        a += 4;
        to_pc = true;
      }
      regs_[kRegSp] = regs_[kRegSp] + 4u * static_cast<uint32_t>(count);
      if (to_pc) {
        pc_ = pc_value & ~1u;  // block terminator
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kLdm) {
      uint32_t a = regs_[op->rn];
      for (int r = 0; r < 8; ++r) {
        if (op->reglist & (1 << r)) {
          regs_[r] = mem_->Read32(a);
          a += 4;
        }
      }
      if ((op->reglist & (1 << op->rn)) == 0) {
        regs_[op->rn] = a;
      }
      NEUROC_NEXT;
    }
    NEUROC_OP(kStm) {
      uint32_t a = regs_[op->rn];
      for (int r = 0; r < 8; ++r) {
        if (op->reglist & (1 << r)) {
          mem_->Write32(a, regs_[r]);
          a += 4;
        }
      }
      regs_[op->rn] = a;
      NEUROC_NEXT;
    }
    NEUROC_OP(kNop)
      NEUROC_NEXT;
    NEUROC_OP(kBcond)
      if (EvalCond(op->cond)) {
        pc_ = static_cast<uint32_t>(op->imm) & ~1u;  // target resolved at compile time
        dyn += static_cast<uint32_t>(model_.branch_taken);
        if constexpr (kProfiled) {
          ++b.prof_bcond_taken;
        }
      } else {
        pc_ = op->addr + 2;
        dyn += static_cast<uint32_t>(model_.branch_not_taken);
      }
      NEUROC_NEXT;
    NEUROC_OP(kB)
      pc_ = static_cast<uint32_t>(op->imm) & ~1u;
      NEUROC_NEXT;
    NEUROC_OP(kBl)
      regs_[kRegLr] = (op->addr + 4) | 1;
      pc_ = static_cast<uint32_t>(op->imm) & ~1u;
      NEUROC_NEXT;
    NEUROC_OP(kUdf)
    NEUROC_OP(kInvalid)
      NEUROC_CHECK(false);  // never compiled into a block
      NEUROC_NEXT;
#if !NEUROC_BLOCK_COMPUTED_GOTO
      }
    }
#endif
  } catch (GuestFault& gf) {
    if constexpr (kMode == ExecMode::kStep) {
      throw;  // StepInner's state is already exact at the faulting instruction
    }
    const size_t i = static_cast<size_t>(op - ops);  // index of the faulting op
    // Patch the batched accounting so the architectural state is exactly what the step
    // interpreter shows at this fault: counters and fetch stats cover the retired prefix
    // plus the faulting instruction, whose fetch wait states are charged but whose
    // data-access cost is not (the access threw first), and pc/r15 sit past it. The
    // retired prefix's static cycles are the faulting op's compile-time prefix sum; dyn
    // holds the prefix's data-access wait states (the faulting access never charged its).
    const BlockOp& f = b.ops[i];
    cycles_ += f.cycles_before + fetch_ws + dyn;
    instructions_ += i + 1;
    for (size_t k = 0; k <= i; ++k) {
      const BlockOp& o = b.ops[k];
      ++op_histogram_[static_cast<size_t>(o.op)];
      mem_->CountFlashFetches(o.addr, o.fetch_reads);
    }
    if constexpr (kProfiled) {
      // The aborted run never reaches prof_execs, so fold its per-PC attribution as
      // residue now: each retired prefix op its static charge (the prefix-sum delta —
      // its flash-wait hits were already recorded into prof_mem_hits by charge_mem),
      // and the faulting op its fetch wait states only (the access threw before its
      // data-access cost was charged, matching the interpreter).
      for (size_t k = 0; k < i; ++k) {
        const BlockOp& o = b.ops[k];
        ProfiledPc& stat = block_profile_[o.addr];
        stat.count += 1;
        stat.cycles += b.ops[k + 1].cycles_before - o.cycles_before;
        stat.op = o.op;
      }
      ProfiledPc& stat = block_profile_[f.addr];
      stat.count += 1;
      stat.cycles += fetch_ws;
      stat.op = f.op;
    }
    pc_ = f.addr + 2u * f.fetch_reads;
    regs_[kRegPc] = f.addr + 4;
    gf.pc = f.addr;
    throw;
  }
block_exit:
  cycles_ += b.static_cycles + dyn;
  if constexpr (kMode == ExecMode::kStep) {
    return;  // StepInner did the fetch, retire and pc bookkeeping before dispatch
  }
  instructions_ += n;
  ++b.execs;  // histogram applied lazily: FlushBlockHistograms folds histogram * execs
  if constexpr (kProfiled) {
    ++b.prof_execs;
  }
  if (mem_->observing()) {
    // Heatmap/stack-watch attached: replay per-halfword fetch observations in order so
    // the histograms match the interpreter exactly.
    for (const BlockOp& o : b.ops) {
      mem_->CountFlashFetches(o.addr, o.fetch_reads);
    }
  } else {
    mem_->AddFlashReads(b.fetch_reads);
  }
  const BlockOp& last = b.ops[n - 1];
  regs_[kRegPc] = last.addr + 4;  // what the interpreter's final step leaves in r15
  if (!b.terminated) {
    pc_ = last.addr + 2u * last.fetch_reads;  // fall through to the successor block
  }
}

#undef NEUROC_BLOCK_COMPUTED_GOTO
#undef NEUROC_OP
#undef NEUROC_NEXT
#undef NEUROC_RVAL

void Cpu::Step() {
  // One catch site per retired instruction: a guest fault thrown anywhere inside the
  // fetch/execute path (memory system or decode) is stamped with the address of the
  // instruction that caused it before propagating to Machine::TryCallFunction. The
  // non-faulting path is unaffected (table-based unwinding costs only on throw).
  const uint32_t fault_pc = pc_;
  if (block_profile_enabled_) {
    // Interpreter-fallback residue: any step taken while block profiling is on (step-only
    // entries, uncovered flash, budget-crossing tails, SRAM execution) is attributed by
    // counter delta, so the profile stays exact off the block path too. The decode peek
    // is uncounted host observation on this cold path; a fault that retires nothing
    // (undefined instruction throws before the retire counters move) correctly records
    // nothing.
    const Op op = PeekOpAt(fault_pc);
    const uint64_t cycles_before = cycles_;
    const uint64_t instructions_before = instructions_;
    const auto record = [&] {
      if (instructions_ == instructions_before) {
        return;
      }
      ProfiledPc& stat = block_profile_[fault_pc];
      stat.count += 1;
      stat.cycles += cycles_ - cycles_before;
      stat.op = op;
    };
    try {
      StepInner();
    } catch (GuestFault& gf) {
      gf.pc = fault_pc;
      record();
      throw;
    }
    record();
    return;
  }
  try {
    StepInner();
  } catch (GuestFault& gf) {
    gf.pc = fault_pc;
    throw;
  }
}

void Cpu::StepInner() {
  NEUROC_CHECK(!halted());
  const uint32_t addr = pc_;
  const uint64_t cycles_at_entry = cycles_;
  const bool fetch_from_flash = mem_->InFlash(addr);
  uint16_t hw1 = 0;
  uint16_t hw2 = 0;
  Instr in;
  size_t slot = 0;
  bool cached = false;
  if (fetch_from_flash) {
    if (!icache_valid_) {
      RebuildDecodeCache();
    }
    slot = static_cast<size_t>(addr - mem_->flash_base()) >> 1;
    cached = slot < icache_.size();
  }
  if (cached) {
    const Predecoded& pd = icache_[slot];
    hw1 = pd.hw1;
    hw2 = pd.hw2;
    in = pd.instr;
    // Fetch accounting identical to the raw path: one counted flash read per halfword
    // fetched (the per-slot count already encodes the wide/mapped rule).
    mem_->CountFlashFetches(addr, pd.flash_reads);
  } else {
    hw1 = mem_->Read16(addr);
    // Peek the second halfword only for 32-bit encodings (BL prefix). A wide prefix on
    // the last mapped halfword is an undefined instruction (hw2 reads as 0), not a
    // memory fault mid-fetch — the trace dump below must still show it.
    const bool wide = (hw1 & 0xF800) == 0xF000;
    hw2 = (wide && mem_->RegionOf(addr + 2) != MemRegion::kNone) ? mem_->Read16(addr + 2)
                                                                 : 0;
    in = DecodeInstr(hw1, hw2);
  }
  if (!trace_.empty()) {
    trace_[trace_pos_] = {addr, hw1, hw2};
    trace_pos_ = (trace_pos_ + 1) % trace_.size();
    ++trace_count_;
  }
  if (in.op == Op::kInvalid || in.op == Op::kUdf) {
    char msg[48];
    std::snprintf(msg, sizeof(msg), "undefined instruction 0x%04x", hw1);
    throw GuestFault{ErrorCode::kUndefinedInstruction, msg, /*addr=*/0, /*pc=*/addr,
                     /*instruction=*/hw1};
  }
  ++instructions_;
  ++op_histogram_[static_cast<size_t>(in.op)];
  if (fetch_from_flash) {
    cycles_ += static_cast<uint64_t>(model_.flash_wait_states);
  }
  // A fault inside the op leaves pc past it and r15 at addr + 4, as a block fault does.
  pc_ = addr + 2u * in.length;  // default fall-through; branches overwrite
  regs_[kRegPc] = addr + 4;
  step_block_.ops[0] = LowerOp(in, addr, in.length);
  step_block_.static_cycles = StaticExecCycles(in, model_);
  ExecuteBlock<ExecMode::kStep>(step_block_);
  if (probe_ != nullptr) {
    probe_->OnRetire(addr, in.op, static_cast<uint32_t>(cycles_ - cycles_at_entry));
  }
}

}  // namespace neuroc
