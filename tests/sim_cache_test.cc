// Instruction fetch: the step interpreter fetches flash code from predecoded slots and
// SRAM code (or flash past the load high-water mark) through raw Read16 + decode. Both
// fetch paths must be invisible: one program run from flash and from SRAM under zero
// flash wait states must leave identical registers, flags, counters, op histograms,
// base-relative probe streams and trace dumps, and any host write into flash must
// invalidate the predecoded slots.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <regex>
#include <span>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;
constexpr uint32_t kRam = 0x20000000;

TEST(DecodeCacheTest, FlashWriteInvalidatesCache) {
  Machine m;
  const AssembledProgram a = Assemble("movs r0, #1\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, a.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 1u);

  // Full reload at the same address must be picked up...
  const AssembledProgram b = Assemble("movs r0, #9\nbx lr\n", kFlash);
  m.LoadBytes(kFlash, b.bytes);
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 9u);

  // ...as must a single patched halfword (movs r0, #9 -> movs r0, #5).
  const AssembledProgram c = Assemble("movs r0, #5\n", kFlash);
  m.LoadBytes(kFlash, std::span<const uint8_t>(c.bytes.data(), 2));
  m.CallFunction(kFlash, {});
  EXPECT_EQ(m.ReturnValue(), 5u);
}

TEST(DecodeCacheTest, FlashGenerationTracksFlashWritesOnly) {
  MemoryMap mem(kFlash, 1024, kRam, 1024);
  const uint64_t g0 = mem.flash_generation();
  const uint8_t bytes[2] = {0x01, 0x20};
  mem.HostWrite(kRam, bytes);
  EXPECT_EQ(mem.flash_generation(), g0);  // SRAM loads don't invalidate
  mem.HostWrite(kFlash + 16, bytes);
  EXPECT_GT(mem.flash_generation(), g0);
  EXPECT_GE(mem.flash_high_water(), 18u);
}

// Rewrites every address inside [base, base + 64 KB) in a trace dump — the address column
// and absolute branch targets alike — as an offset from base, so dumps of one program
// loaded at two bases compare equal.
std::string Rebase(const std::string& dump, uint32_t base) {
  static const std::regex kHexAddr("(0x)?([0-9a-f]{7,8})\\b");
  std::string out;
  auto last = dump.cbegin();
  for (std::sregex_iterator it(dump.begin(), dump.end(), kHexAddr), end; it != end; ++it) {
    const std::smatch& m = *it;
    out.append(last, m[0].first);
    const uint32_t value = static_cast<uint32_t>(std::stoul(m[2].str(), nullptr, 16));
    if (value - base < 0x10000u) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "base+0x%x", value - base);
      out += buf;
    } else {
      out += m[0].str();
    }
    last = m[0].second;
  }
  out.append(last, dump.cend());
  return out;
}

struct FetchRun {
  std::array<uint32_t, 8> low_regs{};
  uint32_t sp = 0;
  CpuFlags flags;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  std::array<uint64_t, 80> histogram{};
  std::vector<testutil::RecordingProbe::Retire> retires;  // base-relative addresses
  std::string trace;                                      // base-relative
};

// Runs the program assembled at `base` with a recording probe and a trace ring attached,
// so every instruction goes through the step interpreter's fetch path for that region.
FetchRun RunFetchProgram(uint32_t base) {
  const std::string src =
      "  push {r4, r5, lr}\n"
      "  ldr r4, =0x12345678\n"  // literal load from the program's own region
      "  movs r0, #0\n"
      "  movs r5, #4\n"
      "loop:\n"
      "  bl helper\n"  // wide (two-halfword) encoding
      "  subs r5, r5, #1\n"
      "  bne loop\n"
      "  adds r0, r0, r4\n"
      "  pop {r4, r5, pc}\n"
      "helper:\n"
      "  adds r0, r0, #3\n"
      "  bx lr\n";
  const AssembledProgram p = Assemble(src, base);
  testutil::RecordingProbe probe;  // declared first so it outlives its attachment
  Machine m;
  m.cpu().set_probe(&probe);
  m.cpu().EnableTrace(64);
  m.LoadBytes(base, p.bytes);
  m.CallFunction(base, {});
  FetchRun r;
  for (int i = 0; i < 8; ++i) {
    r.low_regs[static_cast<size_t>(i)] = m.cpu().reg(i);
  }
  r.sp = m.cpu().reg(kRegSp);
  r.flags = m.cpu().flags();
  r.cycles = m.cpu().cycles();
  r.instructions = m.cpu().instructions();
  r.histogram = m.cpu().op_histogram();
  r.retires = probe.retires;
  for (auto& retire : r.retires) {
    retire.addr -= base;
  }
  r.trace = Rebase(m.cpu().DumpTrace(), base);
  return r;
}

TEST(FetchPathTest, PredecodedFlashFetchMatchesRawSramFetch) {
  ASSERT_EQ(MachineConfig{}.cycle_model.flash_wait_states, 0);
  const FetchRun flash = RunFetchProgram(kFlash);
  const FetchRun sram = RunFetchProgram(kRam);
  EXPECT_EQ(flash.low_regs[0], 0x12345678u + 4 * 3);
  EXPECT_EQ(flash.low_regs, sram.low_regs);
  EXPECT_EQ(flash.sp, sram.sp);
  EXPECT_EQ(flash.flags.n, sram.flags.n);
  EXPECT_EQ(flash.flags.z, sram.flags.z);
  EXPECT_EQ(flash.flags.c, sram.flags.c);
  EXPECT_EQ(flash.flags.v, sram.flags.v);
  EXPECT_EQ(flash.cycles, sram.cycles);
  EXPECT_EQ(flash.instructions, sram.instructions);
  EXPECT_EQ(flash.histogram, sram.histogram);
  EXPECT_EQ(flash.retires, sram.retires);
  EXPECT_EQ(flash.trace, sram.trace);
  EXPECT_NE(flash.trace.find("bl base+0x"), std::string::npos);
  EXPECT_NE(flash.trace.find("pop {r4, r5, pc}"), std::string::npos);
}

// Regression: a BL prefix halfword (0xF000) sitting on the last mapped halfword used to
// abort with a misleading "unmapped address" memory fault *before* the trace entry was
// recorded, so the faulting instruction never appeared in the dump. It must be reported as
// an undefined instruction, with the faulting halfword in the dump exactly once — both
// from a predecoded flash slot and through the raw SRAM fetch.
void RunWidePrefixAt(uint32_t last_halfword) {
  MachineConfig cfg;
  cfg.flash_size = 1024;
  Machine m(cfg);
  m.cpu().EnableTrace(8);
  const uint8_t bl_prefix[2] = {0x00, 0xF0};
  m.LoadBytes(last_halfword, bl_prefix);
  m.CallFunction(last_halfword, {});
}

std::string WidePrefixReport(uint32_t last_halfword) {
  // One trace line (the faulting instruction), then the undefined-instruction report.
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "recent instructions:\n"
                "  %08x: f000[^\n]*\n"
                "simulator: undefined instruction 0xf000 at 0x%08x",
                last_halfword, last_halfword);
  return buf;
}

TEST(DecodeCacheDeathTest, WidePrefixAtRegionEndFaultsAsUndefinedWithTrace) {
  const MachineConfig defaults;
  const uint32_t flash_end = kFlash + 1024 - 2;
  const uint32_t sram_end = defaults.ram_base + defaults.ram_size - 2;
  EXPECT_DEATH(RunWidePrefixAt(flash_end), WidePrefixReport(flash_end));
  EXPECT_DEATH(RunWidePrefixAt(sram_end), WidePrefixReport(sram_end));
}

}  // namespace
}  // namespace neuroc
