// Machine snapshot/restore: capturing the full architectural state (CPU registers,
// flags, counters, op histogram, flash, SRAM, memory stats, heatmaps) must be bit-exact
// on resume on both simulator execution paths and all five weight encodings, and the
// snapshot-based DeployedModel::Scrub must leave a fault-stricken machine byte-identical
// to its fresh deployment — registers and counters included.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/synthetic.h"
#include "src/runtime/deployed_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

using testutil::ConfigurePath;
using testutil::kAllPaths;
using testutil::Path;

NeuroCModel SmallModel(uint64_t seed, EncodingKind kind) {
  testutil::TestModelSpec spec;
  spec.dims = {48, 20, 10};
  spec.density = 0.2;
  spec.encoding = kind;
  return testutil::MakeTestModel(seed, spec);
}

// Field-by-field equality over everything a MachineSnapshot captures. Done explicitly
// (not memcmp) so a failure names the diverging quantity.
void ExpectSnapshotsEqual(const MachineSnapshot& a, const MachineSnapshot& b) {
  EXPECT_EQ(a.cpu.regs, b.cpu.regs);
  EXPECT_EQ(a.cpu.pc, b.cpu.pc);
  EXPECT_EQ(a.cpu.flags.n, b.cpu.flags.n);
  EXPECT_EQ(a.cpu.flags.z, b.cpu.flags.z);
  EXPECT_EQ(a.cpu.flags.c, b.cpu.flags.c);
  EXPECT_EQ(a.cpu.flags.v, b.cpu.flags.v);
  EXPECT_EQ(a.cpu.cycles, b.cpu.cycles);
  EXPECT_EQ(a.cpu.instructions, b.cpu.instructions);
  EXPECT_EQ(a.cpu.op_histogram, b.cpu.op_histogram);
  EXPECT_EQ(a.memory.flash, b.memory.flash);
  EXPECT_EQ(a.memory.flash_high_water, b.memory.flash_high_water);
  EXPECT_EQ(a.memory.ram, b.memory.ram);
  EXPECT_EQ(a.memory.stats.flash_reads, b.memory.stats.flash_reads);
  EXPECT_EQ(a.memory.stats.sram_reads, b.memory.stats.sram_reads);
  EXPECT_EQ(a.memory.stats.sram_writes, b.memory.stats.sram_writes);
  EXPECT_EQ(a.memory.heatmap.bucket_bytes, b.memory.heatmap.bucket_bytes);
  EXPECT_EQ(a.memory.heatmap.flash_reads, b.memory.heatmap.flash_reads);
  EXPECT_EQ(a.memory.heatmap.sram_reads, b.memory.heatmap.sram_reads);
  EXPECT_EQ(a.memory.heatmap.sram_writes, b.memory.heatmap.sram_writes);
}

class SnapshotTest : public ::testing::TestWithParam<EncodingKind> {};

// Snapshot mid-history, run an inference, restore, run the same inference again: every
// architectural quantity — including cycle counters and heatmaps — must replay exactly,
// on each execution path. The replayed cycle count must also agree across paths.
TEST_P(SnapshotTest, RestoreReplaysInferenceBitIdenticallyOnEveryPath) {
  const EncodingKind kind = GetParam();
  uint64_t replay_cycles[2] = {};
  int path_index = 0;
  for (const Path path : kAllPaths) {
    DeployedModel dm = DeployedModel::Deploy(SmallModel(11, kind));
    ConfigurePath(dm.machine().cpu(), path);
    dm.machine().memory().EnableHeatmap(64);

    Rng rng(3);
    const std::vector<int8_t> warm = MakeRandomInput(dm.input_dim(), rng);
    const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
    dm.Predict(warm);  // non-trivial history before the capture

    const MachineSnapshot snap = dm.machine().Snapshot();
    const int first = dm.Predict(input);
    const std::vector<int8_t> out_first = dm.LastOutput();
    const MachineSnapshot after_first = dm.machine().Snapshot();

    dm.machine().Restore(snap);
    ExpectSnapshotsEqual(snap, dm.machine().Snapshot());  // restore is itself exact

    const int second = dm.Predict(input);
    EXPECT_EQ(first, second);
    EXPECT_EQ(out_first, dm.LastOutput());
    ExpectSnapshotsEqual(after_first, dm.machine().Snapshot());

    replay_cycles[path_index++] = after_first.cpu.cycles;
  }
  EXPECT_EQ(replay_cycles[0], replay_cycles[1]);
}

// The cheap fork path: kRamAndRegisters skips the flash rewrite but must still replay
// identically as long as flash was not touched — the contract search-trial forking and
// the snapshot-retry recovery rung rely on.
TEST_P(SnapshotTest, RamAndRegistersScopeReplaysWhenFlashIsPristine) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(12, GetParam()));
  Rng rng(4);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);

  const MachineSnapshot snap = dm.machine().Snapshot();
  const int first = dm.Predict(input);
  const MachineSnapshot after_first = dm.machine().Snapshot();

  for (int fork = 0; fork < 3; ++fork) {
    dm.machine().Restore(snap, RestoreScope::kRamAndRegisters);
    EXPECT_EQ(first, dm.Predict(input));
    ExpectSnapshotsEqual(after_first, dm.machine().Snapshot());
  }
}

// Scrub after a mid-inference SRAM strike: the machine must come back byte-identical to
// the deploy-time pristine snapshot — not just the memory image, but the registers and
// cycle/instruction counters the old ad-hoc rewrite scrub left dirty.
TEST_P(SnapshotTest, ScrubAfterMidInferenceSramFaultRestoresPristineExactly) {
  const EncodingKind kind = GetParam();
  DeployedModel dm = DeployedModel::Deploy(SmallModel(13, kind));
  const MachineSnapshot& pristine = dm.pristine_snapshot();

  Rng rng(5);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  // Strike activation SRAM a few hundred instructions into the inference. Whether the
  // corrupted value ends up masked, silently wrong or faulting is irrelevant here — only
  // the post-scrub state matters.
  TriggeredInjector injector(&dm.machine().memory(), /*trigger_instructions=*/300,
                             dm.machine().config().ram_base,
                             dm.machine().config().ram_size, FaultModel::kSingleBitFlip,
                             1, Rng(99));
  dm.machine().cpu().set_probe(&injector);
  (void)dm.TryPredict(input);
  dm.machine().cpu().set_probe(nullptr);
  EXPECT_TRUE(injector.fired());

  dm.Scrub();
  ExpectSnapshotsEqual(pristine, dm.machine().Snapshot());
  // And the scrubbed machine behaves like a fresh deployment.
  DeployedModel fresh = DeployedModel::Deploy(SmallModel(13, kind));
  EXPECT_EQ(dm.Predict(input), fresh.Predict(input));
  EXPECT_EQ(dm.report().cycles_per_inference, fresh.report().cycles_per_inference);
}

// Same guarantee when the strike corrupts flash (kernel code or image): Scrub's full
// restore rewrites flash from the snapshot and invalidates the derived caches.
TEST_P(SnapshotTest, ScrubAfterFlashCorruptionRestoresPristineExactly) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(14, GetParam()));
  const MachineSnapshot& pristine = dm.pristine_snapshot();

  Rng rng(6);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  Rng inject_rng(7);
  InjectFault(dm.machine().memory(), dm.image_base(),
              static_cast<uint32_t>(dm.image().flash.size()),
              FaultModel::kSingleBitFlip, 1, inject_rng);
  EXPECT_FALSE(dm.CorruptedSections().empty());
  (void)dm.TryPredict(input);

  dm.Scrub();
  EXPECT_TRUE(dm.CorruptedSections().empty());
  ExpectSnapshotsEqual(pristine, dm.machine().Snapshot());
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, SnapshotTest,
                         ::testing::ValuesIn(kAllEncodingKinds));

}  // namespace
}  // namespace neuroc
