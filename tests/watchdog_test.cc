// Watchdog supervisor: runaway guest execution must be stopped with a structured
// kDeadlineExceeded fault — distinguishable from guest faults, with PC provenance — at
// exactly the same retired instruction on both simulator execution paths, including when the cycle
// budget lands inside or exactly on a compiled-block boundary. The recovery ladder must
// then bring a watchdog-stricken deployment back to correct predictions.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/obs/registry.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/profile.h"
#include "src/runtime/recovery.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace neuroc {
namespace {

constexpr uint32_t kFlash = 0x08000000;

using testutil::ConfigurePath;
using testutil::kAllPaths;
using testutil::Path;

NeuroCModel SmallModel(uint64_t seed, EncodingKind kind = EncodingKind::kBlock) {
  testutil::TestModelSpec spec;
  spec.dims = {48, 20, 10};
  spec.density = 0.2;
  spec.encoding = kind;
  return testutil::MakeTestModel(seed, spec);
}

// CpuProbe that remembers the first retired instruction address — a guaranteed-hot
// kernel address to patch an infinite loop over.
struct FirstPcProbe : CpuProbe {
  void OnRetire(uint32_t addr, Op, uint32_t) override {
    if (first == 0) first = addr;
  }
  uint32_t first = 0;
};

TEST(WatchdogTest, ArmedWatchdogIsInvisibleOnTheFaultFreePath) {
  DeployedModel plain = DeployedModel::Deploy(SmallModel(31));
  DeployedModel armed = DeployedModel::Deploy(SmallModel(31));
  ASSERT_TRUE(armed.ArmWatchdog(8.0).ok());
  EXPECT_GT(armed.watchdog_budget(), 0u);

  Rng rng(2);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<int8_t> input = MakeRandomInput(plain.input_dim(), rng);
    EXPECT_EQ(plain.Predict(input), armed.Predict(input));
    EXPECT_EQ(plain.report().cycles_per_inference, armed.report().cycles_per_inference);
    EXPECT_EQ(plain.LastOutput(), armed.LastOutput());
  }
  // Identical simulated state after identical work: the supervisor costs zero cycles.
  EXPECT_EQ(plain.machine().cpu().cycles(), armed.machine().cpu().cycles());
  EXPECT_EQ(plain.machine().cpu().instructions(), armed.machine().cpu().instructions());
}

TEST(WatchdogTest, ArmingRunsOneGoldenInferenceAndKeepsFlashWarm) {
  for (const EncodingKind kind : kAllEncodingKinds) {
    SCOPED_TRACE(EncodingKindName(kind));
    DeployedModel armed = DeployedModel::Deploy(SmallModel(33, kind));
    const MachineSnapshot& pristine = armed.pristine_snapshot();
    const uint64_t flash_generation = armed.machine().memory().flash_generation();
    MetricsRegistry::Counter& inferences =
        MetricsRegistry::Global().GetCounter("runtime.inferences");
    const uint64_t inferences_before = inferences.value();

    ExecutionProfile golden;
    ASSERT_TRUE(armed.ArmWatchdog(8.0, &golden).ok());
    // One inference calibrates the budget and yields the energy proxy's input...
    EXPECT_EQ(inferences.value(), inferences_before + 1);
    EXPECT_EQ(armed.watchdog_budget(), 8 * armed.report().cycles_per_inference);
    EXPECT_EQ(golden.cycles, armed.report().cycles_per_inference);
    DeployedModel reference = DeployedModel::Deploy(SmallModel(33, kind));
    const ExecutionProfile expected = ProfileInference(reference);
    EXPECT_EQ(golden.cycles, expected.cycles);
    EXPECT_EQ(golden.instructions, expected.instructions);
    EXPECT_EQ(EstimateEnergy(golden).total_pj, EstimateEnergy(expected).total_pj);
    // ...and is undone without a flash rewrite: SRAM, registers and counters are back at
    // the deployed state while the flash image (and its decode cache) stays as it was.
    EXPECT_EQ(armed.machine().memory().flash_generation(), flash_generation);
    const MachineSnapshot after = armed.machine().Snapshot();
    EXPECT_EQ(after.cpu.regs, pristine.cpu.regs);
    EXPECT_EQ(after.cpu.cycles, pristine.cpu.cycles);
    EXPECT_EQ(after.cpu.instructions, pristine.cpu.instructions);
    EXPECT_EQ(after.cpu.op_histogram, pristine.cpu.op_histogram);
    EXPECT_EQ(after.memory.ram, pristine.memory.ram);
    EXPECT_EQ(after.memory.flash, pristine.memory.flash);
    EXPECT_EQ(after.memory.stats.flash_reads, pristine.memory.stats.flash_reads);
    EXPECT_TRUE(armed.VerifyIntegrity().ok());
  }
}

TEST(WatchdogTest, GuardedLoadReportsTheGoldenRunWithOrWithoutTheWatchdog) {
  DeployedModel reference = DeployedModel::Deploy(SmallModel(34));
  const ExecutionProfile expected = ProfileInference(reference);
  for (const double headroom : {8.0, 0.0}) {
    SCOPED_TRACE(headroom);
    RecoveryPolicy policy;
    policy.watchdog_headroom = headroom;
    ExecutionProfile golden;
    StatusOr<GuardedModel> gm = GuardedModel::Create(SmallModel(34), {}, policy, &golden);
    ASSERT_TRUE(gm.ok()) << gm.status().ToString();
    EXPECT_EQ(gm->deployed().watchdog_budget() != 0, headroom > 0.0);
    EXPECT_EQ(golden.cycles, expected.cycles);
    EXPECT_EQ(golden.alu_cycles, expected.alu_cycles);
    EXPECT_EQ(golden.load_cycles, expected.load_cycles);
    EXPECT_EQ(golden.sram_writes, expected.sram_writes);
    EXPECT_EQ(gm->deployed().machine().cpu().cycles(), 0u);  // the golden run is undone
  }
}

TEST(WatchdogTest, InfiniteLoopIsCaughtClassifiedAndRecovered) {
  DeployedModel dm = DeployedModel::Deploy(SmallModel(32));
  ASSERT_TRUE(dm.ArmWatchdog(8.0).ok());

  Rng rng(3);
  const std::vector<int8_t> input = MakeRandomInput(dm.input_dim(), rng);
  const int golden = dm.Predict(input);
  dm.Scrub();

  // Find a kernel address on the execution path, then patch `b .` (0xE7FE) over it —
  // the canonical seized-firmware failure a hardware watchdog exists for.
  FirstPcProbe probe;
  dm.machine().cpu().set_probe(&probe);
  dm.Predict(input);
  dm.machine().cpu().set_probe(nullptr);
  ASSERT_NE(probe.first, 0u);
  dm.Scrub();
  const uint8_t spin[2] = {0xFE, 0xE7};
  dm.machine().memory().HostWrite(probe.first, spin);

  StatusOr<int> pred = dm.TryPredict(input);
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code(), ErrorCode::kDeadlineExceeded);
  ASSERT_NE(pred.status().fault(), nullptr);
  const FaultReport& fault = *pred.status().fault();
  EXPECT_EQ(fault.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(fault.pc, probe.first);  // PC provenance: stuck exactly on the patched spin
  EXPECT_GT(fault.cycles, 0u);

  // Scrub restores pristine flash; the supervised deployment predicts correctly again.
  dm.Scrub();
  StatusOr<int> retry = dm.TryPredict(input);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, golden);
}

TEST(WatchdogTest, RecoveryLadderResolvesWatchdogFaultViaScrubRung) {
  RecoveryPolicy policy;  // defaults: full ladder, watchdog armed
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(SmallModel(33), MachineConfig{}, policy);
  ASSERT_TRUE(guarded.ok());
  GuardedModel& gm = *guarded;

  Rng rng(4);
  const std::vector<int8_t> input = MakeRandomInput(gm.deployed().input_dim(), rng);
  const GuardedResult clean = gm.Predict(input);
  ASSERT_TRUE(clean.ok);
  ASSERT_EQ(clean.resolved_by, RecoveryRung::kNone);

  FirstPcProbe probe;
  gm.deployed().machine().cpu().set_probe(&probe);
  gm.deployed().Predict(input);
  gm.deployed().machine().cpu().set_probe(nullptr);
  gm.deployed().Scrub();
  const uint8_t spin[2] = {0xFE, 0xE7};
  gm.deployed().machine().memory().HostWrite(probe.first, spin);

  const GuardedResult gr = gm.Predict(input);
  EXPECT_TRUE(gr.ok);
  EXPECT_EQ(gr.prediction, clean.prediction);
  EXPECT_TRUE(gr.faulted);
  EXPECT_EQ(gr.first_fault.code, ErrorCode::kDeadlineExceeded);
  // Flash damage: the RAM-only snapshot rung cannot fix it, the scrub rung must.
  EXPECT_EQ(gr.resolved_by, RecoveryRung::kScrubRetry);
  EXPECT_GT(gr.detection_cycles, 0u);
  EXPECT_EQ(gr.retries, 2);
}

// Create, ResetToPrimary and the kRedeploy rung share one deploy-and-arm path: whichever
// of them produced the live deployment, its flash, pristine snapshot and watchdog budget
// are those of a fresh GuardedModel::Create of the same encoding.
TEST(WatchdogTest, RedeployAndResetMatchAFreshGuardedLoad) {
  RecoveryPolicy policy;
  policy.snapshot_retry = false;
  policy.scrub_retry = false;  // a flash fault goes straight to the redeploy rung
  const auto flash_crc = [](DeployedModel& dm) {
    const MachineConfig& config = dm.machine().config();
    std::vector<uint8_t> flash(config.flash_size);
    dm.machine().memory().HostRead(config.flash_base, std::span<uint8_t>(flash));
    return Crc32(std::span<const uint8_t>(flash));
  };
  const auto expect_fresh = [&](GuardedModel& live, NeuroCModel model) {
    StatusOr<GuardedModel> fresh = GuardedModel::Create(std::move(model), {}, policy);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(flash_crc(live.deployed()), flash_crc(fresh->deployed()));
    EXPECT_EQ(live.deployed().watchdog_budget(), fresh->deployed().watchdog_budget());
    EXPECT_EQ(live.deployed().pristine_snapshot().memory.flash,
              fresh->deployed().pristine_snapshot().memory.flash);
  };

  StatusOr<GuardedModel> guarded = GuardedModel::Create(SmallModel(35), {}, policy);
  ASSERT_TRUE(guarded.ok());
  GuardedModel& gm = *guarded;
  Rng rng(6);
  const std::vector<int8_t> input = MakeRandomInput(gm.deployed().input_dim(), rng);
  FirstPcProbe probe;
  gm.deployed().machine().cpu().set_probe(&probe);
  gm.deployed().Predict(input);
  gm.deployed().machine().cpu().set_probe(nullptr);
  gm.deployed().Scrub();
  const uint8_t spin[2] = {0xFE, 0xE7};
  gm.deployed().machine().memory().HostWrite(probe.first, spin);

  const GuardedResult gr = gm.Predict(input);
  ASSERT_TRUE(gr.ok);
  ASSERT_EQ(gr.resolved_by, RecoveryRung::kRedeploy);
  ASSERT_EQ(gm.active_encoding(), EncodingKind::kDelta);  // first of kFallbackEncodings
  expect_fresh(gm, ReencodeModel(SmallModel(35), EncodingKind::kDelta));

  ASSERT_TRUE(gm.ResetToPrimary().ok());
  ASSERT_EQ(gm.active_encoding(), EncodingKind::kBlock);
  expect_fresh(gm, SmallModel(35));
}

// The budget boundary sweep: a compiled spin block whose cost would cross the deadline
// must fall back to stepping and fault on exactly the same retired instruction as the
// interpreter — for every consecutive budget value around multiple block periods,
// including budgets landing exactly on a block boundary.
TEST(WatchdogTest, DeadlineFiresIdenticallyAcrossPathsForEveryBudget) {
  const std::string spin =
      "loop:\n"
      "  adds r0, r0, #1\n"
      "  adds r1, r1, #1\n"
      "  adds r2, r2, #1\n"
      "  b loop\n";
  const AssembledProgram program = Assemble(spin, kFlash);

  struct Outcome {
    ErrorCode code;
    uint64_t cycles;
    uint64_t instructions;
    uint32_t pc;
  };
  for (uint64_t budget = 1; budget <= 64; ++budget) {
    Outcome outcomes[2];
    int i = 0;
    for (const Path path : kAllPaths) {
      Machine m;
      ConfigurePath(m.cpu(), path);
      m.LoadBytes(kFlash, program.bytes);
      const StatusOr<uint64_t> r = m.TryCallFunction(kFlash, {}, budget);
      ASSERT_FALSE(r.ok());
      const FaultReport& f = m.last_fault();
      outcomes[i++] = {f.code, f.cycles, f.instructions, f.pc};
    }
    EXPECT_EQ(outcomes[0].code, outcomes[1].code) << "budget=" << budget;
    EXPECT_EQ(outcomes[0].cycles, outcomes[1].cycles) << "budget=" << budget;
    EXPECT_EQ(outcomes[0].instructions, outcomes[1].instructions) << "budget=" << budget;
    EXPECT_EQ(outcomes[0].pc, outcomes[1].pc) << "budget=" << budget;
    EXPECT_EQ(outcomes[0].code, ErrorCode::kDeadlineExceeded);
    // The deadline is a strict bound: the guest never runs past budget by more than the
    // cost of the instruction that crossed it.
    EXPECT_GT(outcomes[0].cycles, budget);
  }
}

// A generous budget must not perturb a terminating call in any way.
TEST(WatchdogTest, GenerousBudgetIsObservationallyFree) {
  const std::string count =
      "movs r0, #0\n"
      "movs r1, #50\n"
      "loop:\n"
      "  adds r0, r0, #1\n"
      "  subs r1, r1, #1\n"
      "  bne loop\n"
      "bx lr\n";
  const AssembledProgram program = Assemble(count, kFlash);
  for (const Path path : kAllPaths) {
    Machine plain, budgeted;
    ConfigurePath(plain.cpu(), path);
    ConfigurePath(budgeted.cpu(), path);
    plain.LoadBytes(kFlash, program.bytes);
    budgeted.LoadBytes(kFlash, program.bytes);
    const StatusOr<uint64_t> a = plain.TryCallFunction(kFlash, {});
    const StatusOr<uint64_t> b = budgeted.TryCallFunction(kFlash, {}, 1u << 20);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(plain.ReturnValue(), budgeted.ReturnValue());
    EXPECT_EQ(plain.cpu().instructions(), budgeted.cpu().instructions());
  }
}

}  // namespace
}  // namespace neuroc
