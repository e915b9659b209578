// Host-side micro-benchmarks (google-benchmark) for the methodology-level components:
// encoding traversal throughput, dense matmul, the full simulator's instruction rate and
// the assembler. These are not paper figures; they document the cost of the harness itself
// and catch performance regressions in the hot paths the experiment benches rely on.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/core/synthetic.h"
#include "src/isa/assembler.h"
#include "src/kernels/kernel_sources.h"
#include "src/runtime/deployed_model.h"
#include "src/tensor/matrix_ops.h"

namespace neuroc {
namespace {

void BM_EncodingAccumulate(benchmark::State& state) {
  const EncodingKind kind = static_cast<EncodingKind>(state.range(0));
  const size_t in_dim = static_cast<size_t>(state.range(1));
  Rng rng(7);
  const TernaryMatrix m = TernaryMatrix::Random(in_dim, 64, 0.12, rng);
  const auto enc = BuildEncoding(kind, m);
  const std::vector<int8_t> input = MakeRandomInput(in_dim, rng);
  std::vector<int32_t> sums(64);
  for (auto _ : state) {
    enc->Accumulate(input, sums);
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.NonZeroCount()));
}
BENCHMARK(BM_EncodingAccumulate)
    ->ArgsProduct({{0, 1, 2, 3}, {256, 784}})
    ->ArgNames({"kind", "in"});

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Tensor a({n, n});
  Tensor b({n, n});
  for (float& v : a.flat()) {
    v = rng.NextUniform(-1, 1);
  }
  for (float& v : b.flat()) {
    v = rng.NextUniform(-1, 1);
  }
  Tensor out;
  for (auto _ : state) {
    MatMul(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128);

void BM_SimulatorInstructionRate(benchmark::State& state) {
  // A tight arithmetic loop: measures simulated instructions per host second.
  Machine machine;
  const AssembledProgram p = Assemble(R"(
    movs r1, #0
    ldr r2, =200000
loop:
    adds r1, r1, #1
    cmp r1, r2
    blt loop
    movs r0, r1
    bx lr
  )", 0x08000000);
  machine.LoadBytes(0x08000000, p.bytes);
  uint64_t instructions = 0;
  for (auto _ : state) {
    machine.CallFunction(0x08000000, {});
    benchmark::DoNotOptimize(machine.ReturnValue());
  }
  instructions = machine.cpu().instructions();
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
}
BENCHMARK(BM_SimulatorInstructionRate);

void BM_DeployedNeuroCInference(benchmark::State& state) {
  // Wall-clock cost of one simulated Neuro-C inference (the unit of all figure benches).
  Rng rng(5);
  SyntheticNeuroCLayerSpec spec;
  spec.in_dim = 784;
  spec.out_dim = 128;
  spec.density = 0.12;
  std::vector<QuantNeuroCLayer> layers;
  layers.push_back(MakeSyntheticNeuroCLayer(spec, rng));
  NeuroCModel model = NeuroCModel::FromLayers(std::move(layers));
  DeployedModel deployed = DeployedModel::Deploy(model);
  const std::vector<int8_t> input = MakeRandomInput(784, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deployed.Predict(input));
  }
}
BENCHMARK(BM_DeployedNeuroCInference);

void BM_AssembleKernels(benchmark::State& state) {
  KernelVariant v;
  v.kind = EncodingKind::kDelta;
  const std::string src = GenerateKernelSource(v);
  for (auto _ : state) {
    AssembledProgram p = Assemble(src, 0x08000000);
    benchmark::DoNotOptimize(p.bytes.data());
  }
}
BENCHMARK(BM_AssembleKernels);

// Assembler scaling on codegen-sized inputs: an unrolled kernel for an in x out layer at
// 5% density is tens of thousands of straight-line instructions, the regime the
// string_view scanner and hash-map symbol lookup were added for. Throughput is reported
// in source lines/second.
void BM_AssembleUnrolledCodegen(benchmark::State& state) {
  const size_t in_dim = static_cast<size_t>(state.range(0));
  Rng rng(11);
  const TernaryMatrix m = TernaryMatrix::Random(in_dim, 64, 0.05, rng);
  const UnrolledEncoding enc(m);
  KernelVariant v;
  v.kind = EncodingKind::kUnrolled;
  v.unrolled_layer = 0;
  const std::string src = GenerateUnrolledKernelSource(v, enc);
  const int64_t lines = std::count(src.begin(), src.end(), '\n');
  for (auto _ : state) {
    AssembledProgram p = Assemble(src, 0x08000000);
    benchmark::DoNotOptimize(p.bytes.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * lines);
  state.counters["source_lines"] = static_cast<double>(lines);
}
BENCHMARK(BM_AssembleUnrolledCodegen)->Arg(1024)->Arg(4096)->Arg(16384);

// The deploy path for the same kernels: the body walk encoded straight to halfwords, with
// only the prologue/epilogue scaffold assembled from text. Items are the instructions of
// the equivalent listing, so items/second compares directly with the case above.
void BM_EmitUnrolled(benchmark::State& state) {
  const size_t in_dim = static_cast<size_t>(state.range(0));
  Rng rng(11);
  const TernaryMatrix m = TernaryMatrix::Random(in_dim, 64, 0.05, rng);
  const UnrolledEncoding enc(m);
  KernelVariant v;
  v.kind = EncodingKind::kUnrolled;
  v.unrolled_layer = 0;
  const std::string src = GenerateUnrolledKernelSource(v, enc);
  const int64_t lines = std::count(src.begin(), src.end(), '\n');
  for (auto _ : state) {
    AssembledProgram p;
    p.base_addr = 0x08000000;
    AppendUnrolledKernel(v, enc, p);
    benchmark::DoNotOptimize(p.bytes.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * lines);
  state.counters["source_lines"] = static_cast<double>(lines);
}
BENCHMARK(BM_EmitUnrolled)->Arg(1024)->Arg(4096)->Arg(16384);

}  // namespace
}  // namespace neuroc

BENCHMARK_MAIN();
