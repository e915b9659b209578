// train_pipeline: the paper's flow on the procedural MNIST-like set — train the Fig. 7
// "neuroc-best" network, quantize, deploy with the block encoding and run the whole
// held-out test set on the simulated Cortex-M0.

#include <algorithm>
#include <numeric>
#include <string>

#include "e2ebench/src/layer_metrics.h"
#include "e2ebench/src/stats.h"
#include "e2ebench/src/trace.h"
#include "e2ebench/src/workloads.h"
#include "src/common/thread_pool.h"
#include "src/data/synth.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/platform.h"
#include "src/train/loss.h"
#include "src/train/network.h"
#include "src/train/neuroc_layer.h"
#include "src/train/optimizer.h"

namespace e2ebench {

namespace {

using neuroc::Dataset;
using neuroc::Network;
using neuroc::Tensor;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool IsNeuroC(const neuroc::Module& m) {
  return dynamic_cast<const neuroc::NeuroCLayer*>(&m) != nullptr;
}

// Train()'s loop, step for step, through the public API with a span around every call.
// It must reproduce Train's per-epoch loss and accuracies bit for bit (checked by the
// caller against an untraced run), so the per-layer times describe the same computation.
std::vector<EpochRecord> ReplayTrain(Network& net, const Dataset& train, const Dataset& test,
                                     const neuroc::TrainConfig& cfg) {
  neuroc::AdamOptimizer opt(cfg.learning_rate, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
  std::vector<neuroc::ParamRef> params = net.Params();
  neuroc::Rng rng(cfg.shuffle_seed);
  std::vector<size_t> order(train.num_examples());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<EpochRecord> history;
  Tensor batch_x;
  Tensor grad;
  std::vector<int> batch_y;
  float lr = cfg.learning_rate;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    Span epoch_span("train.epoch");
    rng.Shuffle(order);
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < order.size(); start += cfg.batch_size) {
      Span step("train.step");
      const size_t end = std::min(start + cfg.batch_size, order.size());
      {
        Span s("train.gather");
        neuroc::GatherBatch(train,
                            std::span<const size_t>(order.data() + start, end - start),
                            batch_x, batch_y);
      }
      const Tensor* x = &batch_x;
      for (const auto& m : net.modules()) {
        Span s(IsNeuroC(*m) ? "train.neuroc_fwd" : "train.other_fwd");
        x = &m->Forward(*x, /*training=*/true);
      }
      {
        Span s("train.loss");
        loss_sum += neuroc::SoftmaxCrossEntropy(*x, batch_y, &grad);
        acc_sum += neuroc::Accuracy(*x, batch_y);
      }
      ++batches;
      const Tensor* g = &grad;
      for (auto it = net.modules().rbegin(); it != net.modules().rend(); ++it) {
        Span s(IsNeuroC(**it) ? "train.neuroc_bwd" : "train.other_bwd");
        g = &(*it)->Backward(*g);
      }
      {
        Span s("train.optim");
        opt.Step(params);
      }
    }
    EpochRecord rec;
    rec.train_loss = static_cast<float>(loss_sum / std::max<size_t>(batches, 1));
    rec.train_accuracy = static_cast<float>(acc_sum / std::max<size_t>(batches, 1));
    {
      Span s("train.eval");
      rec.test_accuracy = test.num_examples() > 0 ? neuroc::EvaluateAccuracy(net, test) : 0.0f;
    }
    history.push_back(rec);
    lr *= cfg.lr_decay;
    opt.set_learning_rate(lr);
  }
  return history;
}

}  // namespace

PipelineConfig::PipelineConfig() {
  train.epochs = 5;
  train.batch_size = 64;
  train.learning_rate = 3e-3f;
  train.lr_decay = 0.85f;
  train.use_adam = true;
}

PipelineData MakePipelineData(const PipelineConfig& cfg, uint64_t seed) {
  Span s("data.generate");
  PipelineData data;
  Dataset all = neuroc::MakeMnistLike(cfg.examples, seed);
  neuroc::Rng split_rng(seed + 1);
  auto [train, test] = all.Split(cfg.test_fraction, split_rng);
  data.train = std::move(train);
  data.test = std::move(test);
  data.test_q = neuroc::QuantizeInputs(data.test);
  return data;
}

PipelineRun RunPipeline(const PipelineConfig& cfg, const PipelineData& data, uint64_t seed,
                        bool replay, RunStatus* status) {
  PipelineRun run;
  const neuroc::MachineConfig board = neuroc::Stm32f072rb().ToMachineConfig();
  const size_t n = data.test_q.num_examples();
  const size_t dim = data.test_q.input_dim;
  std::vector<int> sim_pred(n, -1);
  std::vector<uint64_t> sim_cycles(n, 0);
  const auto t0 = Clock::now();
  {
    Span pipeline("pipeline");
    neuroc::Rng init_rng(seed + 2);
    neuroc::NeuroCSpec spec;
    spec.hidden = cfg.hidden;
    spec.layer.ternary.target_density = cfg.density;
    Network net = neuroc::BuildNeuroC(data.train.input_dim(),
                                      static_cast<size_t>(data.train.num_classes), spec,
                                      init_rng);
    neuroc::TrainConfig tc = cfg.train;
    tc.shuffle_seed = seed + 3;
    if (replay) {
      run.history = ReplayTrain(net, data.train, data.test, tc);
    } else {
      const neuroc::TrainResult tr = neuroc::Train(net, data.train, data.test, tc);
      for (const neuroc::EpochStats& e : tr.history) {
        run.history.push_back({e.train_loss, e.train_accuracy, e.test_accuracy});
      }
    }
    {
      Span s("core.quantize");
      neuroc::NeuroCQuantOptions opt;
      opt.encoding = neuroc::EncodingKind::kBlock;
      run.model = neuroc::NeuroCModel::FromTrained(net, data.train, opt);
    }
    // One board per host thread, each simulating a contiguous share of the test set. The
    // host runs the simulator in fast and slow spells of a few hundred inferences; one
    // board on one thread made a pass's p50 land in whichever spell the pass met.
    std::vector<neuroc::DeployedModel> boards;
    {
      Span s("runtime.deploy_plain");
      for (unsigned b = 0; b < kHostThreads; ++b) {
        neuroc::StatusOr<neuroc::DeployedModel> dm =
            neuroc::DeployedModel::TryDeploy(run.model, board);
        if (!dm.ok()) {
          status->Fail("train_pipeline: deploy failed: " + dm.status().ToString());
          return run;
        }
        boards.push_back(std::move(*dm));
      }
    }
    const auto tp = Clock::now();
    Span pass("sim.test_pass");
    run.infer_ms.assign(n, 0.0);
    std::vector<std::string> faults(n);
    neuroc::ThreadPool::Global().ParallelFor(0, boards.size(), 1, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        for (size_t i = b * n / boards.size(); i < (b + 1) * n / boards.size(); ++i) {
          const auto a = Clock::now();
          const neuroc::StatusOr<int> p =
              boards[b].TryPredict(std::span<const int8_t>(data.test_q.example(i), dim));
          run.infer_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - a).count();
          if (!p.ok()) {
            faults[i] = p.status().ToString();
            continue;
          }
          sim_pred[i] = *p;
          sim_cycles[i] = boards[b].report().cycles_per_inference;
        }
      }
    });
    run.test_pass_s = SecondsSince(tp);
    for (const std::string& f : faults) {
      if (!f.empty()) {
        status->Fail("train_pipeline: simulated inference faulted: " + f);
      }
    }
  }
  run.seconds = SecondsSince(t0);
  status->attempted += n;

  // Oracles, outside the timed pipeline: host reference predictions and the model's
  // input-independent cycle count from an independent deployment.
  neuroc::StatusOr<DeviceFacts> facts = MeasureDevice(run.model, board);
  if (!facts.ok()) {
    status->Fail("train_pipeline: device measurement failed: " + facts.status().ToString());
    return run;
  }
  run.device = *facts;
  for (size_t i = 0; i < n; ++i) {
    const int host = run.model.Predict(std::span<const int8_t>(data.test_q.example(i), dim));
    if (sim_pred[i] != host) {
      ++run.reference_mismatches;
    }
    if (sim_cycles[i] != run.device.cycles) {
      ++run.cycle_mismatches;
    }
    if (sim_pred[i] == data.test_q.labels[i]) {
      ++run.label_correct;
    }
  }
  if (run.reference_mismatches != 0) {
    status->Fail("train_pipeline: " + std::to_string(run.reference_mismatches) +
                 " simulated predictions differ from the host reference");
  }
  if (run.cycle_mismatches != 0) {
    status->Fail("train_pipeline: " + std::to_string(run.cycle_mismatches) +
                 " inferences ran a cycle count other than the model's constant");
  }
  return run;
}

MeasureResult MeasureTrainPipeline(const Measurement& m,
                                   const std::vector<EpochRecord>& reference_history,
                                   RunStatus* status) {
  const PipelineConfig cfg;
  MeasureResult out;

  // Set-up: dataset generation, timed here and once more after every pipeline run, so
  // its median covers the whole run.
  std::vector<double> setup_s;
  auto t_setup = Clock::now();
  const PipelineData data = MakePipelineData(cfg, m.seed);
  setup_s.push_back(SecondsSince(t_setup));

  std::vector<double> pipeline_s;
  std::vector<double> test_pass_s;
  std::vector<double> pass_mean_ms;  // per pipeline run: mean host time per test inference
  std::vector<double> infer_ms;  // every test inference of every pipeline run
  size_t slo_ok = 0;
  PipelineRun last;
  const auto start = Clock::now();
  do {
    PipelineRun run = RunPipeline(cfg, data, m.seed, m.traced, status);
    if (run.history.empty()) {
      break;  // deploy failed; already recorded
    }
    if (!out.history.empty() &&
        (run.history != out.history || run.label_correct != last.label_correct)) {
      status->Fail("train_pipeline: a repeated pipeline run gave a different history");
    }
    out.history = run.history;
    pipeline_s.push_back(run.seconds);
    test_pass_s.push_back(run.test_pass_s);
    pass_mean_ms.push_back(Mean(run.infer_ms));
    for (double ms : run.infer_ms) {
      slo_ok += ms <= kSloMs ? 1 : 0;
    }
    infer_ms.insert(infer_ms.end(), run.infer_ms.begin(), run.infer_ms.end());
    last = std::move(run);
    t_setup = Clock::now();
    MakePipelineData(cfg, m.seed);
    setup_s.push_back(SecondsSince(t_setup));
  } while (std::chrono::duration<double>(Clock::now() - start).count() +
               Median(pipeline_s) <= m.budget_s);
  if (pipeline_s.empty()) {
    status->Fail("train_pipeline: no pipeline run completed");
    return out;
  }
  if (!reference_history.empty() && out.history != reference_history) {
    status->Fail("train_pipeline: the traced replay does not reproduce Train's per-epoch "
                 "loss and accuracy bit for bit");
  }
  const size_t n = data.test_q.num_examples();
  const DeviceFacts& dev = last.device;
  Metrics& e = out.end_to_end;
  e["setup_s"] = Median(setup_s);
  e["pipeline_s"] = Median(pipeline_s);
  e["accuracy"] = static_cast<double>(last.label_correct) / static_cast<double>(n);
  e["device_latency_ms"] = CyclesToMs(static_cast<double>(dev.cycles));
  e["flash_bytes"] = static_cast<double>(dev.flash_bytes);
  e["device_sram_bytes"] = static_cast<double>(dev.sram_bytes);
  e["device_energy_uj"] = dev.energy_uj;
  // p99 over every test inference of every run (1050 per run), in windows of kTailWindow.
  const double inferences = static_cast<double>(infer_ms.size());
  const double pass_s = std::accumulate(test_pass_s.begin(), test_pass_s.end(), 0.0);
  // The simulator runs in fast and slow spells (about 0.9 and 1.3 ms per inference), so
  // the median over single inferences jumped between the two as their shares crossed one
  // half (0.87-0.91 against 1.15-1.33 ms over ten seeds). p50_ms is the median over
  // pipeline runs of each test pass's mean time per inference.
  e["p50_ms"] = Median(pass_mean_ms);
  e["p99_ms"] = WindowedQuantile(infer_ms, kTailWindow, 0.99);
  e["capacity_rps"] = inferences / pass_s;
  e["slo_attain"] = static_cast<double>(slo_ok) / inferences;
  std::printf("train_pipeline: %zu pipeline runs, %zu train / %zu test examples, %d epochs, "
              "final loss %.5f, test acc (float) %.4f, %zu inference samples\n",
              pipeline_s.size(), data.train.num_examples(), n, cfg.train.epochs,
              static_cast<double>(out.history.back().train_loss),
              static_cast<double>(out.history.back().test_accuracy), infer_ms.size());

  if (m.traced) {
    ProbeResult probe;
    ProbeModelLayers(last.model, 32, &probe, status);
    LayerView v(*Tracer::Active());
    Metrics& l = out.per_layer;
    const double batches = static_cast<double>(v.Count("train.step"));
    l["data.generate_s"] = v.MeanMs("data.generate") / 1000.0;
    l["train.gather_ms"] = v.SelfMs("train.gather") / batches;
    l["train.neuroc_fwd_ms"] = v.SelfMs("train.neuroc_fwd") / batches;
    l["train.neuroc_bwd_ms"] = v.SelfMs("train.neuroc_bwd") / batches;
    l["train.other_fwd_ms"] = v.SelfMs("train.other_fwd") / batches;
    l["train.other_bwd_ms"] = v.SelfMs("train.other_bwd") / batches;
    l["train.loss_ms"] = v.SelfMs("train.loss") / batches;
    l["train.optim_ms"] = v.SelfMs("train.optim") / batches;
    l["train.eval_ms"] = v.MeanMs("train.eval");
    l["train.examples_per_s"] =
        static_cast<double>(data.train.num_examples() * cfg.train.epochs *
                            pipeline_s.size()) /
        (v.TotalMs("train.step") / 1000.0);
    l["core.quantize_ms"] = v.MeanMs("core.quantize");
    l["sim.eval_s"] = Median(test_pass_s);
    // One board's simulator speed: the boards run side by side, one per host thread.
    l["sim.mips"] = static_cast<double>(dev.instructions) / Mean(infer_ms) / 1e3;
    AddProbeMetrics(v, probe, &l);
    AddLayerCycles(dev, &l);
  }
  return out;
}

}  // namespace e2ebench
