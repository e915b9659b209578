// Tests of the end-to-end benchmark itself: its order statistics and self-time
// arithmetic, the metric names against BENCHMARK.json, and the determinism of its seeded
// inputs and device metrics across host thread counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "e2ebench/src/catalogue.h"
#include "e2ebench/src/report.h"
#include "e2ebench/src/stats.h"
#include "e2ebench/src/workloads.h"
#include "src/common/thread_pool.h"
#include "src/obs/json_reader.h"

namespace e2ebench {
namespace {

TEST(StatsTest, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_NEAR(Quantile({1.0, 2.0, 3.0, 4.0}, 0.99), 3.97, 1e-12);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  EXPECT_NEAR(Quantile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(StatsTest, WindowedQuantileIsTheMedianOfPerWindowQuantiles) {
  EXPECT_DOUBLE_EQ(WindowedQuantile({}, 4, 0.99), 0.0);
  // Fewer values than one window: the plain quantile.
  EXPECT_DOUBLE_EQ(WindowedQuantile({4.0, 1.0, 3.0}, 4, 1.0), 4.0);
  // 11 values, windows of at least 3: three windows of 3, 4 and 4 values
  // ({1,2,90}, {3,4,5,6}, {7,8,9,99}) whose maxima are 90, 6 and 99.
  const std::vector<double> v = {1, 2, 90, 3, 4, 5, 6, 7, 8, 9, 99};
  EXPECT_DOUBLE_EQ(WindowedQuantile(v, 3, 1.0), 90.0);
  EXPECT_DOUBLE_EQ(WindowedQuantile(v, 3, 0.0), 3.0);
  // One burst in one window of three does not move it; in two of three it does.
  std::vector<double> quiet(300, 1.0);
  std::vector<double> burst = quiet;
  for (size_t i = 0; i < 10; ++i) {
    burst[i] = 50.0;
  }
  EXPECT_DOUBLE_EQ(WindowedQuantile(burst, 100, 0.99), 1.0);
  for (size_t i = 100; i < 110; ++i) {
    burst[i] = 50.0;
  }
  EXPECT_DOUBLE_EQ(WindowedQuantile(burst, 100, 0.99), 50.0);
}

TEST(StatsTest, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 100},   // root
      {2, 1, 10, 30},   // child
      {3, 1, 20, 50},   // overlapping child (another thread): union 10..50
      {4, 2, 12, 18},   // grandchild: counts against 2, not against 1
      {5, 1, 90, 140},  // child running past its parent: clipped to 90..100
      {6, 0, 200, 210}, // unrelated root
      {7, 99, 0, 5},    // parent never recorded: whole duration is self time
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  EXPECT_EQ(self[4], 50);
  EXPECT_EQ(self[5], 10);
  EXPECT_EQ(self[6], 5);
}

TEST(StatsTest, MetricNameRules) {
  EXPECT_TRUE(ValidMetricName("p99_ms"));
  EXPECT_TRUE(ValidMetricName("sim.layer_cycles.l0"));
  EXPECT_TRUE(ValidMetricName("0-a_b.c"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

std::vector<std::pair<std::string, std::string>> Section(const neuroc::JsonValue& root,
                                                         const char* key) {
  std::vector<std::pair<std::string, std::string>> out;
  const neuroc::JsonValue* list = root.Find(key);
  if (list == nullptr || !list->is_array()) {
    ADD_FAILURE() << "BENCHMARK.json has no array " << key;
    return out;
  }
  for (const neuroc::JsonValue& m : list->elements) {
    const neuroc::JsonValue* name = m.Find("name");
    const neuroc::JsonValue* unit = m.Find("unit");
    out.emplace_back(name != nullptr ? name->text : "", unit != nullptr ? unit->text : "");
  }
  return out;
}

TEST(MetricsTest, NamesAreValidUniqueAndMatchBenchmarkJson) {
  neuroc::JsonValue root;
  std::string error;
  ASSERT_TRUE(neuroc::ParseJsonFile(E2EBENCH_BENCHMARK_JSON, &root, &error)) << error;
  std::set<std::string> seen;
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *specs) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate metric " << m.name;
    }
  }
  const auto e2e = Section(root, "end_to_end");
  ASSERT_EQ(e2e.size(), EndToEndMetrics().size());
  for (size_t i = 0; i < e2e.size(); ++i) {
    EXPECT_EQ(e2e[i].first, EndToEndMetrics()[i].name);
    EXPECT_EQ(e2e[i].second, EndToEndMetrics()[i].unit);
  }
  const auto layer = Section(root, "per_layer");
  ASSERT_EQ(layer.size(), PerLayerMetrics().size());
  for (size_t i = 0; i < layer.size(); ++i) {
    EXPECT_EQ(layer[i].first, PerLayerMetrics()[i].name);
    EXPECT_EQ(layer[i].second, PerLayerMetrics()[i].unit);
  }
  std::set<std::string> workloads;
  std::string whys;
  for (const neuroc::JsonValue& w : root.Find("workloads")->elements) {
    EXPECT_TRUE(ValidMetricName(w.Find("name")->text));
    workloads.insert(w.Find("name")->text);
    whys += w.Find("why")->text;
  }
  EXPECT_EQ(workloads, (std::set<std::string>{"train_pipeline", "serve_paper", "serve_churn"}));
  // The open-loop rate and the latency limit are stated in BENCHMARK.json; they must be
  // the values the benchmark runs with.
  char rate[64];
  char slo[64];
  std::snprintf(rate, sizeof(rate), "%.0f req/s", kPaperOpenLoopRps);
  std::snprintf(slo, sizeof(slo), "%.0f ms", kSloMs);
  EXPECT_NE(whys.find(rate), std::string::npos) << rate;
  EXPECT_NE(whys.find(slo), std::string::npos) << slo;
}

TEST(RequestStreamTest, SameSeedSameStreamAndPopularityMix) {
  std::vector<double> popularity;
  double total = 0.0;
  for (const CatalogueEntry& e : ServeCatalogue(/*churn=*/true)) {
    popularity.push_back(e.popularity);
    total += e.popularity;
  }
  const size_t n = 200000;
  const auto a = MakeRequestStream(popularity, n, 42, 3, 64);
  const auto b = MakeRequestStream(popularity, n, 42, 3, 64);
  const auto c = MakeRequestStream(popularity, n, 43, 3, 64);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), n);
  std::vector<size_t> seen(popularity.size(), 0);
  for (const RequestSpec& r : a) {
    ASSERT_LT(r.model, popularity.size());
    EXPECT_LT(r.tenant, 3u);
    EXPECT_LT(r.image, 64u);
    ++seen[r.model];
  }
  for (size_t k = 0; k < popularity.size(); ++k) {
    const double expected = popularity[k] / total;
    EXPECT_NEAR(static_cast<double>(seen[k]) / n, expected, 0.1 * expected) << "model " << k;
  }
}

class ThreadsGuard {
 public:
  explicit ThreadsGuard(unsigned n) { neuroc::ThreadPool::SetGlobalThreads(n); }
  ~ThreadsGuard() { neuroc::ThreadPool::SetGlobalThreads(0); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;
};

void ExpectSameFacts(const DeviceFacts& a, const DeviceFacts& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.energy_uj, b.energy_uj);
  EXPECT_EQ(a.flash_bytes, b.flash_bytes);
  EXPECT_EQ(a.sram_bytes, b.sram_bytes);
  EXPECT_EQ(a.layer_cycles, b.layer_cycles);
}

TEST(DeterminismTest, CatalogueDeviceFactsAtOneAndFourThreads) {
  const std::vector<CatalogueEntry> entries = ServeCatalogue(/*churn=*/true);
  std::vector<DeviceFacts> facts[2];
  for (int t = 0; t < 2; ++t) {
    ThreadsGuard threads(t == 0 ? 1 : 4);
    for (const CatalogueEntry& e : entries) {
      const neuroc::StatusOr<DeviceFacts> f =
          MeasureDevice(BuildCatalogueModel(e), neuroc::MachineConfig{});
      ASSERT_TRUE(f.ok()) << e.name << ": " << f.status().ToString();
      EXPECT_GT(f->cycles, 0u);
      facts[t].push_back(*f);
    }
  }
  for (size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(entries[k].name);
    ExpectSameFacts(facts[0][k], facts[1][k]);
  }
}

TEST(DeterminismTest, TrainPipelineAtOneAndFourThreads) {
  PipelineConfig cfg;
  cfg.examples = 500;
  cfg.hidden = {64, 32};
  cfg.train.epochs = 2;
  PipelineRun runs[2];
  for (int t = 0; t < 2; ++t) {
    ThreadsGuard threads(t == 0 ? 1 : 4);
    const PipelineData data = MakePipelineData(cfg, 9);
    RunStatus status;
    runs[t] = RunPipeline(cfg, data, 9, /*replay=*/t == 1, &status);
    EXPECT_TRUE(status.correct) << (status.errors.empty() ? "" : status.errors.front());
    EXPECT_EQ(runs[t].reference_mismatches, 0u);
    EXPECT_EQ(runs[t].cycle_mismatches, 0u);
  }
  // The traced replay of Train's loop (run at 4 threads) reproduces Train (at 1 thread).
  EXPECT_EQ(runs[0].history, runs[1].history);
  EXPECT_EQ(runs[0].label_correct, runs[1].label_correct);
  ExpectSameFacts(runs[0].device, runs[1].device);
  EXPECT_EQ(runs[0].device.layer_cycles.size(), 3u);
}

}  // namespace
}  // namespace e2ebench
