// End-to-end benchmark of the Neuro-C stack. One workload per invocation:
//
//   e2ebench --workload <train_pipeline|serve_paper|serve_churn> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 measures with tracing off and reports the end-to-end metrics. --trace 1
// measures the workload twice, first untraced and then traced (half the time each),
// reports the per-layer metrics from the traced half plus the tracing overhead (traced
// minus untraced value of every end-to-end metric), and writes the spans to
// <work-dir>/<workload>-seed<n>.spans.jsonl. The last line of stdout is the result
// object; the exit code is 0 only when every output was correct.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <malloc.h>
#include <unistd.h>

#include "e2ebench/src/layer_metrics.h"
#include "e2ebench/src/report.h"
#include "e2ebench/src/trace.h"
#include "e2ebench/src/workloads.h"
#include "src/common/thread_pool.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/e2ebench-work";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<train_pipeline|serve_paper|serve_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (a.workload != "train_pipeline" && a.workload != "serve_paper" &&
      a.workload != "serve_churn") {
    Usage("unknown or missing --workload");
  }
  if (!(a.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return a;
}

MeasureResult Measure(const Args& args, const Measurement& m,
                      const std::vector<EpochRecord>& reference_history, RunStatus* status) {
  MeasureResult r;
  if (args.workload == "train_pipeline") {
    r = MeasureTrainPipeline(m, reference_history, status);
  } else {
    r = MeasureServe(m, args.workload == "serve_churn", status);
  }
  r.end_to_end["peak_rss_mb"] = PeakRssMb();
  return r;
}

// Self-time table of the traced run, largest first.
void PrintSelfTimes(const LayerView& view) {
  std::vector<std::pair<std::string, SpanTotals>> rows(view.totals().begin(),
                                                       view.totals().end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  std::printf("%-24s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : rows) {
    std::printf("%-24s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
  }
}

int Run(const Args& args) {
  neuroc::ThreadPool::SetGlobalThreads(kHostThreads);
  const std::string work_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);
  RunStatus status;
  Measurement m;
  m.seed = args.seed;
  m.work_dir = work_dir;
  if (!args.trace) {
    m.budget_s = args.seconds;
    const MeasureResult r = Measure(args, m, {}, &status);
    std::filesystem::remove_all(work_dir);
    PrintResult(status, r.end_to_end, EndToEndMetrics());
    return status.correct ? 0 : 1;
  }

  m.budget_s = args.seconds / 2.0;
  const MeasureResult untraced = Measure(args, m, {}, &status);
  Tracer tracer;
  Tracer::Install(&tracer);
  m.traced = true;
  MeasureResult traced = Measure(args, m, untraced.history, &status);
  Tracer::Install(nullptr);
  std::filesystem::remove_all(work_dir);

  Metrics& layer = traced.per_layer;
  for (const MetricSpec& spec : EndToEndMetrics()) {
    const std::string name = spec.name;
    if (!spec.deterministic && untraced.end_to_end.count(name) != 0 &&
        traced.end_to_end.count(name) != 0) {
      layer["trace.overhead." + name] =
          traced.end_to_end.at(name) - untraced.end_to_end.at(name);
    }
  }
  layer["trace.spans"] = static_cast<double>(tracer.spans().size());
  // Per-layer metrics of layers this workload does not exercise read 0.
  for (const MetricSpec& spec : PerLayerMetrics()) {
    layer.emplace(spec.name, 0.0);
  }
  const LayerView view(tracer);
  PrintSelfTimes(view);
  const std::string spans_path =
      args.work_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".spans.jsonl";
  if (tracer.WriteJsonl(spans_path)) {
    std::printf("wrote %zu spans to %s\n", tracer.spans().size(), spans_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }
  PrintResult(status, layer, PerLayerMetrics());
  return status.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  // A write to a connection the server already closed must fail, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  // One malloc arena for every thread. With glibc's default of one arena per thread,
  // which arena a thread gets depends on which threads happened to be running at once,
  // and freed memory stays resident in its arena: peak_rss_mb of serve_churn took values
  // 35-43 MB from one process to the next at a fixed seed, 23-24 MB with one arena.
  mallopt(M_ARENA_MAX, 1);
  return e2ebench::Run(e2ebench::ParseArgs(argc, argv));
}
