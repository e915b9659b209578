// In-memory span recorder for the traced benchmark run. Spans are recorded from the
// benchmark's own code around calls into the library's public API — nothing inside src/
// is instrumented. Each span has a name, start, end, parent span and a trace id shared by
// every span of one request (0 for spans that belong to no request). Spans stay in
// memory until the run ends and are then written out as JSON lines.
//
// When no Tracer is installed, Span and Tracer::Record are no-ops costing one load.

#ifndef NEUROC_E2EBENCH_SRC_TRACE_H_
#define NEUROC_E2EBENCH_SRC_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

struct SpanRecord {
  const char* name = "";  // static string
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

// Per-name aggregate of a finished trace.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;  // summed durations
  double self_ms = 0.0;   // summed self times
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer spans are recorded into, or nullptr when tracing is off.
  static Tracer* Active() { return active_.load(std::memory_order_acquire); }
  static void Install(Tracer* tracer) { active_.store(tracer, std::memory_order_release); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& span);

  std::vector<SpanRecord> spans() const;
  // Per-name totals with self time computed over the whole span forest.
  std::map<std::string, SpanTotals> Totals() const;
  // One JSON object per line: name, id, parent, trace, start_ns, end_ns, self_ns, thread.
  bool WriteJsonl(const std::string& path) const;

 private:
  static std::atomic<Tracer*> active_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// Small stable id of the calling thread for span records.
uint32_t ThreadTag();

// RAII span on the calling thread. Nested Spans on one thread become parent and child;
// `parent` overrides that (0 = use the thread's current span).
class Span {
 public:
  explicit Span(const char* name, uint64_t trace = 0, uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
};

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_TRACE_H_
