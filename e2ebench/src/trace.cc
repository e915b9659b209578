#include "e2ebench/src/trace.h"

#include <cstdio>

#include "e2ebench/src/stats.h"

namespace e2ebench {

std::atomic<Tracer*> Tracer::active_{nullptr};

namespace {

thread_local uint64_t current_span = 0;

}  // namespace

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

std::vector<int64_t> SelfTimesOf(const std::vector<SpanRecord>& spans) {
  std::vector<SpanInterval> intervals;
  intervals.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    intervals.push_back({s.id, s.parent, s.start_ns, s.end_ns});
  }
  return SelfTimes(intervals);
}

}  // namespace

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<int64_t> self = SelfTimesOf(all);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < all.size(); ++i) {
    SpanTotals& t = totals[all[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-6;
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<int64_t> self = SelfTimesOf(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld,\"thread\":%u}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(self[i]), s.thread);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t trace, uint64_t parent) : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) {
    return;
  }
  record_.name = name;
  record_.id = tracer_->NewId();
  record_.parent = parent != 0 ? parent : current_span;
  record_.trace = trace;
  record_.thread = ThreadTag();
  saved_current_ = current_span;
  current_span = record_.id;
  record_.start_ns = ToNs(Clock::now());
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.end_ns = ToNs(Clock::now());
  current_span = saved_current_;
  tracer_->Record(record_);
}

}  // namespace e2ebench
