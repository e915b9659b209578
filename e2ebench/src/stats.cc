#include "e2ebench/src/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace e2ebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double WindowedQuantile(const std::vector<double>& values, size_t min_window, double q) {
  const size_t n = values.size();
  const size_t windows = std::max<size_t>(1, n / std::max<size_t>(1, min_window));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(std::vector<double>(values.begin() + w * n / windows,
                                                      values.begin() + (w + 1) * n / windows),
                                  q));
  }
  return Median(std::move(per_window));
}

std::vector<int64_t> SelfTimes(const std::vector<SpanInterval>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanInterval& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    const auto it = index.find(s.parent);
    if (it == index.end()) {
      continue;
    }
    const SpanInterval& p = spans[it->second];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) {
      children[it->second].emplace_back(a, b);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [a, b] : kids) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name.front()))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace e2ebench
