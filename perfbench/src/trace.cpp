#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t Tracer::Add(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::Open(std::string name, std::uint64_t id,
                          std::int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = parent;
  span.start_ns = NowNs();
  return Add(std::move(span));
}

void Tracer::Close(std::int64_t index) {
  const std::uint64_t now = NowNs();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.duration_ns()));
  }
  return out;
}

std::unordered_map<std::uint64_t, std::uint64_t> Tracer::TotalsById(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, std::uint64_t> totals;
  for (const Span& span : spans_) {
    if (span.name == name) totals[span.id] += span.duration_ns();
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::uint64_t> self = SelfTimesNs(all);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %lld, "
                 "\"start_ns\": %llu, \"end_ns\": %llu, \"self_ns\": %llu}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(self[i]),
                 i + 1 == all.size() ? "" : ",");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

std::vector<std::uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<Interval>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    for (std::size_t k = 0; k < kids.size(); ++k) {
      if (k > 0 && kids[k].first <= run_hi) {
        run_hi = std::max(run_hi, kids[k].second);
        continue;
      }
      covered += run_hi - run_lo;
      run_lo = kids[k].first;
      run_hi = kids[k].second;
    }
    covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail TailAt(const std::vector<double>& values, double percentile,
            std::size_t min_beyond) {
  const auto beyond_at = [&](double p) {
    const double n = static_cast<double>(values.size());
    return static_cast<std::size_t>(std::floor(n * (100.0 - p) / 100.0));
  };
  Tail tail;
  tail.samples = values.size();
  tail.percentile = 50.0;
  for (const double p : {percentile, 99.0, 95.0, 90.0, 75.0}) {
    if (p <= percentile && beyond_at(p) >= min_beyond) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = Quantile(values, tail.percentile / 100.0);
  tail.beyond = beyond_at(tail.percentile);
  return tail;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double WorstRatioScaled(const std::vector<double>& values,
                        const std::vector<double>& references) {
  double worst = 0.0;
  for (std::size_t i = 0; i < values.size() && i < references.size(); ++i) {
    worst = std::max(worst, values[i] / references[i]);
  }
  return GeometricMean(references) * worst;
}

}  // namespace perfbench
