// In-memory span recorder and the summary statistics the benchmark
// reports. Spans are recorded from the benchmark's own files around calls
// into each riskroute layer; nothing here reaches inside the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call. Spans of one request share `id` (the script index);
/// `parent` is the index of the enclosing span in the tracer, or -1.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe span store. Spans stay in memory until WriteJson.
class Tracer {
 public:
  /// Appends a finished span and returns its index.
  std::int64_t Add(Span span);
  /// Opens a span now (end filled by Close); returns its index.
  std::int64_t Open(std::string name, std::uint64_t id, std::int64_t parent);
  void Close(std::int64_t index);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations (ns) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> Durations(const std::string& name) const;
  /// Per id, the summed durations of the spans called `name`.
  [[nodiscard]] std::unordered_map<std::uint64_t, std::uint64_t> TotalsById(
      const std::string& name) const;
  /// Writes every span with its self time as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, std::uint64_t id,
         std::int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(std::move(name), id, parent)
                                 : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

/// Every span's self time: its duration minus the union of its
/// children's intervals (each clipped to the parent), so overlapping
/// parallel children are not subtracted twice.
[[nodiscard]] std::vector<std::uint64_t> SelfTimesNs(
    const std::vector<Span>& spans);

/// q-quantile (0..1) by linear interpolation between closest ranks;
/// 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A tail value with the percentile it was taken at and how many samples
/// lie strictly beyond that rank.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// The requested percentile when at least `min_beyond` samples lie beyond
/// it; otherwise the highest of 99, 95, 90, 75, 50 that has them (or the
/// median when none does).
[[nodiscard]] Tail TailAt(const std::vector<double>& values,
                          double percentile, std::size_t min_beyond = 10);

[[nodiscard]] double GeometricMean(const std::vector<double>& values);

/// The geometric mean of `references` scaled by the largest ratio
/// values[i] / references[i]. It equals that mean while every value sits
/// at its reference, and one value growing f-fold past the others'
/// ratios scales it f-fold, so no value hides behind the rest.
[[nodiscard]] double WorstRatioScaled(const std::vector<double>& values,
                                      const std::vector<double>& references);

}  // namespace perfbench
