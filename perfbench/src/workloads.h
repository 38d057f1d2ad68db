// One benchmark run: set the daemon up, drive a workload through it,
// check the answers, and collect the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "script.h"

namespace perfbench {

struct RunOptions {
  WorkloadSpec spec{};
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for the snapshot,
  /// the socket and the span dump.
  std::string work_dir = ".bench_build/run";
  /// Source identity recorded in the fingerprint (git commit or digest).
  std::string source_id = "unknown";
};

/// A metric value as printed: number, unit, and optional sample detail.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;    // 0 = not a sampled timing
  double percentile = 0.0;    // 0 = not a percentile
};

using Metrics = std::vector<std::pair<std::string, Metric>>;

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics end_to_end;  // gated metrics (untraced)
  Metrics detail;      // the per-workload metric names, with sample counts
  Metrics per_layer;   // traced run only
  std::map<std::string, std::string> fingerprint;
  std::map<std::string, std::uint64_t> ledger;  // traced run only
  std::vector<std::string> messages;            // correctness failures
};

[[nodiscard]] RunResult RunBenchmark(const RunOptions& options);

/// Renders metrics as a JSON object body {"name": {"value": .., "unit": ..}}.
[[nodiscard]] std::string MetricsJson(const Metrics& metrics, bool with_detail);

}  // namespace perfbench
