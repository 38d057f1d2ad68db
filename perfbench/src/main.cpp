// perfbench: one end-to-end benchmark run of the riskroute serving stack.
//
//   perfbench --workload route_serve|analytics_mix|storm_replay --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--source-id ID]
//
// Prints a report line (fingerprint, the workload's named metrics with
// sample counts, the work ledger) and then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "route_serve|analytics_mix|storm_replay --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source-id ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value != "0";
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else if (key == "--source-id") {
        options.source_id = value;
      } else {
        return Usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("options come in --key value pairs");
  const auto spec = perfbench::FindWorkload(workload);
  if (!spec) return Usage(("unknown workload '" + workload + "'").c_str());
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  options.spec = *spec;

  perfbench::RunResult result;
  try {
    result = perfbench::RunBenchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 3;
  }

  std::string report = "{\"workload\": " + Quote(spec->name) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"fingerprint\": {";
  bool first = true;
  for (const auto& [key, value] : result.fingerprint) {
    report += (first ? "" : ", ") + Quote(key) + ": " + Quote(value);
    first = false;
  }
  report += "}, \"metrics\": " + perfbench::MetricsJson(result.detail, true);
  report += ", \"ledger\": {";
  first = true;
  for (const auto& [key, value] : result.ledger) {
    report += (first ? "" : ", ") + Quote(key) + ": " + std::to_string(value);
    first = false;
  }
  report += "}, \"failures\": [";
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    report += (i == 0 ? "" : ", ") + Quote(result.messages[i]);
  }
  report += "]}";
  std::printf("%s\n", report.c_str());

  const perfbench::Metrics& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, perfbench::MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  for (const std::string& message : result.messages) {
    std::fprintf(stderr, "perfbench: correctness failure: %s\n",
                 message.c_str());
  }
  return result.correct ? 0 : 1;
}
