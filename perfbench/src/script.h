// Workload definitions and the seeded request scripts they send. The
// program under test only ever sees the generated wire::Requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "server/wire.h"

namespace perfbench {

namespace wire = riskroute::server::wire;

enum class Workload { kRouteServe, kAnalyticsMix, kStormReplay };

struct WorkloadSpec {
  Workload workload;
  const char* name;
  double corpus_scale;       // Level3 at this corpus scale
  std::size_t workers;       // server scheduler workers
  std::size_t connections;   // client connections in the measured window
};

[[nodiscard]] std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// Network every workload serves, and the CLI's default risk weights.
inline constexpr const char* kNetwork = "Level3";
inline constexpr double kLambdaH = 1e5;
inline constexpr double kLambdaF = 1e3;
inline constexpr std::size_t kLandmarks = 8;

/// Heavy-query shapes of analytics_mix. The (scenarios, seed) pairs come
/// from a small fixed set, as an operator re-asking the same questions.
inline constexpr std::size_t kExactScenarios = 256;
inline constexpr std::uint64_t kExactSeeds[] = {2026, 2027};
inline constexpr std::size_t kTriageScenarios = 2048;
inline constexpr std::uint64_t kTriageSeed = 2026;
inline constexpr std::size_t kProvisionLinks = 2;

/// The exact ensemble a daemon's warm-up sends. It pays the Service's
/// lazy catalog synthesis, and its options match no measured request, so
/// the engine it leaves in the Service's one-entry ensemble cache is one
/// no measured request reuses. It is sent again before every measured
/// window and the traced replay, so each starts from that cache state.
inline constexpr std::size_t kWarmScenarios = 16;
inline constexpr std::uint64_t kWarmSeed = 1;
[[nodiscard]] wire::Request WarmEnsemble();

/// `count` route requests between distinct PoPs of `names`, drawn with
/// Philox keyed by (seed, stream).
[[nodiscard]] std::vector<wire::Request> RouteRequests(
    const std::vector<std::string>& names, std::uint64_t seed,
    std::uint64_t stream, std::size_t count);

/// Heavy cycle number `cycle` of analytics_mix: ratios, exact ensemble,
/// triaged ensemble, provision. The cycles walk the fixed exact-seed set
/// from its start, so every run asks the same heavy questions; the
/// workload seed draws the routes beside them.
[[nodiscard]] std::vector<wire::Request> HeavyCycle(std::size_t cycle);

/// One storm_replay pass: every Katrina, Irene and Sandy advisory as a
/// kStreamAdvisory frame rendered by forecast::RenderAdvisory, each storm
/// opening with `reset`. The seed orders the three storms.
[[nodiscard]] std::vector<wire::Request> StormPass(std::uint64_t seed);

/// Short label of a request kind ("route", "ratios", ...).
[[nodiscard]] const char* KindName(const wire::Request& request);

/// Route pairs a window connection cycles through.
inline constexpr std::size_t kWindowRoutes = 4096;

/// Id of the `index`-th request connection `conn` sends in a window; the
/// traced script reuses the ids, so the client-side span of a request
/// and the direct layer spans of the same request share one id.
[[nodiscard]] inline std::uint64_t RequestId(std::size_t conn,
                                             std::size_t index) {
  return conn * 1'000'000 + index;
}

struct ScriptItem {
  std::uint64_t id = 0;
  wire::Request request;
};

/// The traced run's fixed script: per connection, requests that the
/// window sends too, with their window ids. Routes are taken from
/// position 1024 of each connection's sequence, clear of the window's
/// first moments; heavy cycle 0 and the first storm pass from the start.
[[nodiscard]] std::vector<std::vector<ScriptItem>> TraceScript(
    const WorkloadSpec& spec, const std::vector<std::string>& names,
    std::uint64_t seed);

}  // namespace perfbench
