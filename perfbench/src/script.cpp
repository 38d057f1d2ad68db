#include "script.h"

#include <algorithm>
#include <array>

#include "forecast/tracks.h"
#include "forecast/writer.h"
#include "util/philox.h"

namespace perfbench {
namespace {

constexpr WorkloadSpec kSpecs[] = {
    {Workload::kRouteServe, "route_serve", 7.0, 2, 2},
    {Workload::kAnalyticsMix, "analytics_mix", 1.0, 2, 2},
    {Workload::kStormReplay, "storm_replay", 1.0, 2, 1},
};

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  return std::nullopt;
}

std::vector<wire::Request> RouteRequests(const std::vector<std::string>& names,
                                         std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::size_t count) {
  riskroute::util::PhiloxRng rng(seed, stream);
  const std::uint64_t n = names.size();
  std::vector<wire::Request> out;
  out.reserve(count);
  while (out.size() < count && n > 1) {
    const std::uint64_t a = rng.NextU64() % n;
    const std::uint64_t b = rng.NextU64() % n;
    if (a == b) continue;
    wire::Request request;
    request.kind = wire::FrameKind::kRouteRequest;
    request.route.from = names[a];
    request.route.to = names[b];
    out.push_back(std::move(request));
  }
  return out;
}

std::vector<wire::Request> HeavyCycle(std::size_t cycle) {
  std::vector<wire::Request> out(4);
  out[0].kind = wire::FrameKind::kRatiosRequest;
  out[0].ratios.label = kNetwork;

  out[1].kind = wire::FrameKind::kEnsembleRequest;
  out[1].ensemble.scenarios = kExactScenarios;
  out[1].ensemble.seed = kExactSeeds[cycle % std::size(kExactSeeds)];

  out[2].kind = wire::FrameKind::kEnsembleTriageRequest;
  out[2].ensemble.scenarios = kTriageScenarios;
  out[2].ensemble.seed = kTriageSeed;
  out[2].ensemble.triage = true;

  out[3].kind = wire::FrameKind::kProvisionRequest;
  out[3].provision.links = kProvisionLinks;
  return out;
}

wire::Request WarmEnsemble() {
  wire::Request request;
  request.kind = wire::FrameKind::kEnsembleRequest;
  request.ensemble.scenarios = kWarmScenarios;
  request.ensemble.seed = kWarmSeed;
  return request;
}

std::vector<wire::Request> StormPass(std::uint64_t seed) {
  std::array<const riskroute::forecast::StormTrack*, 3> storms = {
      &riskroute::forecast::KatrinaTrack(), &riskroute::forecast::IreneTrack(),
      &riskroute::forecast::SandyTrack()};
  riskroute::util::PhiloxRng rng(seed, 0x5707);
  for (std::size_t i = storms.size() - 1; i > 0; --i) {
    std::swap(storms[i], storms[rng.NextU64() % (i + 1)]);
  }
  std::vector<wire::Request> out;
  for (const auto* track : storms) {
    bool first = true;
    for (const auto& advisory : riskroute::forecast::GenerateAdvisories(*track)) {
      wire::Request request;
      request.kind = wire::FrameKind::kStreamAdvisory;
      request.stream.bulletin = riskroute::forecast::RenderAdvisory(advisory);
      request.stream.reset = first;
      first = false;
      out.push_back(std::move(request));
    }
  }
  return out;
}

const char* KindName(const wire::Request& request) {
  switch (request.kind) {
    case wire::FrameKind::kRouteRequest: return "route";
    case wire::FrameKind::kRatiosRequest: return "ratios";
    case wire::FrameKind::kEnsembleRequest: return "ensemble";
    case wire::FrameKind::kEnsembleTriageRequest: return "triage";
    case wire::FrameKind::kProvisionRequest: return "provision";
    case wire::FrameKind::kStreamAdvisory: return "stream";
    default: return "other";
  }
}

std::vector<std::vector<ScriptItem>> TraceScript(
    const WorkloadSpec& spec, const std::vector<std::string>& names,
    std::uint64_t seed) {
  constexpr std::size_t kRouteOffset = 1024;
  const auto items = [](std::size_t conn, std::size_t first,
                        const std::vector<wire::Request>& requests) {
    std::vector<ScriptItem> out;
    for (std::size_t i = first; i < requests.size(); ++i) {
      out.push_back({RequestId(conn, i), requests[i]});
    }
    return out;
  };
  const auto routes = [&](std::size_t conn, std::size_t count) {
    return items(conn, kRouteOffset,
                 RouteRequests(names, seed, conn, kRouteOffset + count));
  };
  switch (spec.workload) {
    case Workload::kRouteServe:
      return {routes(0, 200), routes(1, 200)};
    case Workload::kAnalyticsMix:
      return {items(0, 0, HeavyCycle(0)), routes(1, 100)};
    case Workload::kStormReplay:
      return {items(0, 0, StormPass(seed))};
  }
  return {};
}

}  // namespace perfbench
