#include "gate.h"

#include <memory>

#include "forecast/parser.h"
#include "forecast/streaming.h"
#include "util/error.h"

namespace perfbench {

namespace api = riskroute::api;
namespace forecast = riskroute::forecast;

void Gate::Check(const std::string& what, wire::Status status,
                 const std::string& served, const std::string& expected) {
  ++checked_;
  if (status == wire::Status::kOk && served == expected) return;
  Fail(what + (status != wire::Status::kOk
                   ? ": status " + std::to_string(static_cast<int>(status))
                   : ": body differs from the direct computation"));
}

void Gate::Fail(const std::string& what) {
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

std::string DirectBody(const api::Service& service,
                       const wire::Request& request) {
  switch (request.kind) {
    case wire::FrameKind::kRouteRequest:
      return service.Route(request.route).body;
    case wire::FrameKind::kRatiosRequest:
      return service.Ratios(request.ratios).body;
    case wire::FrameKind::kEnsembleRequest:
    case wire::FrameKind::kEnsembleTriageRequest:
      return service.Ensemble(request.ensemble).body;
    case wire::FrameKind::kProvisionRequest:
      return service.Provision(request.provision).body;
    default:
      throw riskroute::InvalidArgument("DirectBody: unsupported request kind");
  }
}

std::vector<std::string> DirectStreamBodies(
    const riskroute::core::RouteEngine& engine,
    const std::vector<wire::Request>& pass, riskroute::util::ThreadPool* pool) {
  std::vector<std::string> bodies;
  std::unique_ptr<forecast::StreamingReroute> session;
  for (const wire::Request& request : pass) {
    if (request.stream.reset || session == nullptr) {
      forecast::StreamOptions options;
      options.top_moves = request.stream.top;
      options.pool = pool;
      session = std::make_unique<forecast::StreamingReroute>(engine, options);
    }
    auto parsed = forecast::ParseAdvisoryResult(request.stream.bulletin);
    if (!parsed.ok()) {
      bodies.push_back("unparseable bulletin: " + parsed.error().Render());
      continue;
    }
    auto diff = session->Ingest(parsed.value());
    if (!diff.ok()) {
      bodies.push_back("rejected: " + diff.error().Render());
      continue;
    }
    bodies.push_back(
        forecast::RenderRouteDiff(diff.value(), engine, request.stream.top));
  }
  return bodies;
}

}  // namespace perfbench
