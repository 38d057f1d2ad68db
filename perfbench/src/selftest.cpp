// Self-tests of the benchmark's own machinery: the tail-percentile rule,
// self time under overlapping children, script determinism, and the
// correctness gate. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/service.h"
#include "core/risk_graph.h"
#include "forecast/parser.h"
#include "gate.h"
#include "geo/geo_point.h"
#include "script.h"
#include "trace.h"
#include "util/philox.h"

namespace {

using namespace perfbench;
namespace api = riskroute::api;
namespace core = riskroute::core;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTailRule() {
  Tail t = TailAt(Ramp(1000), 99.0);
  Expect(t.percentile == 99.0 && t.beyond == 10 && t.samples == 1000,
         "1000 samples: p99 with 10 beyond");
  Expect(std::abs(t.value - 990.01) < 1e-9, "p99 of 1..1000 interpolates");
  t = TailAt(Ramp(999), 99.0);
  Expect(t.percentile == 95.0 && t.beyond == 49,
         "999 samples: p99 has 9 beyond, falls back to p95");
  t = TailAt(Ramp(100), 99.0);
  Expect(t.percentile == 90.0 && t.beyond == 10, "100 samples: p90");
  t = TailAt(Ramp(15), 99.0);
  Expect(t.percentile == 50.0 && t.value == 8.0, "15 samples: the median");
  t = TailAt(Ramp(5000), 95.0);
  Expect(t.percentile == 95.0, "a lower requested percentile is kept");
  Expect(Median(Ramp(4)) == 2.5, "median of an even sample interpolates");
  Expect(std::abs(GeometricMean({1.0, 100.0}) - 10.0) < 1e-12,
         "geometric mean");
  const std::vector<double> refs = {4.0, 100.0, 25.0};
  Expect(std::abs(WorstRatioScaled(refs, refs) - GeometricMean(refs)) < 1e-9,
         "values at their references give the references' mean");
  Expect(std::abs(WorstRatioScaled({4.0, 100.0, 50.0}, refs) -
                  2.0 * GeometricMean(refs)) < 1e-9,
         "one value twice its reference doubles the figure");
  Expect(std::abs(WorstRatioScaled({2.0, 50.0, 25.0}, refs) -
                  GeometricMean(refs)) < 1e-9,
         "faster values do not hide one at its reference");
}

void TestSelfTime() {
  std::vector<Span> spans(5);
  spans[0] = {"parent", 7, -1, 0, 100};
  spans[1] = {"child", 7, 0, 10, 40};
  spans[2] = {"child", 7, 0, 30, 60};    // overlaps the first child
  spans[3] = {"child", 7, 0, 90, 120};   // runs past the parent's end
  spans[4] = {"grandchild", 7, 1, 15, 20};
  const std::vector<std::uint64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 40, "overlapping children are unioned");
  Expect(self[1] == 25, "grandchildren count for their parent");
  Expect(self[4] == 5, "a leaf's self time is its duration");
  spans[2] = {"child", 7, 0, 40, 60};  // starts where the first child ends
  Expect(SelfTimesNs(spans)[0] == 40, "touching children are unioned");

  Tracer tracer;
  {
    Scoped outer(&tracer, "outer", 3);
    Scoped inner(&tracer, "inner", 3, outer.index());
  }
  const std::vector<Span> recorded = tracer.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == 0 &&
             recorded[0].end_ns >= recorded[1].end_ns,
         "scoped spans nest");
  Expect(tracer.TotalsById("inner").at(3) == recorded[1].duration_ns(),
         "per-id totals");
  Scoped off(nullptr, "ignored", 0);
  Expect(off.index() == -1, "a null tracer records nothing");
}

std::string Encode(const std::vector<wire::Request>& requests) {
  std::string out;
  for (const wire::Request& r : requests) out += wire::EncodeRequest(r);
  return out;
}

void TestScriptDeterminism() {
  std::vector<std::string> names;
  for (int i = 0; i < 50; ++i) names.push_back("pop-" + std::to_string(i));
  const std::string a = Encode(RouteRequests(names, 42, 0, 300));
  Expect(a == Encode(RouteRequests(names, 42, 0, 300)),
         "one seed gives one route script");
  Expect(a != Encode(RouteRequests(names, 43, 0, 300)),
         "another seed gives another route script");
  Expect(a != Encode(RouteRequests(names, 42, 1, 300)),
         "connections draw different pairs");
  for (const wire::Request& r : RouteRequests(names, 42, 0, 300)) {
    Expect(r.route.from != r.route.to, "route endpoints differ");
  }
  Expect(Encode(HeavyCycle(3)) == Encode(HeavyCycle(3)),
         "heavy cycles repeat");
  Expect(Encode(HeavyCycle(0)) != Encode(HeavyCycle(1)),
         "consecutive heavy cycles ask different exact ensembles");
  const wire::Request warm = WarmEnsemble();
  for (std::size_t cycle = 0; cycle < 4; ++cycle) {
    for (const wire::Request& r : HeavyCycle(cycle)) {
      Expect(r.kind == wire::FrameKind::kRatiosRequest ||
                 r.kind == wire::FrameKind::kProvisionRequest ||
                 r.ensemble.scenarios != warm.ensemble.scenarios ||
                 r.ensemble.seed != warm.ensemble.seed,
             "no measured ensemble reuses the warm-up's engine");
    }
  }
  const std::vector<wire::Request> pass = StormPass(42);
  Expect(Encode(pass) == Encode(StormPass(42)), "one seed gives one storm pass");
  Expect(pass.size() == 191, "a storm pass holds the 191 advisories");
  std::size_t resets = 0;
  for (const wire::Request& r : pass) {
    resets += r.stream.reset ? 1 : 0;
    Expect(riskroute::forecast::ParseAdvisoryResult(r.stream.bulletin).ok(),
           "every rendered bulletin parses");
  }
  Expect(resets == 3 && pass.front().stream.reset, "each storm opens with reset");
  for (const auto* name : {"route_serve", "analytics_mix", "storm_replay"}) {
    const auto spec = FindWorkload(name);
    Expect(spec.has_value(), std::string("workload ") + name);
    if (!spec) continue;
    const auto script = TraceScript(*spec, names, 9);
    const auto again = TraceScript(*spec, names, 9);
    Expect(script.size() == again.size(), "trace script shape repeats");
    for (std::size_t c = 0; c < script.size() && c < again.size(); ++c) {
      Expect(script[c].size() == again[c].size(),
             std::string("trace script repeats for ") + name);
      for (std::size_t i = 0; i < script[c].size() && i < again[c].size(); ++i) {
        Expect(script[c][i].id == again[c][i].id &&
                   wire::EncodeRequest(script[c][i].request) ==
                       wire::EncodeRequest(again[c][i].request),
               std::string("trace script repeats for ") + name);
      }
    }
    // The script's requests are the ones the window sends under those ids.
    if (spec->workload == Workload::kRouteServe) {
      const auto window = RouteRequests(names, 9, 1, kWindowRoutes);
      const ScriptItem& item = script[1].front();
      Expect(item.id == RequestId(1, 1024) &&
                 wire::EncodeRequest(item.request) ==
                     wire::EncodeRequest(window[1024]),
             "route script items match the window's requests and ids");
    }
  }
  Expect(!FindWorkload("nope").has_value(), "unknown workloads are refused");
}

/// A small connected CONUS graph, enough for real route and stream bodies.
core::RouteEngine SmallEngine() {
  riskroute::util::PhiloxRng rng(7, 1);
  core::RiskGraph graph;
  constexpr std::size_t kNodes = 40;
  for (std::size_t i = 0; i < kNodes; ++i) {
    core::RiskNode node;
    node.name = "pop-" + std::to_string(i);
    node.location = riskroute::geo::GeoPoint(rng.NextUniform(26, 48),
                                             rng.NextUniform(-123, -68));
    node.impact_fraction = rng.NextUniform(0.01, 1.0);
    node.historical_risk = rng.NextUniform(0.0, 0.5);
    graph.AddNode(std::move(node));
  }
  for (std::size_t i = 1; i < kNodes; ++i) {
    graph.AddEdgeByDistance(i, rng.NextU64() % i);
  }
  for (std::size_t i = 0; i + 3 < kNodes; i += 3) graph.AddEdgeByDistance(i, i + 3);
  core::RouteEngine engine(graph, core::RiskParams{kLambdaH, kLambdaF});
  engine.PrepareLandmarks(4);
  return engine;
}

void TestGate() {
  const api::Service service(SmallEngine());
  wire::Request route;
  route.kind = wire::FrameKind::kRouteRequest;
  route.route.from = "pop-0";
  route.route.to = "pop-39";
  const std::string served = service.Route(route.route).body;
  Gate gate;
  gate.Check("route", wire::Status::kOk, served, DirectBody(service, route));
  Expect(gate.failed() == 0 && gate.checked() == 1, "an equal body passes");
  std::string corrupted = served;
  corrupted[corrupted.size() / 2] ^= 0x01;
  gate.Check("route", wire::Status::kOk, corrupted, DirectBody(service, route));
  Expect(gate.failed() == 1, "a one-bit corruption is caught");
  gate.Check("route", wire::Status::kOk, served + " ", served);
  Expect(gate.failed() == 2, "a trailing byte is caught");
  gate.Check("route", wire::Status::kInternal, served, served);
  Expect(gate.failed() == 3, "a non-kOk status fails even with the right body");

  // The stream gate: the service's rolling session against an independent
  // StreamingReroute replay of the same advisories.
  std::vector<wire::Request> pass = StormPass(1);
  pass.resize(12);
  const std::vector<std::string> direct =
      DirectStreamBodies(service.engine(), pass, &service.pool());
  Gate stream_gate;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    std::string body = service.StreamAdvisory(pass[i].stream).body;
    if (i == 5) body.back() = '?';
    stream_gate.Check("stream", wire::Status::kOk, body, direct[i]);
  }
  Expect(stream_gate.checked() == 12 && stream_gate.failed() == 1,
         "the stream gate catches exactly the corrupted advisory body");
}

}  // namespace

int main() {
  TestTailRule();
  TestSelfTime();
  TestScriptDeterminism();
  TestGate();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
