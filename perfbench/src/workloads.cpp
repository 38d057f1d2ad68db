#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "api/service.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "core/study.h"
#include "forecast/parser.h"
#include "forecast/streaming.h"
#include "gate.h"
#include "hazard/risk_field.h"
#include "hazard/synthesis.h"
#include "obs/metrics.h"
#include "population/assignment.h"
#include "population/census.h"
#include "provision/augmentation.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "sim/ensemble.h"
#include "sim/triage.h"
#include "topology/generator.h"
#include "trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace api = riskroute::api;
namespace core = riskroute::core;
namespace forecast = riskroute::forecast;
namespace hazard = riskroute::hazard;
namespace obs = riskroute::obs;
namespace population = riskroute::population;
namespace server = riskroute::server;
namespace sim = riskroute::sim;
namespace topology = riskroute::topology;
namespace util = riskroute::util;

constexpr double kNsPerMs = 1e6;
constexpr double kNsPerUs = 1e3;
/// The storm window keeps replaying until its p99 has this many samples.
constexpr std::size_t kMinAdvisorySamples = 1000;
/// Every route reply whose index is a multiple of this is byte-checked.
constexpr std::size_t kRouteCheckStride = 97;
/// Cold answers per daemon: at least this many, and more while they take
/// under kColdBudgetS, up to kColdMaxRepeats.
constexpr std::size_t kColdRepeats = 10;
constexpr std::size_t kColdMaxRepeats = 50;
constexpr double kColdBudgetS = 0.3;
/// analytics_mix runs at least this many heavy cycles per window, so the
/// second cycle's exact ensemble (another seed, after the triaged one
/// evicted the cached engine) is timed too.
constexpr std::size_t kMinHeavyCycles = 2;
/// analytics_mix's reference medians per heavy kind, in ms: ratios,
/// exact ensemble, triaged ensemble, provision. Measured on a 4-vCPU
/// x86-64 VM (GCC 12, RelWithDebInfo) at the commit that defined the
/// benchmark, scaled to the reference host speed below; answer_ms scales
/// their geometric mean by the worst kind's median over its reference
/// (WorstRatioScaled).
constexpr double kHeavyReferenceMs[] = {87.0, 465.0, 2275.0, 890.0};
/// Passes of the host-speed probe each time no daemon is alive (before
/// each set-up and after the last daemon), and the probe's median pass
/// time on the same reference VM.
constexpr std::size_t kProbeRepeats = 7;
constexpr double kProbeReferenceMs = 30.0;

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double MsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / kNsPerMs;
}

std::span<const std::uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

double ResidentMb() {
  ::malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Host CPU time stolen from this VM so far (hypervisor contention), in
/// seconds; 0 where /proc/stat has no steal column.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return static_cast<double>(steal) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Bytes malloc hands out (arena chunks in use plus mmapped chunks): the
/// memory the process holds, without the allocator's free-page slack.
double HeapInUseMb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// ---------------------------------------------------------------------------
// Host speed. A shared VM's speed drifts by a fifth or more within minutes
// (other tenants' load on the host), and every timing drifts with
// it. A fixed kernel of the benchmark's own, timed while no daemon is
// alive, measures that speed, and the gated timings are scaled to the
// reference speed. The kernel shares no code with riskroute and runs with
// none of its threads alive, so a change to the program cannot move it.

/// Wall time of one probe pass: every hardware thread runs a fixed chain
/// of multiplies and dependent loads and stores over its own L2-sized
/// table, as the engine's sweeps mix arithmetic and cache-resident loads.
double ProbeOnceMs() {
  constexpr std::size_t kTable = std::size_t{1} << 16;
  constexpr std::size_t kSteps = std::size_t{1} << 22;
  constexpr std::uint64_t kMul = 6364136223846793005ULL;
  static std::atomic<std::uint64_t> sink{0};
  const unsigned threads = std::max(1U, std::thread::hardware_concurrency());
  const std::uint64_t start = NowNs();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([t] {
      std::vector<std::uint32_t> table(kTable);
      std::uint64_t x = 0x9E3779B97F4A7C15ULL * (t + 1);
      for (std::uint32_t& slot : table) {
        x = x * kMul + 1442695040888963407ULL;
        slot = static_cast<std::uint32_t>(x >> 32);
      }
      for (std::size_t i = 0; i < kSteps; ++i) {
        std::uint32_t& slot = table[(x >> 40) & (kTable - 1)];
        x = x * kMul + slot;
        slot ^= static_cast<std::uint32_t>(x >> 16);
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return MsSince(start);
}

// ---------------------------------------------------------------------------
// Registry reads. Stable counters are algorithmic work, identical on every
// host and thread count; they form the run's work ledger.

constexpr const char* kLedgerCounters[] = {
    "api.requests.route",
    "api.requests.ratios",
    "api.requests.ensemble",
    "api.requests.provision",
    "api.requests.stream",
    "api.ensemble.engine_builds",
    "api.ensemble.engine_reuses",
    "core.route_engine.relaxations",
    "core.route_engine.heap_pops",
    "core.route_engine.sweeps",
    "core.route_engine.alt_sweeps",
    "core.route_engine.overlay_sweeps",
    "core.route_engine.envelope_sweeps",
    "sim.ensemble.scenarios",
    "sim.ensemble.overlay_pair_sweeps",
    "sim.ensemble.skipped_pair_sweeps",
    "ensemble.triage.exact_evaluations",
    "ensemble.triage.universe",
    "provision.augment.scan_candidates",
    "provision.augment.exact_rechecks",
    "stream.advisories",
    "stream.cache.hits",
    "stream.pairs.recomputed",
    "stream.pairs.moved",
    "stream.scope.pops",
};

constexpr const char* kKdeCounters[] = {
    "stats.kde.builds",
    "stats.kde.batch_points",
    "stats.kde.point_evals",
};

using Counts = std::map<std::string, std::uint64_t>;

std::uint64_t Count(const char* name,
                    obs::Stability stability = obs::Stability::kStable) {
  return obs::MetricsRegistry::Global().GetCounter(name, stability).Total();
}

template <std::size_t N>
Counts ReadCounters(const char* const (&names)[N]) {
  Counts out;
  for (const char* name : names) out[name] = Count(name);
  return out;
}

void AddDelta(Counts& into, const Counts& before, const Counts& after) {
  for (const auto& [name, value] : after) into[name] += value - before.at(name);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Set-up: Study -> frozen ALT-ready engine -> snapshot -> Service -> Server.

struct SetupTimes {
  double total_s = 0.0;
  /// Snapshot boot, Server::Start and warm-up: the part of set-up after
  /// the snapshot is saved, which the traced stage replay does not repeat.
  double serve_s = 0.0;
};

struct Daemon {
  std::string snapshot_path;
  std::string socket_path;
  std::vector<std::string> names;
  std::unique_ptr<api::Service> service;
  std::unique_ptr<server::Server> server;  // destroyed before the service

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (server != nullptr) server->Stop();
    server.reset();
    std::filesystem::remove(snapshot_path);
  }
};

std::unique_ptr<Daemon> SetUp(const RunOptions& options, int index,
                              SetupTimes& times, Gate& gate) {
  const std::uint64_t start = NowNs();
  auto daemon = std::make_unique<Daemon>();
  const std::string stem =
      options.work_dir + "/d" + std::to_string(::getpid()) + "-" +
      std::to_string(index);
  daemon->snapshot_path = stem + ".rre";
  daemon->socket_path = stem + ".sock";
  {
    core::StudyOptions study_options;
    study_options.corpus_scale = options.spec.corpus_scale;
    const core::Study study = core::Study::Build(study_options);
    const core::RiskGraph graph = study.BuildGraphFor(kNetwork);
    core::RouteEngine engine(graph, core::RiskParams{kLambdaH, kLambdaF});
    engine.PrepareLandmarks(kLandmarks);
    engine.SaveSnapshotFile(daemon->snapshot_path);
  }
  const std::uint64_t serve_start = NowNs();
  auto booted = api::Service::FromSnapshotFile(daemon->snapshot_path);
  if (!booted.ok()) {
    throw riskroute::InvalidArgument("snapshot boot failed: " +
                                     booted.error().Render());
  }
  daemon->service = std::make_unique<api::Service>(std::move(booted.value()));
  const core::RouteEngine& engine = daemon->service->engine();
  for (std::size_t v = 0; v < engine.node_count(); ++v) {
    daemon->names.push_back(engine.node_name(v));
  }

  server::ServerOptions server_options;
  server_options.unix_path = daemon->socket_path;
  server_options.scheduler.workers = options.spec.workers;
  daemon->server =
      std::make_unique<server::Server>(*daemon->service, server_options);
  daemon->server->Start();

  // Warm-up a daemon pays once: the first ensemble's catalog synthesis,
  // the first stream session's baseline seed.
  std::optional<wire::Request> warm;
  if (options.spec.workload == Workload::kAnalyticsMix) {
    warm = WarmEnsemble();
  } else if (options.spec.workload == Workload::kStormReplay) {
    warm = StormPass(options.seed).front();
  }
  if (warm) {
    server::Client client = server::Client::ConnectUnix(daemon->socket_path);
    const server::Client::Result reply = client.Call(*warm);
    if (reply.status != wire::Status::kOk) gate.Fail("warm-up request failed");
  }
  times.serve_s = SecondsSince(serve_start);
  times.total_s = SecondsSince(start);
  return daemon;
}

// ---------------------------------------------------------------------------
// The measured window: closed-loop clients over the unix socket.

struct Served {
  wire::Request request;
  std::string body;
};

struct Sample {
  double latency_ns = 0.0;
  std::uint64_t end_ns = 0;
};

struct ConnLog {
  std::map<std::string, std::vector<Sample>> samples;  // by request kind
  std::vector<Served> served;  // kOk replies kept for the gate
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

struct Window {
  std::vector<ConnLog> conns;
  std::uint64_t start_ns = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t pool_busy_ns = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t rejected_full = 0;
  double steal_s = 0.0;
  Counts counters;  // stable-counter deltas over the window

  [[nodiscard]] std::size_t Completed() const {
    std::size_t n = 0;
    for (const ConnLog& log : conns) n += log.attempted - log.failed;
    return n;
  }
  /// Frees the per-request samples and kept bodies; counts survive.
  void Release() {
    for (ConnLog& log : conns) {
      log.samples = {};
      log.served = {};
    }
  }
};

/// The timings of one or more windows, reduced to what the metrics need
/// so the per-request buffers can be freed before memory is read.
///
/// Route timings are kept per half-second slice; other kinds keep every
/// latency.
struct Stats {
  std::vector<double> route_p50_ns;  // per slice
  std::vector<double> route_p95_ns;  // per slice
  std::vector<double> route_p99_ns;  // per slice
  std::vector<double> slice_ops;     // completions of every kind, per slice
  std::map<std::string, std::vector<double>> latency_ns;  // non-route kinds
  std::size_t route_samples = 0;
  std::size_t completed = 0;
  double elapsed_s = 0.0;
  double steal_s = 0.0;

  void Add(const Window& window) {
    constexpr double kSliceNs = 0.5e9;
    const auto slices = static_cast<std::size_t>(window.elapsed_s * 1e9 / kSliceNs);
    std::vector<std::vector<double>> route(slices);
    std::vector<double> ops(slices, 0.0);
    for (const ConnLog& log : window.conns) {
      for (const auto& [kind, samples] : log.samples) {
        for (const Sample& sample : samples) {
          if (kind != "route") latency_ns[kind].push_back(sample.latency_ns);
          const auto slice = static_cast<std::size_t>(
              static_cast<double>(sample.end_ns - window.start_ns) / kSliceNs);
          if (slice >= slices) continue;
          ops[slice] += 1.0;
          if (kind == "route") route[slice].push_back(sample.latency_ns);
        }
      }
    }
    for (std::size_t i = 0; i < slices; ++i) {
      route_samples += route[i].size();
      if (!route[i].empty()) {
        route_p50_ns.push_back(Median(route[i]));
        route_p95_ns.push_back(Quantile(route[i], 0.95));
        route_p99_ns.push_back(Quantile(route[i], 0.99));
      }
      slice_ops.push_back(ops[i] * 1e9 / kSliceNs);
    }
    completed += window.Completed();
    elapsed_s += window.elapsed_s;
    steal_s += window.steal_s;
  }

  [[nodiscard]] const std::vector<double>& Latencies(const std::string& kind) const {
    static const std::vector<double> kNone;
    const auto it = latency_ns.find(kind);
    return it == latency_ns.end() ? kNone : it->second;
  }
};

void CallAndLog(server::Client& client, wire::Request request, ConnLog& log,
                Tracer* tracer, std::uint64_t id, bool keep) {
  ++log.attempted;
  const std::uint64_t start = NowNs();
  server::Client::Result reply;
  {
    Scoped span(tracer, "server.call", id);
    reply = client.Call(request);
  }
  const std::uint64_t end = NowNs();
  log.samples[KindName(request)].push_back(
      Sample{static_cast<double>(end - start), end});
  if (reply.status != wire::Status::kOk) {
    ++log.failed;
    if (log.errors.size() < 4) {
      log.errors.push_back(std::string(KindName(request)) + " status " +
                           std::to_string(static_cast<int>(reply.status)) +
                           ": " + reply.body);
    }
    return;
  }
  if (keep) log.served.push_back({std::move(request), std::move(reply.body)});
}

/// Runs `body` against a fresh connection, turning an exception into a
/// logged failure.
template <typename F>
std::thread Connection(const Daemon& daemon, ConnLog& log, F body) {
  return std::thread([&daemon, &log, body] {
    try {
      server::Client client = server::Client::ConnectUnix(daemon.socket_path);
      body(client);
    } catch (const std::exception& e) {
      ++log.failed;
      log.errors.push_back(std::string("connection: ") + e.what());
    }
  });
}

/// Leaves the Service's one-entry ensemble-engine cache as the warm-up
/// did, holding an engine no measured request reuses.
void ParkEnsembleCache(const RunOptions& options, const Daemon& daemon) {
  if (options.spec.workload != Workload::kAnalyticsMix) return;
  (void)daemon.service->Ensemble(WarmEnsemble().ensemble);
}

/// One measured window of `seconds` on `daemon`. analytics_mix runs
/// whole heavy cycles, at least kMinHeavyCycles; storm_replay keeps
/// going, in whole passes, until it has sent `min_advisories`.
Window RunWindow(const RunOptions& options, const Daemon& daemon,
                 Tracer* tracer, double seconds, std::size_t min_advisories) {
  const WorkloadSpec& spec = options.spec;
  ParkEnsembleCache(options, daemon);
  Window window;
  window.conns.resize(spec.connections);
  std::atomic<bool> stop{false};
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram& busy = reg.GetTiming("util.thread_pool.task_ns");
  const Counts counters0 = ReadCounters(kLedgerCounters);
  const std::uint64_t busy0 = busy.Snapshot().sum;
  const std::uint64_t tasks0 =
      Count("util.thread_pool.tasks", obs::Stability::kVolatile);
  const std::uint64_t rejected0 =
      Count("server.scheduler.rejected_full", obs::Stability::kVolatile);
  const double cpu0 = CpuSeconds();
  const double steal0 = StealSeconds();
  const std::uint64_t start = NowNs();
  window.start_ns = start;
  const auto elapsed = [start] { return SecondsSince(start); };

  const auto route_loop = [&](std::size_t conn) {
    return [&, conn](server::Client& client) {
      const std::vector<wire::Request> requests =
          RouteRequests(daemon.names, options.seed, conn, kWindowRoutes);
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        CallAndLog(client, requests[i % requests.size()], window.conns[conn],
                   tracer, RequestId(conn, i), i % kRouteCheckStride == 0);
        if (spec.workload == Workload::kRouteServe &&
            elapsed() >= seconds) {
          stop.store(true);
        }
      }
    };
  };

  std::vector<std::thread> threads;
  switch (spec.workload) {
    case Workload::kRouteServe:
      for (std::size_t c = 0; c < spec.connections; ++c) {
        threads.push_back(Connection(daemon, window.conns[c], route_loop(c)));
      }
      break;
    case Workload::kAnalyticsMix:
      threads.push_back(
          Connection(daemon, window.conns[0], [&](server::Client& client) {
            for (std::size_t cycle = 0;; ++cycle) {
              const auto requests = HeavyCycle(cycle);
              for (std::size_t i = 0; i < requests.size(); ++i) {
                CallAndLog(client, requests[i], window.conns[0], tracer,
                           RequestId(0, cycle * requests.size() + i), true);
              }
              if (cycle + 1 >= kMinHeavyCycles && elapsed() >= seconds) break;
            }
            stop.store(true);
          }));
      threads.push_back(Connection(daemon, window.conns[1], route_loop(1)));
      break;
    case Workload::kStormReplay:
      threads.push_back(
          Connection(daemon, window.conns[0], [&](server::Client& client) {
            const std::vector<wire::Request> pass = StormPass(options.seed);
            std::size_t sent = 0;
            while (sent < min_advisories || elapsed() < seconds) {
              for (const wire::Request& request : pass) {
                CallAndLog(client, request, window.conns[0], tracer,
                           RequestId(0, sent++), true);
              }
            }
          }));
      break;
  }
  // A connection that failed early must not leave its partner looping.
  for (std::thread& thread : threads) {
    thread.join();
    stop.store(true);
  }
  window.elapsed_s = elapsed();
  window.cpu_s = CpuSeconds() - cpu0;
  window.steal_s = StealSeconds() - steal0;
  AddDelta(window.counters, counters0, ReadCounters(kLedgerCounters));
  window.pool_busy_ns = busy.Snapshot().sum - busy0;
  window.pool_tasks =
      Count("util.thread_pool.tasks", obs::Stability::kVolatile) - tasks0;
  window.rejected_full =
      Count("server.scheduler.rejected_full", obs::Stability::kVolatile) -
      rejected0;
  return window;
}

/// Byte-checks a window's kept replies against direct computations.
/// Direct bodies of the repeated heavy requests are computed once and
/// kept in `memo`; route bodies are recomputed, so the memo stays the
/// same size whatever the throughput.
void CheckWindow(const Daemon& daemon, const Window& window,
                 std::map<std::string, std::string>& memo,
                 const std::vector<std::string>& stream_expected, Gate& gate) {
  const auto direct = [&](const wire::Request& request) -> const std::string* {
    wire::Request key_request = request;
    key_request.id = 0;
    const std::string key = wire::EncodeRequest(key_request);
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, DirectBody(*daemon.service, request)).first;
    }
    return &it->second;
  };
  for (const ConnLog& log : window.conns) {
    std::size_t stream_index = 0;
    for (const Served& served : log.served) {
      const wire::Request& request = served.request;
      if (request.kind == wire::FrameKind::kStreamAdvisory) {
        const std::size_t k = stream_index++ % stream_expected.size();
        gate.Check("stream advisory " + std::to_string(k), wire::Status::kOk,
                   served.body, stream_expected[k]);
        continue;
      }
      try {
        const std::string expected =
            request.kind == wire::FrameKind::kRouteRequest
                ? DirectBody(*daemon.service, request)
                : *direct(request);
        gate.Check(KindName(request), wire::Status::kOk, served.body, expected);
      } catch (const std::exception& e) {
        gate.Fail(std::string("direct ") + KindName(request) + ": " + e.what());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cold answer: what `riskroute <cmd> --engine-snapshot` pays, minus the
// process spawn — boot a Service from the snapshot and answer once.

double ColdOnce(const RunOptions& options, const Daemon& daemon,
                Tracer* tracer, std::uint64_t id, Gate& gate, bool check) {
  const std::uint64_t start = NowNs();
  std::optional<api::Service> service;
  {
    Scoped span(tracer, "api.boot", id);
    auto booted = api::Service::FromSnapshotFile(daemon.snapshot_path);
    if (!booted.ok()) {
      gate.Fail("cold boot: " + booted.error().Render());
      return 0.0;
    }
    service.emplace(std::move(booted.value()));
  }
  std::string body;
  wire::Request request;
  switch (options.spec.workload) {
    case Workload::kRouteServe:
      request = RouteRequests(daemon.names, options.seed, 100, 1).front();
      body = service->Route(request.route).body;
      break;
    case Workload::kAnalyticsMix:
      request = HeavyCycle(0).front();
      body = service->Ratios(request.ratios).body;
      break;
    case Workload::kStormReplay:
      request = StormPass(options.seed).front();
      body = service->StreamAdvisory(request.stream).body;
      break;
  }
  const double ms = MsSince(start);
  if (check) {
    const std::string expected =
        request.kind == wire::FrameKind::kStreamAdvisory
            ? DirectStreamBodies(daemon.service->engine(), {request},
                                 &daemon.service->pool())
                  .front()
            : DirectBody(*daemon.service, request);
    gate.Check("cold answer", wire::Status::kOk, body, expected);
  }
  return ms;
}

// ---------------------------------------------------------------------------
// End-to-end metrics.

struct EndToEnd {
  double answer_ms = 0.0;
  double tail_ms = 0.0;
  double ops_per_s = 0.0;
  Metrics detail;
};

Metric Timing(const std::vector<double>& ns, double scale, const char* unit) {
  return Metric{Median(ns) / scale, unit, ns.size(), 50.0};
}

Metric TailMetric(const std::vector<double>& ns, double scale,
                  const char* unit) {
  const Tail tail = TailAt(ns, 99.0);
  return Metric{tail.value / scale, unit, tail.samples, tail.percentile};
}

/// A quantity measured many times under the same load in one run (the
/// slices of route_serve, the cold repeats) is reported at its best
/// quartile: outside load on the shared host that covers up to three
/// quarters of the run does not move it, while a change to the program,
/// which shifts every slice, does.
double BestQuartile(const std::vector<double>& values, bool higher_is_better) {
  return Quantile(values, higher_is_better ? 0.75 : 0.25);
}

EndToEnd Summarize(const WorkloadSpec& spec, const Stats& stats) {
  EndToEnd e;
  switch (spec.workload) {
    case Workload::kRouteServe: {
      const std::size_t n = stats.route_samples;
      e.answer_ms = BestQuartile(stats.route_p50_ns, false) / kNsPerMs;
      e.tail_ms = BestQuartile(stats.route_p99_ns, false) / kNsPerMs;
      e.ops_per_s = BestQuartile(stats.slice_ops, true);
      e.detail = {{"route_p50_us", Metric{e.answer_ms * 1e3, "us", n, 50.0}},
                  {"route_p99_us", Metric{e.tail_ms * 1e3, "us", n, 99.0}},
                  {"route_rps", Metric{e.ops_per_s, "1/s", n}}};
      break;
    }
    case Workload::kAnalyticsMix: {
      std::vector<double> kind_medians;
      for (const auto& [kind, name] :
           {std::pair{"ratios", "ratios_ms"}, {"ensemble", "ensemble_ms"},
            {"triage", "triage_ms"}, {"provision", "augment_ms"}}) {
        const Metric m = Timing(stats.Latencies(kind), kNsPerMs, "ms");
        kind_medians.push_back(m.value);
        e.detail.emplace_back(name, m);
      }
      // The worst kind against its reference, so that one kind slowing
      // moves the figure fully rather than by a fourth root.
      e.answer_ms = WorstRatioScaled(
          kind_medians, {std::begin(kHeavyReferenceMs), std::end(kHeavyReferenceMs)});
      // The slices differ by design here — which heavy query runs beside
      // the routes — so they are summarized by their median. The gated
      // tail is the p95: the p99 flips between about 0.1 ms and one
      // kernel time slice (about 3.5 ms) with where the scheduler places
      // the route thread among the pool's, within one run and one build.
      e.tail_ms = Median(stats.route_p95_ns) / kNsPerMs;
      e.ops_per_s = Median(stats.slice_ops);
      e.detail.emplace_back(
          "mix_route_p95_ms", Metric{e.tail_ms, "ms", stats.route_samples, 95.0});
      e.detail.emplace_back(
          "mix_route_p99_ms", Metric{Median(stats.route_p99_ns) / kNsPerMs, "ms",
                                     stats.route_samples, 99.0});
      e.detail.emplace_back("mix_route_rps",
                            Metric{e.ops_per_s, "1/s", stats.route_samples});
      break;
    }
    case Workload::kStormReplay: {
      const std::vector<double>& advisory = stats.Latencies("stream");
      const Metric p50 = Timing(advisory, kNsPerMs, "ms");
      const Metric p99 = TailMetric(advisory, kNsPerMs, "ms");
      e.detail = {{"advisory_p50_ms", p50}, {"advisory_p99_ms", p99}};
      e.answer_ms = p50.value;
      e.tail_ms = p99.value;
      // Passes end at advisory boundaries, not slice boundaries.
      e.ops_per_s = static_cast<double>(stats.completed) / stats.elapsed_s;
      e.detail.emplace_back("advisory_rps",
                            Metric{e.ops_per_s, "1/s", advisory.size()});
      break;
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// Traced run, part 1: Study::Build replayed stage by stage.

struct Mirror {
  std::vector<hazard::Catalog> catalogs;  // the Service's catalogs too
  Counts kde;
};

Mirror MirrorSetup(const RunOptions& options, Tracer& tracer) {
  Mirror mirror;
  const Counts kde0 = ReadCounters(kKdeCounters);
  const core::StudyOptions study_options;  // the defaults Study::Build uses
  Scoped root(&tracer, "setup", 0);
  const std::int64_t parent = root.index();
  topology::Corpus corpus;
  {
    Scoped span(&tracer, "topology.corpus", 0, parent);
    corpus = options.spec.corpus_scale > 1.0
                 ? topology::GenerateScaledCorpus(options.spec.corpus_scale,
                                                  study_options.corpus_seed)
                 : topology::GeneratePaperCorpus(study_options.corpus_seed);
  }
  std::optional<population::CensusModel> census;
  {
    Scoped span(&tracer, "population.census", 0, parent);
    census.emplace(population::CensusModel::Synthesize(study_options.census));
  }
  {
    Scoped span(&tracer, "hazard.catalogs", 0, parent);
    mirror.catalogs = hazard::SynthesizeAllCatalogs(study_options.hazard_seed);
  }
  std::optional<hazard::HistoricalRiskField> field;
  {
    Scoped span(&tracer, "hazard.field", 0, parent);
    field.emplace(mirror.catalogs, hazard::PaperBandwidths());
  }
  std::vector<riskroute::geo::GeoPoint> locations;
  for (const topology::Network& network : corpus.networks()) {
    for (const topology::Pop& pop : network.pops()) {
      locations.push_back(pop.location);
    }
  }
  {
    Scoped span(&tracer, "hazard.calibrate", 0, parent);
    field->CalibrateTo(locations, study_options.calibration_target);
  }
  std::optional<hazard::RiskFieldCache> cache;
  {
    Scoped span(&tracer, "hazard.cache_warm", 0, parent);
    cache.emplace(*field);
    cache->Warm(locations);
  }
  std::vector<population::ImpactModel> impacts;
  {
    Scoped span(&tracer, "population.impacts", 0, parent);
    for (const topology::Network& network : corpus.networks()) {
      impacts.push_back(population::ImpactModel::Build(network, *census));
    }
  }
  const std::size_t index = *corpus.FindNetwork(kNetwork);
  const core::RiskGraph graph = core::RiskGraph::FromNetwork(
      corpus.network(index), impacts[index],
      cache->PopRisks(corpus.network(index)));
  std::optional<core::RouteEngine> engine;
  {
    Scoped span(&tracer, "core.freeze", 0, parent);
    engine.emplace(graph, core::RiskParams{kLambdaH, kLambdaF});
  }
  {
    Scoped span(&tracer, "core.landmarks", 0, parent);
    engine->PrepareLandmarks(kLandmarks);
  }
  const std::string path = options.work_dir + "/mirror.rre";
  {
    Scoped span(&tracer, "core.snapshot_save", 0, parent);
    engine->SaveSnapshotFile(path);
  }
  std::filesystem::remove(path);
  AddDelta(mirror.kde, kde0, ReadCounters(kKdeCounters));
  return mirror;
}

// ---------------------------------------------------------------------------
// Traced run, part 2: the script straight through the layer calls.

struct ReplayContext {
  const api::Service& service;
  const std::vector<hazard::Catalog>* catalogs = nullptr;
  std::unordered_map<std::string, std::size_t> pop_index;
  std::unique_ptr<forecast::StreamingReroute> session;
};

/// The layer calls behind one api request, timed as children of `parent`.
/// They rebuild the options api::Service derives from a request
/// (src/api/service.cpp: Service::Ensemble's EnsembleOptions and triage
/// clamp, Service::Provision's candidate cap); Replay fails the gate
/// when their work counters differ from the api call's, so the copy
/// cannot drift unnoticed.
void LayerCalls(ReplayContext& ctx, const wire::Request& request,
                Tracer* tracer, std::uint64_t id, std::int64_t parent) {
  const core::RouteEngine& engine = ctx.service.engine();
  util::ThreadPool& pool = ctx.service.pool();
  switch (request.kind) {
    case wire::FrameKind::kRouteRequest: {
      const std::size_t src = ctx.pop_index.at(request.route.from);
      const std::size_t dst = ctx.pop_index.at(request.route.to);
      for (const double alpha : {0.0, engine.Alpha(src, dst)}) {
        Scoped span(tracer, "core.find_path", id, parent);
        (void)engine.FindPath(src, dst, alpha);
      }
      break;
    }
    case wire::FrameKind::kRatiosRequest: {
      std::vector<std::size_t> all(engine.node_count());
      std::iota(all.begin(), all.end(), std::size_t{0});
      Scoped span(tracer, "core.compute_ratios", id, parent);
      (void)engine.ComputeRatios(all, all, &pool);
      break;
    }
    case wire::FrameKind::kEnsembleRequest:
    case wire::FrameKind::kEnsembleTriageRequest: {
      if (ctx.catalogs == nullptr) break;
      sim::EnsembleOptions options;
      options.scenarios = request.ensemble.scenarios;
      options.seed = request.ensemble.seed;
      options.month = request.ensemble.month;
      options.criticality_top = request.ensemble.top;
      std::optional<sim::EnsembleEngine> ensemble;
      {
        Scoped span(tracer, "sim.ensemble_prepare", id, parent);
        ensemble.emplace(engine, *ctx.catalogs, options, &pool);
      }
      if (request.ensemble.triage) {
        sim::TriageOptions triage;
        triage.pilot = request.ensemble.pilot;
        triage.audit_stride = request.ensemble.audit_stride;
        triage.base_rate =
            static_cast<double>(request.ensemble.base_rate_ppm) / 1e6;
        triage.min_rate = std::min(triage.min_rate, triage.base_rate);
        Scoped span(tracer, "sim.triage_run", id, parent);
        (void)sim::TriagedEnsemble(*ensemble, triage).Run(&pool);
        break;
      }
      {
        Scoped span(tracer, "sim.ensemble_run", id, parent);
        (void)ensemble->Run(&pool);
      }
      // Draws run in parallel, so the parent's self time is the part of
      // its interval no draw covers.
      Scoped draws(tracer, "sim.draws", id, parent);
      util::ParallelFor(pool, options.scenarios, [&](std::size_t k) {
        Scoped span(tracer, "sim.draw", id, draws.index());
        (void)ensemble->Draw(k);
      });
      break;
    }
    case wire::FrameKind::kProvisionRequest: {
      riskroute::provision::AugmentationOptions options;
      options.links_to_add = request.provision.links;
      options.candidates.max_candidates = engine.node_count() > 100 ? 120 : 400;
      Scoped span(tracer, "provision.augment", id, parent);
      (void)riskroute::provision::GreedyAugment(engine, options, &pool);
      break;
    }
    case wire::FrameKind::kStreamAdvisory: {
      if (request.stream.reset || ctx.session == nullptr) {
        forecast::StreamOptions options;
        options.top_moves = request.stream.top;
        options.pool = &pool;
        Scoped span(tracer, "forecast.session_seed", id, parent);
        ctx.session =
            std::make_unique<forecast::StreamingReroute>(engine, options);
      }
      std::optional<forecast::Advisory> advisory;
      {
        Scoped span(tracer, "forecast.parse", id, parent);
        auto parsed = forecast::ParseAdvisoryResult(request.stream.bulletin);
        if (parsed.ok()) advisory = std::move(parsed.value());
      }
      if (!advisory) break;
      std::optional<forecast::RouteDiff> diff;
      {
        Scoped span(tracer, "forecast.ingest", id, parent);
        auto ingested = ctx.session->Ingest(*advisory);
        if (ingested.ok()) diff = std::move(ingested.value());
      }
      if (!diff) break;
      Scoped span(tracer, "forecast.render", id, parent);
      (void)forecast::RenderRouteDiff(*diff, engine, request.stream.top);
      break;
    }
    default:
      break;
  }
}

/// The work counters of a delta: the api layer's own request and cache
/// counters left out, as the layer calls do not go through it.
Counts WorkOnly(const Counts& before, const Counts& after) {
  Counts delta;
  AddDelta(delta, before, after);
  std::erase_if(delta, [](const auto& entry) {
    return entry.first.rfind("api.", 0) == 0;
  });
  return delta;
}

/// Replays the script serially: wire encode/decode, the api call (whose
/// stable-counter deltas form the ledger), then the layer calls behind
/// it. Spans of one request share its script id.
Counts Replay(ReplayContext& ctx,
              const std::vector<std::vector<ScriptItem>>& script,
              Tracer* tracer, Gate& gate) {
  Counts ledger;
  const wire::WireLimits limits;
  const wire::WireLimits response_limits = wire::ResponseLimits();
  ctx.session.reset();
  for (const std::vector<ScriptItem>& connection : script) {
    for (const ScriptItem& item : connection) {
      const std::uint64_t id = item.id;
      Scoped root(tracer, "replay", id);
      wire::Request request = item.request;
      request.id = id;
      std::string frame;
      {
        Scoped span(tracer, "server.wire_encode", id, root.index());
        frame = wire::EncodeRequest(request);
      }
      std::optional<wire::Request> decoded;
      {
        Scoped span(tracer, "server.wire_decode", id, root.index());
        auto whole = wire::DecodeSingleFrame(Bytes(frame), limits);
        if (whole.ok()) {
          auto payload = wire::DecodeRequestPayload(
              whole.value().header, Bytes(whole.value().payload), limits);
          if (payload.ok()) decoded = std::move(payload.value());
        }
      }
      if (!decoded) {
        gate.Fail("replay: request frame did not decode");
        continue;
      }
      const Counts before = ReadCounters(kLedgerCounters);
      std::string body;
      try {
        Scoped span(tracer, std::string("api.") + KindName(*decoded), id,
                    root.index());
        body = decoded->kind == wire::FrameKind::kStreamAdvisory
                   ? ctx.service.StreamAdvisory(decoded->stream).body
                   : DirectBody(ctx.service, *decoded);
      } catch (const std::exception& e) {
        gate.Fail(std::string("replay api call: ") + e.what());
      }
      const Counts after = ReadCounters(kLedgerCounters);
      AddDelta(ledger, before, after);
      LayerCalls(ctx, *decoded, tracer, id, root.index());
      if (WorkOnly(before, after) !=
          WorkOnly(after, ReadCounters(kLedgerCounters))) {
        gate.Fail(std::string("layer calls do other work than api.") +
                  KindName(*decoded) + " for request " + std::to_string(id));
      }
      std::string reply;
      {
        Scoped span(tracer, "server.wire_encode", id, root.index());
        reply = wire::EncodeResponse(id, wire::Status::kOk, body);
      }
      Scoped span(tracer, "server.wire_decode", id, root.index());
      auto whole = wire::DecodeSingleFrame(Bytes(reply), response_limits);
      if (!whole.ok() ||
          !wire::DecodeResponsePayload(whole.value().header,
                                       Bytes(whole.value().payload),
                                       response_limits)
               .ok()) {
        gate.Fail("replay: response frame did not decode");
      }
    }
  }
  return ledger;
}

/// Queue wait on a benchmark-owned RequestScheduler with the workload's
/// worker count: closed-loop submitters, TrySubmit to task start.
void QueueProbe(const RunOptions& options, const Daemon& daemon,
                const std::vector<std::vector<ScriptItem>>& script,
                Tracer& tracer, Gate& gate) {
  server::SchedulerOptions scheduler_options;
  scheduler_options.workers = options.spec.workers;
  server::RequestScheduler scheduler(scheduler_options);
  // Heavy analytics requests would only repeat the replay's work; the
  // probe sends the interactive requests.
  std::vector<std::vector<wire::Request>> lists;
  for (const auto& connection : script) {
    std::vector<wire::Request> interactive;
    for (const ScriptItem& item : connection) {
      if (item.request.kind == wire::FrameKind::kRouteRequest ||
          item.request.kind == wire::FrameKind::kStreamAdvisory) {
        interactive.push_back(item.request);
      }
    }
    if (!interactive.empty()) lists.push_back(std::move(interactive));
  }
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < lists.size(); ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t i = 0; i < lists[s].size(); ++i) {
        std::promise<std::uint64_t> started;
        std::future<std::uint64_t> done = started.get_future();
        const std::uint64_t submit_ns = NowNs();
        const auto accepted = scheduler.TrySubmit(
            [&](server::TaskFate fate) {
              const std::uint64_t start_ns = NowNs();
              if (fate == server::TaskFate::kRun &&
                  server::HandleRequest(*daemon.service, lists[s][i]).first !=
                      wire::Status::kOk) {
                failures.fetch_add(1);
              }
              started.set_value(start_ns);
            },
            server::RequestScheduler::Clock::time_point::max());
        if (accepted != server::RequestScheduler::Submit::kAccepted) {
          failures.fetch_add(1);
          continue;
        }
        Span span;
        span.name = "server.queue_wait";
        span.id = RequestId(s, i);
        span.start_ns = submit_ns;
        span.end_ns = done.get();
        tracer.Add(std::move(span));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  if (failures.load() > 0) gate.Fail("queue probe request failed");
}

/// Median over script ids of the summed durations of `name`.
double PerIdMedian(const Tracer& tracer, const std::string& name,
                   const std::vector<std::uint64_t>& ids, double scale) {
  const auto totals = tracer.TotalsById(name);
  std::vector<double> values;
  for (const std::uint64_t id : ids) {
    const auto it = totals.find(id);
    if (it != totals.end()) values.push_back(static_cast<double>(it->second));
  }
  return Median(values) / scale;
}

double SpanMedian(const Tracer& tracer, const std::string& name, double scale) {
  return Median(tracer.Durations(name)) / scale;
}

double SpanTotalMs(const Tracer& tracer, const std::string& name) {
  const std::vector<double> d = tracer.Durations(name);
  return std::accumulate(d.begin(), d.end(), 0.0) / kNsPerMs;
}

Metrics LayerMetrics(const RunOptions& options, const Tracer& tracer,
                     const std::vector<std::vector<ScriptItem>>& script,
                     const Counts& ledger, const Mirror& mirror,
                     const Window& window, double pool_workers,
                     const std::uint64_t queue_depth_peak) {
  const bool storm = options.spec.workload == Workload::kStormReplay;
  const char* interactive = storm ? "stream" : "route";
  std::vector<std::uint64_t> all_ids;
  std::vector<std::uint64_t> interactive_ids;
  for (const std::vector<ScriptItem>& connection : script) {
    for (const ScriptItem& item : connection) {
      all_ids.push_back(item.id);
      if (std::string(KindName(item.request)) == interactive) {
        interactive_ids.push_back(item.id);
      }
    }
  }
  // The client-side call spans come from the traced window, under the
  // workload's load; the api and core spans of the same ids from the
  // direct replay.
  const auto calls = tracer.TotalsById("server.call");
  const auto in_api = tracer.TotalsById(std::string("api.") + interactive);
  const auto in_core = tracer.TotalsById("core.find_path");
  const auto at = [](const auto& totals, std::uint64_t id) {
    const auto it = totals.find(id);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<double> outside;
  std::vector<double> render;
  for (const std::uint64_t id : interactive_ids) {
    outside.push_back(at(calls, id) - at(in_api, id));
    if (!storm) render.push_back(at(in_api, id) - at(in_core, id));
  }
  const auto window_at = [&](const char* name) {
    return static_cast<double>(window.counters.at(name));
  };
  const auto ledger_at = [&](const char* name) {
    const auto it = ledger.find(name);
    return it == ledger.end() ? 0.0 : static_cast<double>(it->second);
  };
  const std::vector<double> ingest = tracer.Durations("forecast.ingest");
  const Tail ingest_tail = TailAt(ingest, 99.0);

  Metrics m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.emplace_back(name, Metric{value, unit});
  };
  // server
  add("server.call_us", PerIdMedian(tracer, "server.call", interactive_ids, kNsPerUs), "us");
  add("server.outside_api_us", Median(outside) / kNsPerUs, "us");
  add("server.wire_encode_ns", PerIdMedian(tracer, "server.wire_encode", all_ids, 1.0), "ns");
  add("server.wire_decode_ns", PerIdMedian(tracer, "server.wire_decode", all_ids, 1.0), "ns");
  add("server.queue_wait_us", SpanMedian(tracer, "server.queue_wait", kNsPerUs), "us");
  add("server.scheduler.rejected_full", static_cast<double>(window.rejected_full), "count");
  add("server.scheduler.queue_depth_peak", static_cast<double>(queue_depth_peak), "count");
  // api
  add("api.route_us", SpanMedian(tracer, "api.route", kNsPerUs), "us");
  add("api.route_render_us", Median(render) / kNsPerUs, "us");
  add("api.ratios_ms", SpanMedian(tracer, "api.ratios", kNsPerMs), "ms");
  add("api.ensemble_ms", SpanMedian(tracer, "api.ensemble", kNsPerMs), "ms");
  add("api.triage_ms", SpanMedian(tracer, "api.triage", kNsPerMs), "ms");
  add("api.provision_ms", SpanMedian(tracer, "api.provision", kNsPerMs), "ms");
  add("api.stream_ms", SpanMedian(tracer, "api.stream", kNsPerMs), "ms");
  add("api.boot_ms", SpanMedian(tracer, "api.boot", kNsPerMs), "ms");
  add("api.ensemble_reuse_ratio",
      Ratio(window_at("api.ensemble.engine_reuses"),
            window_at("api.requests.ensemble")),
      "ratio");
  // core
  add("core.find_path_us", SpanMedian(tracer, "core.find_path", kNsPerUs), "us");
  add("core.compute_ratios_ms", SpanMedian(tracer, "core.compute_ratios", kNsPerMs), "ms");
  add("core.snapshot_load_ms", SpanMedian(tracer, "core.snapshot_load", kNsPerMs), "ms");
  add("core.freeze_ms", SpanMedian(tracer, "core.freeze", kNsPerMs), "ms");
  add("core.landmarks_ms", SpanMedian(tracer, "core.landmarks", kNsPerMs), "ms");
  add("core.snapshot_save_ms", SpanMedian(tracer, "core.snapshot_save", kNsPerMs), "ms");
  for (const char* counter :
       {"core.route_engine.relaxations", "core.route_engine.heap_pops",
        "core.route_engine.sweeps", "core.route_engine.alt_sweeps",
        "core.route_engine.overlay_sweeps",
        "core.route_engine.envelope_sweeps"}) {
    add(counter, ledger_at(counter), "count");
  }
  // sim
  add("sim.ensemble_prepare_ms", SpanMedian(tracer, "sim.ensemble_prepare", kNsPerMs), "ms");
  add("sim.ensemble_run_ms", SpanMedian(tracer, "sim.ensemble_run", kNsPerMs), "ms");
  add("sim.draw_us", SpanMedian(tracer, "sim.draw", kNsPerUs), "us");
  add("sim.triage_run_ms", SpanMedian(tracer, "sim.triage_run", kNsPerMs), "ms");
  add("sim.pair_skip_ratio",
      Ratio(ledger_at("sim.ensemble.skipped_pair_sweeps"),
            ledger_at("sim.ensemble.skipped_pair_sweeps") +
                ledger_at("sim.ensemble.overlay_pair_sweeps")),
      "ratio");
  add("sim.triage_exact_ratio",
      Ratio(ledger_at("ensemble.triage.exact_evaluations"),
            ledger_at("ensemble.triage.universe")),
      "ratio");
  // provision
  add("provision.augment_ms", SpanMedian(tracer, "provision.augment", kNsPerMs), "ms");
  add("provision.augment.scan_candidates", ledger_at("provision.augment.scan_candidates"), "count");
  add("provision.augment.exact_rechecks", ledger_at("provision.augment.exact_rechecks"), "count");
  // forecast
  add("forecast.parse_us", SpanMedian(tracer, "forecast.parse", kNsPerUs), "us");
  add("forecast.ingest_p50_ms", Median(ingest) / kNsPerMs, "ms");
  add("forecast.ingest_tail_ms", ingest_tail.value / kNsPerMs, "ms");
  add("forecast.render_us", SpanMedian(tracer, "forecast.render", kNsPerUs), "us");
  add("forecast.session_seed_ms", SpanMedian(tracer, "forecast.session_seed", kNsPerMs), "ms");
  add("forecast.pair_skip_ratio",
      Ratio(ledger_at("stream.cache.hits"),
            ledger_at("stream.cache.hits") + ledger_at("stream.pairs.recomputed")),
      "ratio");
  add("forecast.scope_pops", ledger_at("stream.scope.pops"), "count");
  // set-up stages
  add("topology.corpus_ms", SpanTotalMs(tracer, "topology.corpus"), "ms");
  add("population.census_ms", SpanTotalMs(tracer, "population.census"), "ms");
  add("population.impacts_ms", SpanTotalMs(tracer, "population.impacts"), "ms");
  add("hazard.catalogs_ms", SpanTotalMs(tracer, "hazard.catalogs"), "ms");
  add("hazard.field_ms", SpanTotalMs(tracer, "hazard.field"), "ms");
  add("hazard.calibrate_ms", SpanTotalMs(tracer, "hazard.calibrate"), "ms");
  add("hazard.cache_warm_ms", SpanTotalMs(tracer, "hazard.cache_warm"), "ms");
  for (const char* counter : kKdeCounters) {
    add(counter, static_cast<double>(mirror.kde.at(counter)), "count");
  }
  // util and process, over the untraced window
  add("util.pool_busy_ratio",
      Ratio(static_cast<double>(window.pool_busy_ns),
            pool_workers * window.elapsed_s * 1e9),
      "ratio");
  add("util.thread_pool.tasks", static_cast<double>(window.pool_tasks), "count");
  add("process.cpu_s", window.cpu_s, "s");
  add("process.cpu_ms_per_op",
      Ratio(window.cpu_s * 1e3, static_cast<double>(window.Completed())), "ms");
  return m;
}

std::string Fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

std::string MetricsJson(const Metrics& metrics, bool with_detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, metric] = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
           Fixed(metric.value) + ", \"unit\": \"" + metric.unit + "\"";
    if (with_detail && metric.samples > 0) {
      out += ", \"samples\": " + std::to_string(metric.samples);
    }
    if (with_detail && metric.percentile > 0.0) {
      out += ", \"percentile\": " + Fixed(metric.percentile);
    }
    out += "}";
  }
  return out + "}";
}

RunResult RunBenchmark(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  RunResult result;
  Gate gate;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const auto tally = [&result](const Window& w) {
    for (const ConnLog& log : w.conns) {
      result.attempted += log.attempted;
      result.failed += log.failed;
      result.messages.insert(result.messages.end(), log.errors.begin(),
                             log.errors.end());
    }
  };

  // Three daemons, each set up from scratch and measured for a third of
  // the window, so set-up time gets a median and the timings do not hang
  // on one daemon's thread placement. The traced run uses one daemon.
  const std::size_t daemons = options.trace ? 1 : 3;
  const double window_s = options.seconds / static_cast<double>(daemons);
  const std::size_t min_advisories = kMinAdvisorySamples / daemons + 1;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<double> heap_mb;
  std::vector<double> cold_ms;
  std::vector<double> probe_ms;
  SetupTimes times;
  Stats stats;
  Window window;
  std::unique_ptr<Daemon> daemon;
  std::map<std::string, std::string> memo;
  std::vector<std::string> stream_expected;
  const auto probe_host = [&probe_ms] {
    for (std::size_t r = 0; r < kProbeRepeats; ++r) {
      probe_ms.push_back(ProbeOnceMs());
    }
  };
  for (std::size_t k = 0; k < daemons; ++k) {
    daemon.reset();
    probe_host();
    daemon = SetUp(options, static_cast<int>(k), times, gate);
    setup_s.push_back(times.total_s);
    window = RunWindow(options, *daemon, nullptr, window_s, min_advisories);
    if (options.spec.workload == Workload::kStormReplay && k == 0) {
      stream_expected =
          DirectStreamBodies(daemon->service->engine(), StormPass(options.seed),
                             &daemon->service->pool());
    }
    CheckWindow(*daemon, window, memo, stream_expected, gate);
    stats.Add(window);
    tally(window);
    // The daemon's memory, without the benchmark's own sample buffers.
    window.Release();
    rss_mb.push_back(ResidentMb());
    heap_mb.push_back(HeapInUseMb());
    const std::uint64_t cold_start = NowNs();
    for (std::size_t r = 0; r < kColdMaxRepeats; ++r) {
      if (r >= kColdRepeats && SecondsSince(cold_start) >= kColdBudgetS) break;
      cold_ms.push_back(ColdOnce(options, *daemon, nullptr, r, gate, r == 0));
    }
  }
  const std::uint64_t queue_depth_peak = static_cast<std::uint64_t>(
      reg.GetGauge("server.scheduler.queue_depth_peak", obs::Stability::kVolatile)
          .Value());
  const std::size_t service_pool = daemon->service->pool().thread_count();
  const std::size_t pops = daemon->names.size();
  // The traced run goes on with its daemon.
  if (!options.trace) {
    daemon.reset();
    probe_host();
  }
  const EndToEnd e2e = Summarize(options.spec, stats);
  const Metric setup{Median(setup_s), "s", setup_s.size(), 50.0};
  const Metric heap{Median(heap_mb), "MB", heap_mb.size(), 50.0};
  // Gated timings at the reference host speed: as measured, times the
  // probe's reference pass time over its pass time on this run's host.
  const Metric probe{Median(probe_ms), "ms", probe_ms.size(), 50.0};
  const double speed = kProbeReferenceMs / probe.value;
  result.end_to_end = {
      {"setup_s", Metric{setup.value * speed, "s"}},
      {"heap_mb", heap},
      {"answer_ms", Metric{e2e.answer_ms * speed, "ms"}},
      {"tail_ms", Metric{e2e.tail_ms * speed, "ms"}},
  };
  // Not gated: between runs it follows the host's page-fault cost, which
  // drifts more than the bound allows (see README).
  const Metric cold{BestQuartile(cold_ms, false), "ms", cold_ms.size(), 25.0};
  // The report line holds the timings as measured.
  result.detail = e2e.detail;
  result.detail.emplace_back(
      options.spec.workload == Workload::kRouteServe ? "cold_route_ms"
                                                     : "cold_ms",
      cold);
  result.detail.emplace_back("setup_s", setup);
  result.detail.emplace_back(
      "rss_mb", Metric{Median(rss_mb), "MB", rss_mb.size(), 50.0});
  result.detail.emplace_back("heap_mb", heap);
  result.detail.emplace_back("host_probe_ms", probe);
  // Share of the host's CPUs taken by the hypervisor during the windows:
  // the outside noise every timing above carries.
  result.detail.emplace_back(
      "host_steal_pct",
      Metric{100.0 * stats.steal_s /
                 (stats.elapsed_s * std::thread::hardware_concurrency()),
             "%"});

  if (options.trace) {
    Tracer tracer;
    Window traced =
        RunWindow(options, *daemon, &tracer, window_s, min_advisories);
    CheckWindow(*daemon, traced, memo, stream_expected, gate);
    Stats traced_stats;
    traced_stats.Add(traced);
    const EndToEnd traced_e2e = Summarize(options.spec, traced_stats);
    traced.Release();
    const double traced_heap = HeapInUseMb();
    std::vector<double> traced_cold;
    for (std::size_t r = 0; r < kColdRepeats; ++r) {
      traced_cold.push_back(ColdOnce(options, *daemon, &tracer, r, gate, false));
    }
    for (std::size_t r = 0; r < kColdRepeats; ++r) {
      Scoped span(&tracer, "core.snapshot_load", r);
      if (!core::RouteEngine::LoadSnapshotFile(daemon->snapshot_path).ok()) {
        gate.Fail("snapshot load");
      }
    }
    const Mirror mirror = MirrorSetup(options, tracer);
    const auto script = TraceScript(options.spec, daemon->names, options.seed);

    ReplayContext ctx{*daemon->service, &mirror.catalogs, {}, nullptr};
    for (std::size_t v = 0; v < daemon->names.size(); ++v) {
      ctx.pop_index[daemon->names[v]] = v;
    }
    ParkEnsembleCache(options, *daemon);
    const Counts ledger = Replay(ctx, script, &tracer, gate);
    QueueProbe(options, *daemon, script, tracer, gate);

    result.per_layer =
        LayerMetrics(options, tracer, script, ledger, mirror, window,
                     static_cast<double>(service_pool),
                     queue_depth_peak);
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    const auto overhead = [&](const char* name, double traced_value,
                              const Metric& untraced) {
      result.per_layer.emplace_back(
          name, Metric{traced_value - untraced.value, untraced.unit});
    };
    overhead("overhead.setup_s",
             SpanTotalMs(tracer, "setup") / 1e3 + times.serve_s, setup);
    overhead("overhead.heap_mb", traced_heap, heap);
    overhead("overhead.cold_ms", BestQuartile(traced_cold, false), cold);
    overhead("overhead.answer_ms", traced_e2e.answer_ms,
             Metric{e2e.answer_ms, "ms"});
    overhead("overhead.tail_ms", traced_e2e.tail_ms, Metric{e2e.tail_ms, "ms"});

    result.ledger = ledger;
    for (const auto& [name, value] : mirror.kde) result.ledger[name] = value;
    tally(traced);
    tracer.WriteJson(options.work_dir + "/spans-" + options.spec.name + "-" +
                     std::to_string(options.seed) + ".json");
  }

  // A failure is a non-kOk reply, a dropped connection, or any answer
  // the gate found wrong.
  result.failed += gate.failed();
  result.correct = result.failed == 0;
  result.messages.insert(result.messages.end(), gate.messages().begin(),
                         gate.messages().end());
  const double error_rate =
      Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted));
  result.detail.emplace_back("error_rate", Metric{error_rate, "ratio"});
  if (options.trace) {
    result.per_layer.emplace_back("error_rate", Metric{error_rate, "ratio"});
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  result.fingerprint = {
      {"nproc", std::to_string(nproc)},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"source", options.source_id},
      {"scheduler_workers", std::to_string(options.spec.workers)},
      {"service_pool", std::to_string(service_pool)},
      {"corpus_scale", Fixed(options.spec.corpus_scale)},
      {"pops", std::to_string(pops)},
      {"seed", std::to_string(options.seed)},
      {"seconds", Fixed(options.seconds)},
      {"gate_checked", std::to_string(gate.checked())},
  };
  return result;
}

}  // namespace perfbench
