// Correctness gate: every served body the benchmark checks must be
// byte-equal to an independent direct computation of the same request.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/service.h"
#include "server/wire.h"

namespace perfbench {

namespace wire = riskroute::server::wire;

class Gate {
 public:
  /// A non-kOk status or any byte difference counts as one failure.
  void Check(const std::string& what, wire::Status status,
             const std::string& served, const std::string& expected);
  void Fail(const std::string& what);

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// The first few failure descriptions.
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The body a direct api::Service call returns for a route, ratios,
/// ensemble, triaged-ensemble or provision request.
[[nodiscard]] std::string DirectBody(const riskroute::api::Service& service,
                                     const wire::Request& request);

/// Bodies of an independent forecast::StreamingReroute replay of one
/// storm pass over `engine`: a new session at every `reset`, each
/// bulletin parsed, ingested and rendered as the service renders it.
[[nodiscard]] std::vector<std::string> DirectStreamBodies(
    const riskroute::core::RouteEngine& engine,
    const std::vector<wire::Request>& pass, riskroute::util::ThreadPool* pool);

}  // namespace perfbench
