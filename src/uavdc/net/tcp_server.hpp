#pragma once

#include <cstdint>
#include <string>

#include "uavdc/net/front.hpp"
#include "uavdc/net/repository.hpp"
#include "uavdc/net/transport_stats.hpp"
#include "uavdc/service/plan_service.hpp"

namespace uavdc::net {

struct TcpServerConfig : FrontConfig {
    service::PlanService::Config service;
    /// Non-empty: open/replay a `Repository` at this path and wire its
    /// store hooks, so instances and cached responses survive restarts.
    std::string repo_path;
};

/// `PlanService` over TCP: the server role of `Front` (which documents the
/// wire protocol). Planning runs on the service's worker pool; completions
/// re-enter the loop through a self-pipe. On drain, frames not yet
/// submitted are answered `shutdown`.
class TcpServer {
  public:
    explicit TcpServer(TcpServerConfig cfg) : cfg_(std::move(cfg)) {}

    struct RunResult {
        TransportStats transport;
        service::ServiceStats service;
        Repository::LoadResult preloaded;
        std::uint64_t repo_appends{0};
    };

    /// Bind, serve until the stop flag (plus drain), and return the final
    /// counters. Throws std::runtime_error when the bind itself fails.
    RunResult run();

  private:
    TcpServerConfig cfg_;
};

}  // namespace uavdc::net
