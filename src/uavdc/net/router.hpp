#pragma once

#include <string>
#include <vector>

#include "uavdc/net/front.hpp"
#include "uavdc/net/transport_stats.hpp"

namespace uavdc::net {

struct RouterConfig : FrontConfig {
    /// Managed mode: spawn this many `uavdc serve --tcp --announce` worker
    /// processes (respawned on crash). Mutually exclusive with `endpoints`.
    int shards = 0;
    std::size_t shard_workers = 0;  ///< threads per worker (0 = default)
    /// Directory for per-shard repositories (`shard-<i>.jsonl`); empty
    /// disables durability (a respawned shard then starts cold).
    std::string repo_dir;

    /// Static mode (tests): route to already-running servers on these ports
    /// instead of spawning; a lost upstream is reconnected, not respawned.
    std::vector<int> endpoints;

    int spawn_timeout_ms = 10000;  ///< announce-handshake wait per worker
};

/// Thin request router in front of N `PlanService` shards: the router role
/// of `Front` (which documents the wire protocol; `stats` here reports the
/// transport counters, the shard count and the pending-table size).
///
/// Each client plan request is hashed to a shard by *instance fingerprint*
/// (`instance_ref` directly; inline instances by content hash), so every
/// request for one instance lands on the shard whose registry,
/// `PlanningContext` LRU, and response cache are warm for it. A request is
/// forwarded as the client's own bytes with `"id":"<seq>#<original-id>"`
/// appended as its last member (the parser keeps the last of repeated
/// keys), so concurrent clients with colliding ids stay distinguishable and
/// no request is encoded again; responses are de-tagged on the way back.
///
/// At-least-once upstream, exactly-once to the client: every forwarded
/// request stays in a pending table until its response has been handed to
/// the client. When a shard connection dies (crash, kill -9), the shard is
/// respawned (managed) or reconnected (static) and only the still-pending
/// requests are resent (`retried_after_shard_death`) — planning is
/// deterministic and cached, so a request whose response was lost in the
/// dead connection re-produces the identical payload, and one whose
/// response already reached the client is never resent. Once draining, a
/// down shard is not revived: its pending requests are answered `shutdown`.
class Router {
  public:
    explicit Router(RouterConfig cfg) : cfg_(std::move(cfg)) {}

    struct RunResult {
        TransportStats transport;
        bool clean_shutdown{false};  ///< all shards reaped with exit 0
    };

    RunResult run();

  private:
    RouterConfig cfg_;
};

}  // namespace uavdc::net
