#pragma once

#include <cstdint>

#include "uavdc/io/json.hpp"

namespace uavdc::net {

/// Transport-level counters, reported next to `service::ServiceStats` under
/// the `"transport"` key of a `stats` reply. `requests` counts the plan
/// requests a front accepted and `responses` their answers, so
/// `requests == responses` once a front has drained (a router's pending
/// request on a shard still down at drain is answered `shutdown` and
/// counted as its response). A request shed by the drain is never
/// accepted: it counts only in `shed_on_shutdown`, so a drained front
/// answered `requests + shed_on_shutdown` plan requests, each exactly once.
struct TransportStats {
    std::uint64_t connections_opened{0};
    std::uint64_t connections_closed{0};
    std::uint64_t open_connections{0};   ///< snapshot, not monotonic
    std::uint64_t bytes_in{0};
    std::uint64_t bytes_out{0};
    std::uint64_t frames_decoded{0};     ///< well-formed frames (any kind)
    std::uint64_t frames_malformed{0};   ///< framing-level rejects
    std::uint64_t requests{0};           ///< plan requests dispatched
    std::uint64_t responses{0};          ///< plan responses delivered
    std::uint64_t control{0};            ///< stats/drain verbs answered
    std::uint64_t shed_on_shutdown{0};   ///< decoded-but-unsubmitted frames
                                         ///< answered `shutdown` at drain
    std::uint64_t retried_after_shard_death{0};  ///< router resends
    std::uint64_t shard_respawns{0};             ///< router worker restarts
    std::uint64_t write_queue_bytes{0};  ///< snapshot of buffered output
};

[[nodiscard]] io::Json to_json(const TransportStats& t);

}  // namespace uavdc::net
