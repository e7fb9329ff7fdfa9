#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "uavdc/core/registry.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/model/instance.hpp"
#include "uavdc/model/plan.hpp"

namespace uavdc::service {

/// Admission bounds on the two per-request work multipliers: Algorithm 3's
/// sojourn partitions `k` and Algorithm 1's GRASP restarts. Plan time is
/// linear in each, so a request outside [1, kMaxPartialK] or
/// [0, kMaxGraspIterations] is answered `bad_request` (DESIGN.md,
/// "Admission bound"). Bounds, not options.
inline constexpr int kMaxPartialK = 64;
inline constexpr int kMaxGraspIterations = 256;

/// Per-request overrides of the service's default `core::PlannerOptions`.
/// Absent fields inherit the service default, so a request only carries
/// what it changes (the resolved options feed the response-cache key).
struct PlannerOverrides {
    std::optional<double> delta_m;
    std::optional<int> max_candidates;
    std::optional<int> k;
    std::optional<int> grasp_iterations;
    std::optional<orienteering::SolverKind> solver;
    /// Candidate-space reduction (alg2/alg3 only; other planners ignore it).
    std::optional<bool> reduce;            ///< dominance filtering on/off
    std::optional<int> reduce_coarsen;     ///< grid-coarsening factor (>= 2)
    std::optional<double> reduce_band_m;   ///< refine-replan band (metres)
    std::optional<int> reduce_consolidate; ///< k-means target count (> 0)

    /// Service defaults + this request's overrides.
    [[nodiscard]] core::PlannerOptions resolve(
        core::PlannerOptions base) const;
};

/// One planning request. The instance travels inline exactly once — the
/// service remembers every inline instance under its fingerprint, so later
/// requests in the same session reference it by `instance_ref` and pay the
/// transfer/parse cost once per fleet instead of once per request.
struct PlanRequest {
    std::string id;                ///< client correlation id (echoed back)
    std::string planner;           ///< registry name ("alg1".."sweep")
    std::optional<model::Instance> instance;       ///< inline instance
    std::optional<std::uint64_t> instance_ref;     ///< fingerprint reference
    PlannerOverrides overrides;
    int priority{0};               ///< higher runs first; ties are FIFO
    double deadline_ms{0.0};       ///< wall-clock budget from admission;
                                   ///< <= 0 means no deadline
};

/// Terminal request states (the response `status` field).
enum class ResponseStatus {
    kOk,                ///< planned (or served from the response cache)
    kOverloaded,        ///< rejected at admission: queue full
    kDeadlineExceeded,  ///< deadline passed before/while planning
    kBadRequest,        ///< malformed request / unknown planner / unknown ref
    kInternalError,     ///< planner threw
    kShutdown,          ///< service stopping, request not admitted
};

[[nodiscard]] std::string to_string(ResponseStatus status);

/// One response, correlated to its request by `id`. Exactly one response is
/// produced per submitted request, in completion (not submission) order.
struct PlanResponse {
    std::string id;
    ResponseStatus status{ResponseStatus::kOk};
    std::string error;       ///< human-readable detail for non-ok statuses
    bool cache_hit{false};   ///< payload served from the response cache
    bool partial{false};     ///< deadline expired mid-plan; `result_wire`
                             ///< holds the best plan produced anyway
    double queue_ms{0.0};    ///< admission -> execution start
    double exec_ms{0.0};     ///< execution start -> response
    /// The result document {"instance_fingerprint","planner","plan","stats"}
    /// in its one stored form: the bytes ResponseCache::put dumped, shared
    /// with the cache entry. Set on every ok/partial response, null
    /// otherwise; response_line() splices it into the envelope.
    std::shared_ptr<const std::string> result_wire;
};

/// Instance fingerprints travel as fixed-width lowercase hex (JSON numbers
/// are doubles and cannot carry 64 bits exactly).
[[nodiscard]] std::string fingerprint_to_hex(std::uint64_t fp);
[[nodiscard]] std::uint64_t fingerprint_from_hex(const std::string& hex);

/// Request wire format:
///   {"id": str, "planner": str,
///    "instance": {...} | "instance_ref": "16-hex",
///    "options": {"delta_m","max_candidates","k","grasp_iterations",
///                "solver": "exact"|"greedy"|"grasp"|"ils",
///                "reduce": bool, "reduce_coarsen": int,
///                "reduce_band_m": num, "reduce_consolidate": int},
///    "priority": int, "deadline_ms": num}
/// Throws std::runtime_error (with field context) on malformed input — the
/// transport maps that to a `bad_request` response. An `options` key not
/// listed above is malformed: a misspelt option must not plan silently
/// without it.
[[nodiscard]] PlanRequest request_from_json(const io::Json& doc);
/// The checks `request_from_json` makes first, and throws from as it does:
/// `doc` is an object with a non-empty `id`. The router makes them before
/// it tags and forwards a request, so it answers one it cannot tag as the
/// service would.
void check_request_envelope(const io::Json& doc);
/// `doc[key]` when `doc` is an object holding a string there, else "": how
/// the transports read a frame's `id` and `op` before anything else is
/// checked, so that a non-string value is answered, not thrown.
[[nodiscard]] std::string envelope_string(const io::Json& doc,
                                          const std::string& key);
[[nodiscard]] io::Json to_json(const PlanRequest& req);

/// The single-line wire form of a response, and the only response
/// serializer: every transport (JSONL, TCP server, router) goes through
/// here, so they stay byte-identical by construction. The envelope keys
/// come in `io::Json::dump()`'s sorted order, rendered by its primitives,
/// so the line equals `Json::parse(line).dump()`; `"result"` is spliced
/// from `resp.result_wire` and left out when there is none.
[[nodiscard]] std::string response_line(const PlanResponse& resp);

}  // namespace uavdc::service
