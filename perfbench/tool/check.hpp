#pragma once

// The correctness gate: every request answered exactly once with status
// ok, every result byte-equal to an in-process `PlanService::execute`
// reference built with the servers' defaults (the `stats.runtime_s` timing
// field aside), every plan clean under `validate_plan`, and its
// `evaluate_plan` volume equal to the planner's `planned_mb`.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload.hpp"

namespace pb {

/// What the client saw for one request it sent.
struct Outcome {
    std::string id;
    std::string payload;  ///< request bytes (kept for unique-key requests)
    int key{-1};
    bool measured{false};  ///< saturation or open-loop phase
    bool quality{false};   ///< in the workload's quality set (volume_mb)
    std::uint32_t responses{0};
    std::string status;
    /// Result bytes. Keyed requests keep them only when they differ from
    /// the primed bytes of their key (`key_mismatch`).
    std::string result;
    bool key_mismatch{false};
};

struct CheckReport {
    bool ok{true};
    std::vector<std::string> reasons;  ///< first few failures, named
    std::uint64_t failed{0};           ///< requests failing any check
    std::uint64_t attempted{0};
    double volume_mb{0.0};             ///< mean evaluate_plan volume, quality set
    double planner_ms_p50{0.0};        ///< stats.runtime_s of planned responses
    double candidates_per_plan{0.0};
};

/// The result bytes with the one timing field, `stats.runtime_s`, zeroed.
[[nodiscard]] std::string without_runtime(std::string_view result);

/// `keyed_results[k]` holds the server's primed result bytes for key k.
[[nodiscard]] CheckReport check_outcomes(
    const std::vector<Outcome>& outcomes,
    const std::vector<std::string>& keyed_results,
    const std::vector<Request>& priming, int threads);

}  // namespace pb
