#pragma once

#include <cstdint>

#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// GRASP (greedy randomized adaptive search procedure) configuration.
struct GraspConfig {
    int iterations = 24;          ///< independent construct+polish restarts
    std::uint64_t seed = 12345;   ///< RNG seed (restarts use split streams)
};

/// GRASP metaheuristic for rooted budgeted orienteering: randomized
/// greedy construction (restricted candidate list over prize/Δcost), 2-opt +
/// insert/replace polish, plus shake-and-repolish intensification. Keeps the
/// best feasible solution across restarts. Deterministic for a fixed config.
[[nodiscard]] Solution solve_grasp(const Problem& p,
                                   const GraspConfig& cfg = {});

}  // namespace uavdc::orienteering
