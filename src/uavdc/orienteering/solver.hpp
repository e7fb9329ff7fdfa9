#pragma once

#include <memory>
#include <string>

#include "uavdc/orienteering/grasp.hpp"
#include "uavdc/orienteering/ils.hpp"
#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// Which orienteering backend Algorithm 1 should use as the black-box
/// solver (the paper plugs in Bansal et al. [1]; see DESIGN.md
/// substitution #1 for why these are behaviour-preserving stand-ins).
enum class SolverKind {
    kExact,   ///< bitmask DP, n <= ~20 (tests, tiny instances)
    kGreedy,  ///< deterministic cheapest-insertion + polish
    kGrasp,   ///< randomized multi-start (default)
    kIls,     ///< iterated local search around one incumbent
};

[[nodiscard]] std::string to_string(SolverKind kind);

/// Unified entry point: dispatches on `kind`; ILS runs at its defaults.
/// kExact throws std::invalid_argument if the instance exceeds the
/// bitmask-DP limit — there is deliberately no silent fallback.
[[nodiscard]] Solution solve(const Problem& p, SolverKind kind,
                             const GraspConfig& grasp_cfg = {});

}  // namespace uavdc::orienteering
