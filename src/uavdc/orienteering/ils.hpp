#pragma once

#include <cstdint>

#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// Iterated local search configuration.
struct IlsConfig {
    int iterations = 60;           ///< perturb + polish rounds
    std::uint64_t seed = 777;      ///< RNG seed
    int patience = 20;             ///< stop after this many non-improving
                                   ///< rounds (0 = never early-stop)
};

/// Iterated local search for rooted budgeted orienteering: start from the
/// greedy solution, then repeatedly remove a random contiguous run of
/// stops (double-bridge-style segment removal), re-polish (2-opt +
/// insert/replace), and accept improvements. Complements GRASP: ILS makes
/// many small moves around one incumbent, GRASP restarts from scratch —
/// on clustered prize fields ILS often wins at equal budget.
/// Deterministic for a fixed config.
[[nodiscard]] Solution solve_ils(const Problem& p, const IlsConfig& cfg = {});

}  // namespace uavdc::orienteering
