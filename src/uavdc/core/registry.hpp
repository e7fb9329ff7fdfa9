#pragma once

#include <memory>
#include <string>
#include <vector>

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/incremental_scorer.hpp"
#include "uavdc/core/planner.hpp"
#include "uavdc/orienteering/solver.hpp"

namespace uavdc::core {

/// Options shared by all planners constructible by name (the CLI and bench
/// harnesses use this to avoid hand-rolled switch statements).
///
/// Candidate-generation defaults are inherited from `HoverCandidateConfig`
/// — the one source of truth — so registry-built planners and hand-built
/// ones agree on the grid precompute.
struct PlannerOptions {
    double delta_m =
        HoverCandidateConfig{}.delta_m;  ///< grid resolution (alg1/2/3)
    int max_candidates =
        HoverCandidateConfig{}.max_candidates;  ///< candidate cap (alg1/2/3)
    int k = 2;                   ///< Algorithm 3 sojourn partitions
    int grasp_iterations = 8;    ///< Algorithm 1 GRASP restarts
    /// Read by nothing in the library: every value plans with the one
    /// greedy engine. Kept for the perfbench engine crossover, whose rows
    /// are A/A replicates of that engine (see `ScoringEngine`).
    ScoringEngine scoring = ScoringEngine::kIncremental;
    orienteering::SolverKind solver =
        orienteering::SolverKind::kGrasp;  ///< Algorithm 1 backend
    /// Candidate-space reduction for alg2/alg3 (disabled by default; the
    /// other planners ignore it).
    CandidateReductionConfig reduction{};

    /// The candidate config these options denote; also the config to build
    /// a shared `PlanningContext` with so registry planners hit the same
    /// cache entry.
    [[nodiscard]] HoverCandidateConfig hover_config() const {
        HoverCandidateConfig c;
        c.delta_m = delta_m;
        c.max_candidates = max_candidates;
        return c;
    }
};

/// Names accepted by make_planner: "alg1", "alg2", "alg3",
/// "benchmark", "kmeans", "sweep".
[[nodiscard]] std::vector<std::string> planner_names();

/// Construct a planner by name; throws std::invalid_argument for unknown
/// names.
[[nodiscard]] std::unique_ptr<Planner> make_planner(
    const std::string& name, const PlannerOptions& opts = {});

}  // namespace uavdc::core
