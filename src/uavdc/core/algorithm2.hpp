#pragma once

#include <string>

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planner.hpp"

namespace uavdc::core {

/// Candidate-ranking rule for the greedy insertion loop. The paper's
/// Eq. (13) scores marginal data per marginal energy; the alternatives
/// isolate how load-bearing that design choice is (abl_ratio bench).
enum class RatioRule {
    kPaper,       ///< P'(s) / (t'(s) eta_h + Delta-travel energy), Eq. 13
    kVolumeOnly,  ///< P'(s) — grab the biggest pile, ignore cost
    kPerHover,    ///< P'(s) / hover energy only — travel treated as free
};

[[nodiscard]] std::string to_string(RatioRule rule);

/// Configuration for Algorithm 2.
struct Algorithm2Config {
    HoverCandidateConfig candidates;
    /// Candidate-ranking rule (the paper's Eq. 13 by default).
    RatioRule ratio_rule = RatioRule::kPaper;
    /// Re-optimise the tour (Christofides + 2-opt over the selected stops)
    /// after this many insertions; 0 disables periodic re-touring (a final
    /// re-tour still runs). Shorter tours free energy for more stops.
    int retour_every = 8;
    /// Score candidates on the global thread pool when there are at least
    /// this many of them (0 = always serial).
    int parallel_threshold = 512;
    /// Optional mission deadline: total tour time T = T_h + T_t must not
    /// exceed this many seconds (0 = unconstrained). An operational
    /// extension beyond the paper's energy-only budget.
    double max_tour_time_s = 0.0;
    /// Candidate-space reduction applied before planning (disabled by
    /// default). When `reduction.refine_band_m > 0` the planner re-plans
    /// once over the reduced set plus the originals within the band of the
    /// incumbent tour and keeps the better plan.
    CandidateReductionConfig reduction;
};

/// The paper's Algorithm 2 (Sec. V): heuristic for the data collection
/// maximization problem *with* hovering coverage overlapping.
///
/// Iteratively grows the tour from {depot}: each round picks the unvisited
/// candidate maximising the ratio rho(s) = P'(s) / (t'(s) eta_h + Delta
/// travel energy) (Eq. 13), where P'(s) counts only devices not already
/// covered (Eq. 11) and t'(s) is the max residual upload time among them
/// (Eq. 12); stops when no candidate fits the remaining energy.
class GreedyCoveragePlanner final : public Planner {
  public:
    explicit GreedyCoveragePlanner(Algorithm2Config cfg = {})
        : cfg_(std::move(cfg)) {}

    using Planner::plan;
    /// Runs `plan_view` through `plan_over_candidates` with `cfg.reduction`.
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    /// One lazy-greedy run over a non-empty `view`, without reduction,
    /// refine or fallback.
    [[nodiscard]] PlanResult plan_view(const PlanningContext& ctx,
                                       const CandidateView& view);
    [[nodiscard]] HoverCandidateConfig candidate_config() const override {
        return cfg_.candidates;
    }
    [[nodiscard]] std::string name() const override { return "alg2-greedy"; }

  private:
    Algorithm2Config cfg_;
};

}  // namespace uavdc::core
