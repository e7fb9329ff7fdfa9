#pragma once

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planner.hpp"

namespace uavdc::core {

/// Configuration for Algorithm 3.
struct Algorithm3Config {
    HoverCandidateConfig candidates;
    /// K: number of equal sojourn-duration fractions per hovering location
    /// (Sec. III-C). K = 1 degenerates to full collection (Algorithm 2's
    /// problem); larger K plans dwell in finer steps.
    int k = 2;
    /// Re-optimise the tour after this many new stops (0 = final pass only).
    int retour_every = 8;
    /// Parallel candidate scoring threshold (0 = always serial).
    int parallel_threshold = 512;
    /// Optional mission deadline on T = T_h + T_t in seconds
    /// (0 = unconstrained); see Algorithm2Config::max_tour_time_s.
    double max_tour_time_s = 0.0;
    /// Candidate-space reduction applied before planning (disabled by
    /// default); see Algorithm2Config::reduction.
    CandidateReductionConfig reduction;
};

/// The paper's Algorithm 3 (Sec. VI): heuristic for the *partial* data
/// collection maximization problem.
///
/// Every real hovering location s_j spawns K virtual locations with dwell
/// k * t(s_j) / K and prize P(s_{j,k}) (Eq. 4-5). Following Lemma 2, at
/// most one virtual location per real location lives in the tour: choosing
/// a longer virtual location of an already-included s_j replaces the
/// shorter one. We implement this with residual-data bookkeeping — the
/// replacement rule is exactly "extend the dwell at s_j by k * t(s_j) / K
/// where t(s_j) is recomputed from residual volumes" (Alg. 3 lines 7-12),
/// and each device's residual may be drained across multiple overlapping
/// stops (the paper's multi-location pickup).
class PartialCollectionPlanner final : public Planner {
  public:
    explicit PartialCollectionPlanner(Algorithm3Config cfg = {})
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
    [[nodiscard]] std::string name() const override {
        return "alg3-k" + std::to_string(cfg_.k);
    }

  private:
    Algorithm3Config cfg_;
};

}  // namespace uavdc::core
