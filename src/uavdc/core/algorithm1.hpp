#pragma once

#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planner.hpp"
#include "uavdc/orienteering/solver.hpp"

namespace uavdc::core {

/// Configuration for Algorithm 1.
struct Algorithm1Config {
    HoverCandidateConfig candidates;
    /// Backend for the orienteering black box (paper: Bansal et al. [1];
    /// see DESIGN.md substitution #1).
    orienteering::SolverKind solver = orienteering::SolverKind::kGrasp;
    orienteering::GraspConfig grasp;
};

/// The paper's Algorithm 1 (Sec. IV): approximation algorithm for the data
/// collection maximization problem *without* hovering coverage overlapping.
///
/// 1. Partition the region into delta-squares; candidate hovering locations
///    are cell centres with non-empty coverage (build_hover_candidates).
///    The no-overlap assumption is then enforced by keeping a maximal
///    subfamily of candidates with pairwise-disjoint coverage sets (greedy
///    by award): this is exactly the problem variant's precondition, and it
///    makes the node awards additive so the orienteering prize equals the
///    volume actually collected.
/// 2. Build the auxiliary graph G_s: node award p(s_j) (Eq. 6), hover
///    energy w1(s_j) (Eq. 8), and edge weight
///    w2(s_j, s_k) = (w1(s_j) + w1(s_k)) / 2 + travel_energy(l(s_j, s_k))
///    (Eq. 9) — a metric graph (Lemma 1).
/// 3. Solve rooted budgeted orienteering on G_s with budget E.
/// 4. Emit the tour's hovering locations with their full dwell times.
class GridOrienteeringPlanner final : public Planner {
  public:
    explicit GridOrienteeringPlanner(Algorithm1Config cfg = {})
        : cfg_(std::move(cfg)) {}

    using Planner::plan;
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    [[nodiscard]] HoverCandidateConfig candidate_config() const override {
        return cfg_.candidates;
    }
    [[nodiscard]] std::string name() const override;

    /// Expose the auxiliary orienteering problem for a given candidate set
    /// (used by tests to check Lemma 1 and by ablations).
    [[nodiscard]] static orienteering::Problem build_auxiliary_problem(
        const model::Instance& inst, const HoverCandidateSet& cands);

    /// Reduce a candidate set to a maximal subfamily with pairwise-disjoint
    /// coverage (greedy by descending award) — the "without hovering
    /// coverage overlapping" precondition of Sec. IV.
    [[nodiscard]] static HoverCandidateSet select_disjoint(
        const HoverCandidateSet& cands, std::size_t num_devices);

  private:
    Algorithm1Config cfg_;
};

}  // namespace uavdc::core
