#pragma once

#include "uavdc/core/planner.hpp"

namespace uavdc::core {

/// Configuration for the benchmark heuristic.
struct BenchmarkPlannerConfig {
    /// Re-run Christofides + 2-opt on the surviving stops once pruning ends.
    bool reoptimize_after_prune = true;
};

/// The paper's evaluation benchmark (Sec. VII-A): build a Christofides tour
/// through the depot and *every* aggregate sensor node (hovering directly
/// above each node, dwelling D_v / B to drain it), then, while the tour
/// exceeds the energy capacity, repeatedly delete the node whose removal
/// loses the least data volume per unit of energy saved (hover energy plus
/// the travel shortcut).
class PruneTspPlanner final : public Planner {
  public:
    explicit PruneTspPlanner(BenchmarkPlannerConfig cfg = {}) : cfg_(cfg) {}

    using Planner::plan;
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    [[nodiscard]] std::string name() const override { return "benchmark"; }

  private:
    BenchmarkPlannerConfig cfg_;
};

}  // namespace uavdc::core
