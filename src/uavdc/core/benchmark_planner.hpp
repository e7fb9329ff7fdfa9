#pragma once

#include "uavdc/core/planner.hpp"

namespace uavdc::core {

/// The paper's evaluation benchmark (Sec. VII-A): build a Christofides tour
/// through the depot and *every* aggregate sensor node (hovering directly
/// above each node, dwelling D_v / B to drain it), then, while the tour
/// exceeds the energy capacity, repeatedly delete the node whose removal
/// loses the least data volume per unit of energy saved (hover energy plus
/// the travel shortcut). Once pruning ends, Christofides + 2-opt run again
/// on the surviving stops.
class PruneTspPlanner final : public Planner {
  public:
    using Planner::plan;
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    [[nodiscard]] std::string name() const override { return "benchmark"; }
};

}  // namespace uavdc::core
