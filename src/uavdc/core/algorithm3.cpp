#include "uavdc/core/algorithm3.hpp"

#include "uavdc/core/lazy_greedy.hpp"
#include "uavdc/core/partial_policy.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

PlanResult PartialCollectionPlanner::plan(const PlanningContext& ctx) {
    UAVDC_REQUIRE(cfg_.k >= 1)
        << "PartialCollectionPlanner: k must be >= 1, got " << cfg_.k;
    return plan_over_candidates(
        ctx, cfg_.reduction,
        [&](const CandidateView& view) { return plan_view(ctx, view); });
}

PlanResult PartialCollectionPlanner::plan_view(const PlanningContext& ctx,
                                               const CandidateView& view) {
    return lazy_greedy::run<partial::PartialPolicy>(ctx, view, cfg_);
}

}  // namespace uavdc::core
