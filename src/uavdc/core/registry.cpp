#include "uavdc/core/registry.hpp"

#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/baseline_planners.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

std::vector<std::string> planner_names() {
    return {"alg1", "alg2", "alg3", "benchmark", "kmeans", "sweep"};
}

std::unique_ptr<Planner> make_planner(const std::string& name,
                                      const PlannerOptions& opts) {
    if (name == "alg1") {
        Algorithm1Config cfg;
        cfg.candidates = opts.hover_config();
        cfg.solver = opts.solver;
        cfg.grasp.iterations = opts.grasp_iterations;
        return std::make_unique<GridOrienteeringPlanner>(cfg);
    }
    if (name == "alg2") {
        Algorithm2Config cfg;
        cfg.candidates = opts.hover_config();
        cfg.reduction = opts.reduction;
        return std::make_unique<GreedyCoveragePlanner>(cfg);
    }
    if (name == "alg3") {
        Algorithm3Config cfg;
        cfg.candidates = opts.hover_config();
        cfg.k = opts.k;
        cfg.reduction = opts.reduction;
        return std::make_unique<PartialCollectionPlanner>(cfg);
    }
    if (name == "benchmark") {
        return std::make_unique<PruneTspPlanner>();
    }
    if (name == "kmeans") {
        return std::make_unique<ClusterPlanner>();
    }
    if (name == "sweep") {
        return std::make_unique<SweepPlanner>();
    }
    UAVDC_REQUIRE(false) << "make_planner: unknown planner '" << name
                         << "' (expected alg1|alg2|alg3|benchmark|"
                         << "kmeans|sweep)";
    return nullptr;  // unreachable: UAVDC_REQUIRE(false) always throws
}

}  // namespace uavdc::core
