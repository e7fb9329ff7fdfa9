#include "uavdc/core/algorithm1.hpp"

#include <algorithm>
#include <numeric>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::core {

HoverCandidateSet GridOrienteeringPlanner::select_disjoint(
    const HoverCandidateSet& cands, std::size_t num_devices) {
    std::vector<std::size_t> order(cands.candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return cands.candidates[a].award_mb > cands.candidates[b].award_mb;
    });
    std::vector<bool> taken(num_devices, false);
    std::vector<std::size_t> kept;
    for (std::size_t i : order) {
        const auto cov = cands.covered(i);
        bool clash = false;
        for (const std::int32_t v : cov) {
            if (taken[static_cast<std::size_t>(v)]) {
                clash = true;
                break;
            }
        }
        if (clash) continue;
        for (const std::int32_t v : cov) {
            taken[static_cast<std::size_t>(v)] = true;
        }
        kept.push_back(i);
    }
    return cands.subset(kept);
}

orienteering::Problem GridOrienteeringPlanner::build_auxiliary_problem(
    const model::Instance& inst, const HoverCandidateSet& cands) {
    // Node 0 is the depot; nodes 1..M are the candidates.
    const std::size_t n = cands.size() + 1;
    orienteering::Problem p;
    p.depot = 0;
    p.budget = inst.uav.energy_j;
    p.prizes.assign(n, 0.0);

    std::vector<geom::Vec2> pos(n);
    std::vector<double> w1(n, 0.0);
    pos[0] = inst.depot;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const auto& c = cands.candidates[i];
        pos[i + 1] = c.pos;
        w1[i + 1] = c.hover_energy_j;
        p.prizes[i + 1] = c.award_mb;
    }

    p.graph = graph::DenseGraph(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double travel =
                // NOLINTNEXTLINE(uavdc-batched-distance): one-shot O(n^2)
                // graph build for the MST solver, not a scoring loop
                inst.uav.travel_energy(geom::distance(pos[i], pos[j]));
            p.graph.set_weight(i, j, (w1[i] + w1[j]) / 2.0 + travel);
        }
    }
    return p;
}

PlanResult GridOrienteeringPlanner::plan(const PlanningContext& ctx) {
    util::Timer timer;
    PlanResult out;
    const model::Instance& inst = ctx.instance();

    const HoverCandidateSet cands =
        select_disjoint(ctx.candidates(), inst.num_devices());
    out.stats.candidates = util::checked_cast<int>(cands.size());
    if (cands.candidates.empty()) {
        out.stats.runtime_s = timer.seconds();
        return out;
    }

    const orienteering::Problem problem =
        build_auxiliary_problem(inst, cands);
    const orienteering::Solution sol =
        orienteering::solve(problem, cfg_.solver, cfg_.grasp);

    for (std::size_t v : sol.tour) {
        if (v == problem.depot) continue;
        const auto& c = cands.candidates[v - 1];
        out.plan.stops.push_back({c.pos, c.dwell_s, c.cell_id});
    }
    out.stats.planned_mb = sol.prize;
    out.stats.planned_energy_j = sol.cost;
    out.stats.iterations = 1;
    out.stats.runtime_s = timer.seconds();
    return out;
}

std::string GridOrienteeringPlanner::name() const {
    return "alg1-" + orienteering::to_string(cfg_.solver);
}

}  // namespace uavdc::core
