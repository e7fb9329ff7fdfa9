#include "uavdc/core/benchmark_planner.hpp"

#include <algorithm>
#include <limits>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::core {

namespace {
constexpr double kEps = 1e-9;
}

PlanResult PruneTspPlanner::plan(const PlanningContext& ctx) {
    util::Timer timer;
    PlanResult out;
    const model::Instance& inst = ctx.instance();
    out.stats.candidates = util::checked_cast<int>(inst.devices.size());
    if (inst.devices.empty()) {
        out.stats.runtime_s = timer.seconds();
        return out;
    }

    const double bw = inst.uav.bandwidth_mbps;
    const double eta_h = inst.uav.hover_power_w;

    // Initial tour over every device (cheapest insertion, then a
    // Christofides + 2-opt pass — the paper's "closed tour C that includes
    // all aggregate sensor nodes").
    TourBuilder tour(inst.depot);
    double hover_energy = 0.0;
    double collected_mb = 0.0;
    for (const auto& d : inst.devices) {
        tour.insert(d.pos, d.id, tour.cheapest_insertion(d.pos));
        hover_energy += d.upload_time(bw) * eta_h;
        collected_mb += d.data_mb;
    }
    tour.reoptimize();

    // Removal score of the stop at tour position i, cached: removal_delta(i)
    // depends only on stops i-1, i, i+1, so deleting position w invalidates
    // positions w-1 and w of the shrunken tour and nothing else. The values
    // are bit-identical to a full rescan per round, recomputed O(1) per
    // round instead of O(n).
    auto prune_ratio = [&](std::size_t i) {
        const auto& d =
            inst.devices[static_cast<std::size_t>(tour.keys()[i])];
        const double saved = d.upload_time(bw) * eta_h +
                             inst.uav.travel_energy(-tour.removal_delta(i));
        return d.data_mb / std::max(saved, kEps);
    };
    std::vector<double> ratio_cache(tour.size());
    for (std::size_t i = 0; i < tour.size(); ++i) {
        ratio_cache[i] = prune_ratio(i);
    }

    // Prune until the tour fits the battery.
    int iterations = 0;
    while (tour.size() > 0) {
        const double total =
            hover_energy + inst.uav.travel_energy(tour.length());
        if (total <= inst.uav.energy_j + kEps) break;
        ++iterations;
        std::size_t worst = 0;
        double worst_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < tour.size(); ++i) {
            const double r = ratio_cache[i];
            if (r < worst_ratio) {
                worst_ratio = r;
                worst = i;
            }
        }
        const auto& d =
            inst.devices[static_cast<std::size_t>(tour.keys()[worst])];
        hover_energy -= d.upload_time(bw) * eta_h;
        collected_mb -= d.data_mb;
        tour.remove(worst);
        ratio_cache.erase(ratio_cache.begin() +
                          static_cast<std::ptrdiff_t>(worst));
        // Only the removed stop's neighbours changed context.
        if (worst > 0) ratio_cache[worst - 1] = prune_ratio(worst - 1);
        if (worst < tour.size()) ratio_cache[worst] = prune_ratio(worst);
    }
    if (cfg_.reoptimize_after_prune) tour.reoptimize();

    for (std::size_t i = 0; i < tour.size(); ++i) {
        const auto& d =
            inst.devices[static_cast<std::size_t>(tour.keys()[i])];
        out.plan.stops.push_back({tour.stops()[i], d.upload_time(bw), -1});
    }
    out.stats.planned_mb = std::max(0.0, collected_mb);
    out.stats.planned_energy_j =
        hover_energy + inst.uav.travel_energy(tour.length());
    out.stats.iterations = iterations;
    out.stats.runtime_s = timer.seconds();
    return out;
}

}  // namespace uavdc::core
