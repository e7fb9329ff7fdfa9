#include "uavdc/core/baseline_planners.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/geom/coverage.hpp"
#include "uavdc/geom/kmeans.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::core {

namespace {

/// Largest k-means cluster count the cluster baseline tries.
constexpr int kMaxClusters = 64;
/// Seed of the cluster baseline's k-means++ seeding.
constexpr std::uint64_t kClusterSeed = 17;

/// Row spacing of the sweep, and hover-point spacing along a row, as a
/// fraction of sqrt(2) * R0 (<= 1 guarantees gap-free coverage).
constexpr double kSweepOverlap = 0.95;

/// Build a plan hovering at `centers` with dwell = max upload time of the
/// devices each centre actually covers; returns the plan and the volume of
/// data it would collect (each device counted at its first covering stop).
struct CenterPlan {
    model::FlightPlan plan;
    double collected_mb{0.0};
    double tour_m{0.0};
    double hover_s{0.0};
};

CenterPlan plan_from_centers(const model::Instance& inst,
                             const std::vector<geom::Vec2>& centers) {
    CenterPlan out;
    if (centers.empty()) return out;
    const auto dev_pos = inst.device_positions();
    const geom::CoverageIndex cov(centers, dev_pos,
                                  inst.uav.coverage_radius_m);
    // Order the stops with the tour builder, skipping centres covering
    // nothing.
    TourBuilder tour(inst.depot);
    std::vector<double> dwell(centers.size(), 0.0);
    std::vector<bool> claimed(inst.devices.size(), false);
    for (std::size_t c = 0; c < centers.size(); ++c) {
        double max_t = 0.0;
        for (int v : cov.covered(util::checked_cast<int>(c))) {
            const auto d = static_cast<std::size_t>(v);
            max_t = std::max(max_t,
                             inst.devices[d].upload_time(
                                 inst.uav.bandwidth_mbps));
            if (!claimed[d]) {
                claimed[d] = true;
                out.collected_mb += inst.devices[d].data_mb;
            }
        }
        if (max_t <= 0.0) continue;
        dwell[c] = max_t;
        tour.insert(centers[c], util::checked_cast<int>(c),
                    tour.cheapest_insertion(centers[c]));
        out.hover_s += max_t;
    }
    tour.reoptimize();
    for (std::size_t i = 0; i < tour.size(); ++i) {
        const auto c = static_cast<std::size_t>(tour.keys()[i]);
        out.plan.stops.push_back({tour.stops()[i], dwell[c], -1});
    }
    out.tour_m = tour.length();
    return out;
}

}  // namespace

PlanResult ClusterPlanner::plan(const PlanningContext& ctx) {
    util::Timer timer;
    PlanResult res;
    const model::Instance& inst = ctx.instance();
    if (inst.devices.empty()) {
        res.stats.runtime_s = timer.seconds();
        return res;
    }
    const auto pts = inst.device_positions();
    // Clusters are weighted by stored data volume.
    std::vector<double> weights;
    weights.reserve(inst.devices.size());
    for (const auto& d : inst.devices) weights.push_back(d.data_mb);

    const int k_max = std::min<int>(kMaxClusters,
                                    util::checked_cast<int>(pts.size()));
    // Decrease k until the tour fits the battery (fewer, bigger clusters =
    // shorter tours but more devices out of range).
    for (int k = k_max; k >= 1; --k) {
        geom::KMeansConfig kc;
        kc.seed = kClusterSeed;
        const auto clusters = geom::kmeans(pts, k, weights, kc);
        CenterPlan cand = plan_from_centers(inst, clusters.centroids);
        const double energy =
            inst.uav.travel_energy(
                cand.plan.travel_length(inst.depot)) +
            inst.uav.hover_energy(cand.plan.hover_time());
        ++res.stats.iterations;
        if (energy <= inst.uav.energy_j + 1e-9) {
            res.plan = std::move(cand.plan);
            res.stats.planned_mb = cand.collected_mb;
            res.stats.planned_energy_j = energy;
            res.stats.candidates = k;
            break;
        }
    }
    res.stats.runtime_s = timer.seconds();
    return res;
}

PlanResult SweepPlanner::plan(const PlanningContext& ctx) {
    util::Timer timer;
    PlanResult res;
    const model::Instance& inst = ctx.instance();
    const double r0 = inst.uav.coverage_radius_m;
    const double lattice = std::sqrt(2.0) * r0;  // gap-free disk coverage
    const double dy = std::max(1.0, lattice * kSweepOverlap);
    const double dx = std::max(1.0, lattice * kSweepOverlap);
    const auto& region = inst.region;

    // Admission, before anything is allocated: the loops below make one
    // waypoint per row and column step, counted in double so that a vast
    // region cannot wrap the count.
    const double waypoints =
        std::ceil(region.height() / dy) * std::ceil(region.width() / dx);
    if (!(waypoints <= static_cast<double>(kMaxSweepWaypoints))) {
        std::ostringstream msg;
        msg.precision(15);
        msg << "sweep: a " << region.width() << " x " << region.height()
            << " m region at a " << dx << " m step needs " << waypoints
            << " waypoints, over the " << kMaxSweepWaypoints << " limit";
        throw std::invalid_argument(msg.str());
    }

    // Serpentine waypoints over the whole region. Starting half a lattice
    // step inside the region keeps every boundary device within range of
    // some waypoint.
    std::vector<geom::Vec2> route;
    bool left_to_right = true;
    for (double y = region.lo.y + dy / 2.0; y < region.hi.y + dy / 2.0;
         y += dy) {
        std::vector<double> xs;
        for (double x = region.lo.x + dx / 2.0; x < region.hi.x + dx / 2.0;
             x += dx) {
            xs.push_back(std::min(x, region.hi.x));
        }
        if (!left_to_right) std::reverse(xs.begin(), xs.end());
        for (double x : xs) {
            route.push_back({x, std::min(y, region.hi.y)});
        }
        left_to_right = !left_to_right;
    }

    // Walk the sweep, stopping at each waypoint that still covers residual
    // data, until the battery (including the flight home) runs out.
    const auto dev_pos = inst.device_positions();
    const geom::CoverageIndex cov(route, dev_pos, r0);
    std::vector<bool> claimed(inst.devices.size(), false);
    geom::Vec2 here = inst.depot;
    double used_travel_m = 0.0;
    double used_hover_s = 0.0;
    for (std::size_t w = 0; w < route.size(); ++w) {
        double max_t = 0.0;
        double gain = 0.0;
        for (int v : cov.covered(util::checked_cast<int>(w))) {
            const auto d = static_cast<std::size_t>(v);
            if (claimed[d]) continue;
            max_t = std::max(max_t, inst.devices[d].upload_time(
                                        inst.uav.bandwidth_mbps));
            gain += inst.devices[d].data_mb;
        }
        if (max_t <= 0.0) continue;
        // NOLINTBEGIN(uavdc-batched-distance): the baseline walks its fixed
        // route once; the scalar form is the documented reference behaviour
        const double leg = geom::distance(here, route[w]);
        const double home = geom::distance(route[w], inst.depot);
        // NOLINTEND(uavdc-batched-distance)
        const double energy_if_stop =
            inst.uav.travel_energy(used_travel_m + leg + home) +
            inst.uav.hover_energy(used_hover_s + max_t);
        if (energy_if_stop > inst.uav.energy_j + 1e-9) break;
        used_travel_m += leg;
        used_hover_s += max_t;
        here = route[w];
        res.plan.stops.push_back({route[w], max_t, -1});
        res.stats.planned_mb += gain;
        for (int v : cov.covered(util::checked_cast<int>(w))) {
            claimed[static_cast<std::size_t>(v)] = true;
        }
        ++res.stats.iterations;
    }
    res.stats.planned_energy_j =
        res.plan.total_energy(inst.depot, inst.uav);
    res.stats.candidates = util::checked_cast<int>(route.size());
    res.stats.runtime_s = timer.seconds();
    return res;
}

}  // namespace uavdc::core
