#include "uavdc/sim/adaptive.hpp"

#include <algorithm>

#include "uavdc/geom/spatial_hash.hpp"
#include "uavdc/sim/battery.hpp"

namespace uavdc::sim {

SimReport fly_adaptive(const model::Instance& inst,
                       const model::FlightPlan& plan,
                       const AdaptiveConfig& cfg) {
    const RadioModel& radio = cfg.radio ? *cfg.radio : constant_radio();
    SimReport rep;
    rep.per_device_mb.assign(inst.devices.size(), 0.0);

    // Route legs: depot -> stops... -> depot.
    std::vector<geom::Vec2> points{inst.depot};
    for (const auto& s : plan.stops) points.push_back(s.pos);
    points.push_back(inst.depot);
    const std::size_t legs = points.size() - 1;

    // reserve_after[i] = travel energy of legs i+1..end (what must stay in
    // the battery when hovering at stop i).
    std::vector<double> leg_energy(legs, 0.0);
    for (std::size_t i = 0; i < legs; ++i) {
        leg_energy[i] =
            inst.uav.travel_energy(geom::distance(points[i], points[i + 1]));
    }
    std::vector<double> reserve_after(legs + 1, 0.0);
    for (std::size_t i = legs; i-- > 0;) {
        reserve_after[i] = reserve_after[i + 1] + leg_energy[i];
    }
    // Also protect the *planned* hover energy of future stops: a stop may
    // only extend its dwell into genuine slack, never into dwell the plan
    // promised to later stops — otherwise one hard early stop starves the
    // rest of the tour and the controller can underperform the open loop.
    std::vector<double> future_hover(plan.stops.size() + 1, 0.0);
    for (std::size_t i = plan.stops.size(); i-- > 0;) {
        future_hover[i] =
            future_hover[i + 1] +
            inst.uav.hover_energy(plan.stops[i].dwell_s);
    }

    Battery battery(inst.uav.energy_j);
    double now = 0.0;

    std::vector<double> residual(inst.devices.size());
    for (std::size_t i = 0; i < inst.devices.size(); ++i) {
        residual[i] = inst.devices[i].data_mb;
    }
    const geom::SpatialHash* hash = nullptr;
    geom::SpatialHash storage({}, 1.0);
    if (!inst.devices.empty()) {
        const auto positions = inst.device_positions();
        storage = geom::SpatialHash(positions, inst.uav.coverage_radius_m);
        hash = &storage;
    }

    // Abort up front if the bare route does not fit.
    if (reserve_after[0] > battery.remaining_j() + 1e-9) {
        rep.battery_depleted = true;
        return rep;
    }

    for (std::size_t si = 0; si < plan.stops.size(); ++si) {
        // Fly leg si.
        const double fly_t = inst.uav.travel_time(
            geom::distance(points[si], points[si + 1]));
        battery.drain(inst.uav.travel_power_w(), fly_t);
        now += fly_t;
        rep.travel_s += fly_t;

        const auto& stop = plan.stops[si];
        // Hover budget: everything above the reserve for the rest of the
        // route (remaining travel legs + future stops' planned hovers).
        const double spare = std::max(
            0.0, battery.remaining_j() - reserve_after[si + 1] -
                     future_hover[si + 1]);
        const double hover_budget = spare / inst.uav.hover_power_w;

        // Time to drain every covered device at actual rates.
        double need = 0.0;
        struct Active {
            std::size_t dev;
            double rate;
        };
        std::vector<Active> act;
        if (hash != nullptr) {
            hash->for_each_in_disk(
                stop.pos, inst.uav.coverage_radius_m, [&](int dev) {
                    const auto d = static_cast<std::size_t>(dev);
                    if (residual[d] <= 0.0) return;
                    const double rate = radio.rate_mbps(
                        geom::distance(stop.pos, inst.devices[d].pos),
                        inst.uav.coverage_radius_m,
                        inst.uav.bandwidth_mbps);
                    if (rate <= 0.0) return;
                    act.push_back({d, rate});
                    need = std::max(need, residual[d] / rate);
                });
        }
        const double dwell = std::min(need, hover_budget);
        const double planned_dwell = stop.dwell_s;
        if (dwell < planned_dwell) {
            rep.energy_saved_j +=
                (planned_dwell - dwell) * inst.uav.hover_power_w;
        }
        for (const auto& a : act) {
            const double got = std::min(residual[a.dev], a.rate * dwell);
            residual[a.dev] -= got;
            rep.per_device_mb[a.dev] += got;
            rep.collected_mb += got;
        }
        battery.drain(inst.uav.hover_power_w, dwell);
        now += dwell;
        rep.hover_s += dwell;
        ++rep.stops_visited;
    }

    // Final leg home — funded by the reserve accounting above.
    {
        const double fly_t = inst.uav.travel_time(
            geom::distance(points[legs - 1], points[legs]));
        battery.drain(inst.uav.travel_power_w(), fly_t);
        now += fly_t;
        rep.travel_s += fly_t;
    }
    rep.completed = true;
    for (std::size_t d = 0; d < residual.size(); ++d) {
        if (inst.devices[d].data_mb > 0.0 && residual[d] <= 1e-9) {
            ++rep.devices_drained;
        }
    }
    rep.duration_s = now;
    rep.energy_used_j = battery.consumed_j();
    return rep;
}

}  // namespace uavdc::sim
