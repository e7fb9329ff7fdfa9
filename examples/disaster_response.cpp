// Disaster-response scenario: sensors ring an incident zone that ground
// vehicles cannot cross (the paper's motivation for UAV pickup). The
// operator wants the most telemetry per sortie; this example sweeps the
// sojourn partition K of Algorithm 3 and reports the marginal value of
// partial collection, then replays the best plan in the simulator with a
// battery-margin readout.
//
//   ./disaster_response [--devices=90] [--side=500] [--energy=2.5e4]
//                       [--seed=11]

#include <iostream>
#include <vector>

#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/presets.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const util::Flags flags(argc, argv);

    workload::GeneratorConfig gen = workload::disaster_response();
    gen.num_devices = flags.get_int("devices", 90);
    gen.region_w = gen.region_h = flags.get_double("side", 500.0);
    gen.uav.energy_j = flags.get_double("energy", 2.5e4);
    // Launch from the field corner — the staging area outside the zone.
    gen.depot = {0.0, 0.0};
    const auto seed = static_cast<std::uint64_t>(flags.get_int64("seed", 11));
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: ./disaster_response [--devices=90] "
                     "[--side=500] [--energy=2.5e4] [--seed=11]\n";
        return 2;
    }
    const auto inst = workload::generate(gen, seed);

    std::cout << "Incident ring: " << inst.num_devices() << " sensors, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB of telemetry, one sortie at "
              << util::Table::fmt(inst.uav.energy_j, 0) << " J\n\n";

    util::Table table(
        {"K", "collected [GB]", "of total", "stops", "time [ms]"});
    int best_k = 1;
    double best_gb = -1.0;
    model::FlightPlan best_plan;
    for (int k : {1, 2, 4, 8}) {
        core::Algorithm3Config cfg;
        cfg.candidates.delta_m = 10.0;
        cfg.k = k;
        core::PartialCollectionPlanner planner(cfg);
        const auto res = planner.plan(inst);
        const auto ev = core::evaluate_plan(inst, res.plan);
        table.add_row(
            {std::to_string(k), util::Table::fmt(ev.collected_mb / 1000.0, 2),
             util::Table::fmt(100.0 * ev.collected_mb /
                                  inst.total_data_mb(),
                              1) +
                 "%",
             std::to_string(res.plan.num_stops()),
             util::Table::fmt(res.stats.runtime_s * 1e3, 1)});
        if (ev.collected_mb > best_gb) {
            best_gb = ev.collected_mb;
            best_k = k;
            best_plan = res.plan;
        }
    }
    std::cout << "Partial-collection sweep (Algorithm 3):\n";
    table.print(std::cout, 2);

    std::cout << "\nReplaying the best plan (K=" << best_k
              << ") in the discrete-event simulator:\n";
    const auto rep = sim::Simulator().run(inst, best_plan);
    std::cout << "  " << (rep.completed ? "sortie completed" : "TRUNCATED")
              << ": " << util::Table::fmt(rep.collected_mb / 1000.0, 2)
              << " GB in " << util::Table::fmt(rep.duration_s / 60.0, 1)
              << " min (" << util::Table::fmt(rep.hover_s, 0) << " s hover, "
              << util::Table::fmt(rep.travel_s, 0) << " s flight)\n";
    std::cout << "  battery margin: "
              << util::Table::fmt(inst.uav.energy_j - rep.energy_used_j, 0)
              << " J unused ("
              << util::Table::fmt(
                     100.0 * (1.0 - rep.energy_used_j / inst.uav.energy_j),
                     1)
              << "%)\n";
    std::cout << "  devices fully drained: " << rep.devices_drained << " / "
              << inst.num_devices() << "\n";

    // What did partial collection buy? Compare K=1 vs best K.
    if (best_k != 1) {
        std::cout << "\nPartial collection (K=" << best_k
                  << ") recovered the long-tail: hovering a fraction of the "
                     "full dwell\nat overlapping cells picks up residual "
                     "data that full-dwell planning cannot afford.\n";
    }
    return 0;
}
