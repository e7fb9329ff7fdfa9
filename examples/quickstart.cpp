// Quickstart: generate a sensor field, plan a data-collection tour with
// Algorithm 3 (partial collection, K = 2), cross-check the plan in the
// discrete-event simulator, and print the tour.
//
//   ./quickstart [--devices=80] [--side=400] [--energy=4e4] [--seed=7]

#include <cstdio>
#include <iostream>

#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/presets.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const util::Flags flags(argc, argv);

    // 1. Build a workload: uniform field with the paper's UAV constants.
    workload::GeneratorConfig gen = workload::paper_default();
    gen.num_devices = flags.get_int("devices", 80);
    gen.region_w = gen.region_h = flags.get_double("side", 400.0);
    gen.uav.energy_j = flags.get_double("energy", 4.0e4);
    const auto seed = static_cast<std::uint64_t>(flags.get_int64("seed", 7));
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: ./quickstart [--devices=80] "
                     "[--side=400] [--energy=4e4] [--seed=7]\n";
        return 2;
    }
    const auto inst = workload::generate(gen, seed);

    std::cout << "Instance: " << inst.name << " — " << inst.num_devices()
              << " aggregate sensor nodes, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB stored, battery "
              << util::Table::fmt(inst.uav.energy_j, 0) << " J\n\n";

    // 2. Plan a closed tour.
    core::Algorithm3Config cfg;
    cfg.candidates.delta_m = 10.0;
    cfg.k = 2;
    core::PartialCollectionPlanner planner(cfg);
    const auto res = planner.plan(inst);

    // 3. Closed-form evaluation + discrete-event simulation cross-check.
    const auto ev = core::evaluate_plan(inst, res.plan);
    const auto rep = sim::Simulator().run(inst, res.plan);

    std::cout << "Planner " << planner.name() << " visited "
              << res.plan.num_stops() << " hovering locations in "
              << util::Table::fmt(res.stats.runtime_s * 1e3, 1) << " ms\n";
    std::cout << "  planned volume   : "
              << util::Table::fmt(res.stats.planned_mb / 1000.0, 2)
              << " GB\n";
    std::cout << "  evaluated volume : "
              << util::Table::fmt(ev.collected_mb / 1000.0, 2) << " GB ("
              << ev.devices_drained << " devices fully drained)\n";
    std::cout << "  simulated volume : "
              << util::Table::fmt(rep.collected_mb / 1000.0, 2) << " GB, "
              << (rep.completed ? "tour completed" : "tour truncated")
              << ", energy "
              << util::Table::fmt(rep.energy_used_j, 0) << " / "
              << util::Table::fmt(inst.uav.energy_j, 0) << " J\n\n";

    // 4. Print the tour itself.
    util::Table tour({"#", "x [m]", "y [m]", "dwell [s]"});
    int i = 0;
    for (const auto& stop : res.plan.stops) {
        tour.add_row_of(i++, stop.pos.x, stop.pos.y, stop.dwell_s);
    }
    std::cout << "Tour (depot " << inst.depot << " -> ... -> depot):\n";
    tour.print(std::cout, 2);

    // 5. A peek at the simulator's event trace.
    std::cout << "\nFirst simulator events:\n";
    for (std::size_t e = 0; e < rep.trace.size() && e < 8; ++e) {
        std::cout << "  " << rep.trace[e].to_string() << "\n";
    }
    return 0;
}
