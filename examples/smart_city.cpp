// Smart-city scenario (the paper's motivating IoT application): CCTV
// aggregation points and telemetry nodes cluster into districts, with a
// few data-heavy hoarders per district. Compares all four planners on the
// same clustered instance and shows why overlap-aware hovering wins: one
// well-placed hovering location drains a whole cluster concurrently.
//
//   ./smart_city [--devices=120] [--side=500] [--energy=3e4] [--seed=3]

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/presets.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const util::Flags flags(argc, argv);

    workload::GeneratorConfig gen = workload::smart_city();
    gen.num_devices = flags.get_int("devices", 120);
    gen.region_w = gen.region_h = flags.get_double("side", 500.0);
    gen.uav.energy_j = flags.get_double("energy", 3.0e4);
    const auto seed = static_cast<std::uint64_t>(flags.get_int64("seed", 3));
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: ./smart_city [--devices=120] "
                     "[--side=500] [--energy=3e4] [--seed=3]\n";
        return 2;
    }
    const auto inst = workload::generate(gen, seed);

    std::cout << "Smart-city field: " << inst.num_devices()
              << " devices in " << gen.clusters << " districts, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB stored, battery "
              << util::Table::fmt(inst.uav.energy_j, 0) << " J\n\n";

    // Precompute the grid candidates once; the same context feeds every
    // planner below, so the Sec. III-B build is paid a single time.
    core::HoverCandidateConfig ccfg;
    ccfg.delta_m = 10.0;
    const auto ctx = core::PlanningContext::build(inst, ccfg);

    // How much concurrency is available? Count devices per best candidate.
    const auto& cands = ctx->candidates();
    std::size_t best_cluster = 0;
    for (std::size_t j = 0; j < cands.size(); ++j) {
        best_cluster = std::max(best_cluster, cands.covered(j).size());
    }
    std::cout << "Best single hovering location covers " << best_cluster
              << " devices at once (OFDMA concurrent upload).\n\n";

    struct Entry {
        std::string name;
        double gb;
        double stops;
        double runtime_ms;
    };
    std::vector<Entry> rows;
    auto run = [&](std::unique_ptr<core::Planner> planner) {
        const auto res = planner->plan(*ctx);
        const auto ev = core::evaluate_plan(inst, res.plan);
        rows.push_back({planner->name(), ev.collected_mb / 1000.0,
                        static_cast<double>(res.plan.num_stops()),
                        res.stats.runtime_s * 1e3});
    };

    // Candidate settings live in the shared context now; only the
    // planner-specific knobs remain per config.
    run(std::make_unique<core::GridOrienteeringPlanner>(
        core::Algorithm1Config{}));
    run(std::make_unique<core::GreedyCoveragePlanner>(
        core::Algorithm2Config{}));
    core::Algorithm3Config a3;
    a3.k = 4;
    run(std::make_unique<core::PartialCollectionPlanner>(a3));
    run(std::make_unique<core::PruneTspPlanner>());

    util::Table table({"planner", "collected [GB]", "stops", "time [ms]"});
    for (const auto& r : rows) {
        table.add_row({r.name, util::Table::fmt(r.gb, 2),
                       util::Table::fmt(r.stops, 0),
                       util::Table::fmt(r.runtime_ms, 1)});
    }
    table.print(std::cout, 2);

    const double bench_gb = rows.back().gb;
    for (const auto& r : rows) {
        if (r.name == rows.back().name || bench_gb <= 0.0) continue;
        std::cout << "  " << r.name << " collects "
                  << util::Table::fmt(100.0 * (r.gb / bench_gb - 1.0), 1)
                  << "% more than the per-node benchmark tour\n";
    }
    return 0;
}
