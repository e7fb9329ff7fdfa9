// Radio-model ablation (DESIGN.md invariant check on the paper's equal-rate
// OFDMA assumption, Sec. III-B): plans are built under the constant-rate
// model, then *executed* in the simulator under distance-tapered uplink
// rates. Reports how much volume each planner's tours lose as the taper
// strengthens — i.e. how load-bearing the simplification is for the
// paper's conclusions.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/util/parallel_for.hpp"
#include "uavdc/util/stats.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const auto settings = bench::BenchSettings::parse(argc, argv);
    const bench::AlgoParams params = bench::default_algo_params(settings);

    workload::GeneratorConfig gen = bench::base_generator(settings);
    gen.uav.energy_j = bench::default_energy(settings);
    const auto instances = bench::make_instances(gen, settings);

    const std::vector<std::pair<std::string, bench::PlannerFactory>> algos{
        {"alg2", bench::alg2_factory(params)},
        {"alg3-k4", bench::alg3_factory(params, 4)},
        {"benchmark", bench::benchmark_factory()},
    };
    const std::vector<double> tapers{0.0, 0.25, 0.5, 0.75};

    std::cout << "\n=== Ablation - distance-tapered uplink at execution "
                 "time ===\n";
    util::Table table({"planner", "taper", "executed [GB]", "vs planned"});
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;

    for (const auto& [name, factory] : algos) {
        // Plan once per instance under the paper's constant-rate model.
        std::vector<model::FlightPlan> plans(instances.size());
        util::parallel_for(0, instances.size(), [&](std::size_t i) {
            plans[i] = factory()->plan(instances[i]).plan;
        });
        double baseline_gb = 0.0;
        for (double taper : tapers) {
            const sim::DistanceTaperRadio model(
                taper > 0.0 ? taper : 1e-12);
            util::Accumulator gb;
            std::vector<double> vols(instances.size());
            util::parallel_for(0, instances.size(), [&](std::size_t i) {
                sim::SimConfig cfg;
                cfg.record_trace = false;
                if (taper > 0.0) cfg.radio = &model;
                vols[i] = sim::Simulator(cfg)
                              .run(instances[i], plans[i])
                              .collected_mb /
                          1000.0;
            });
            for (double v : vols) gb.add(v);
            if (taper == 0.0) baseline_gb = gb.mean();
            char tlabel[16];
            std::snprintf(tlabel, sizeof(tlabel), "%.2f", taper);
            table.add_row(
                {name, tlabel, util::Table::fmt(gb.mean(), 2),
                 util::Table::fmt(
                     100.0 * gb.mean() / std::max(baseline_gb, 1e-12), 1) +
                     "%"});
            bench::RunOutcome row;
            row.algo = name;
            row.mean_gb = gb.mean();
            row.ci95_gb = gb.ci95_halfwidth();
            csv_rows.emplace_back(tlabel, row);
        }
    }
    table.print(std::cout, 2);
    bench::write_csv(settings.out_dir, "abl_radio", csv_rows);
    bench::print_context_stats();
    return 0;
}
