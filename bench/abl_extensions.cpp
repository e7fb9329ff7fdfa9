// Extension ablation beyond the paper's open-loop setting: adaptive early
// departure at execution time — hover energy banked by leaving a stop once
// every covered device is drained.

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
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;

    std::cout << "\n=== Extension - adaptive early departure ===\n";
    util::Table ed({"planner", "hover saved [%]", "energy saved [J]"});
    const std::vector<std::pair<std::string, bench::PlannerFactory>> algos{
        {"alg2", bench::alg2_factory(params)},
        {"alg3-k4", bench::alg3_factory(params, 4)},
        {"benchmark", bench::benchmark_factory()},
    };
    for (const auto& [name, factory] : algos) {
        util::Accumulator saved_j, saved_frac;
        std::vector<std::pair<double, double>> cells(instances.size());
        util::parallel_for(0, instances.size(), [&](std::size_t i) {
            const auto plan = factory()->plan(instances[i]).plan;
            sim::SimConfig cfg;
            cfg.record_trace = false;
            cfg.early_departure = true;
            const auto rep =
                sim::Simulator(cfg).run(instances[i], plan);
            const double hover_planned_j =
                plan.hover_time() * instances[i].uav.hover_power_w;
            cells[i] = {rep.energy_saved_j,
                        hover_planned_j > 0.0
                            ? rep.energy_saved_j / hover_planned_j
                            : 0.0};
        });
        for (const auto& [j, frac] : cells) {
            saved_j.add(j);
            saved_frac.add(frac);
        }
        ed.add_row({name,
                    util::Table::fmt(100.0 * saved_frac.mean(), 1),
                    util::Table::fmt(saved_j.mean(), 0)});
        bench::RunOutcome row;
        row.algo = name;
        row.mean_energy_j = saved_j.mean();
        csv_rows.emplace_back("early-departure", row);
    }
    ed.print(std::cout, 2);
    bench::write_csv(settings.out_dir, "abl_extensions", csv_rows);
    bench::print_context_stats();
    return 0;
}
