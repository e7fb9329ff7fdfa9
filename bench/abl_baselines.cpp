// Baseline panorama: the paper's planners against two related-work
// strawmen — data-weighted k-means hovering (after Mozaffari et al. [10],
// the paper's Sec. II) and a boustrophedon full-field sweep. Quantifies
// how much the paper's coverage-aware grid candidates actually buy.

#include <iostream>

#include "bench_common.hpp"
#include "uavdc/core/baseline_planners.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const auto settings = bench::BenchSettings::parse(argc, argv);
    const bench::AlgoParams params = bench::default_algo_params(settings);

    workload::GeneratorConfig gen = bench::base_generator(settings);
    gen.uav.energy_j = bench::default_energy(settings);
    const auto instances = bench::make_instances(gen, settings);

    const std::vector<bench::PlannerFactory> algos{
        bench::alg1_factory(params),
        bench::alg2_factory(params),
        bench::alg3_factory(params, 2),
        bench::benchmark_factory(),
        [] { return std::make_unique<core::ClusterPlanner>(); },
        [] { return std::make_unique<core::SweepPlanner>(); },
    };

    std::cout << "\n=== Baseline panorama (E = "
              << util::Table::fmt(gen.uav.energy_j, 0) << " J) ===\n";
    util::Table table(
        {"planner", "collected [GB]", "stops", "time [ms]"});
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;
    for (const auto& f : algos) {
        const auto outcome = bench::evaluate_planner(f, instances);
        table.add_row({outcome.algo, util::Table::fmt(outcome.mean_gb, 2) +
                                         " ±" +
                                         util::Table::fmt(outcome.ci95_gb, 2),
                       util::Table::fmt(outcome.mean_stops, 0),
                       util::Table::fmt(outcome.mean_runtime_s * 1e3, 1)});
        csv_rows.emplace_back("default", outcome);
    }
    table.print(std::cout, 2);
    bench::write_csv(settings.out_dir, "abl_baselines", csv_rows);
    bench::print_context_stats();
    return 0;
}
