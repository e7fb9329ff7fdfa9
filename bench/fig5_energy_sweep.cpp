// Reproduces Fig. 5 (Sec. VII-D): battery-capacity impact on the problem
// WITH hovering coverage overlapping. Sweeps E (paper: 3e5..9e5 J at
// delta = 10 m) for Algorithm 2, Algorithm 3 (K = 2, 4) and the benchmark.
// Paper headline: Alg 3 (K=4) collects ~82% more data at 9e5 J than at
// 3e5 J; planner runtimes grow with E while the benchmark's shrinks.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const auto settings = bench::BenchSettings::parse(argc, argv);
    const std::vector<double> energies = bench::energy_sweep(settings);
    const bench::AlgoParams params = bench::default_algo_params(settings);

    const std::vector<bench::PlannerFactory> algos{
        bench::alg2_factory(params), bench::alg3_factory(params, 2),
        bench::alg3_factory(params, 4), bench::benchmark_factory()};
    std::vector<std::string> algo_names;
    for (const auto& f : algos) algo_names.push_back(f()->name());

    std::vector<std::string> sweep_points;
    std::vector<std::vector<bench::RunOutcome>> grid;
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;

    for (double energy : energies) {
        workload::GeneratorConfig gen = bench::base_generator(settings);
        gen.uav.energy_j = energy;
        const auto instances = bench::make_instances(gen, settings);
        char label[64];
        std::snprintf(label, sizeof(label), "%.2gJ", energy);
        sweep_points.emplace_back(label);
        std::vector<bench::RunOutcome> row;
        for (const auto& f : algos) {
            row.push_back(bench::evaluate_planner(f, instances));
            csv_rows.emplace_back(label, row.back());
        }
        grid.push_back(std::move(row));
    }

    bench::print_figure(
        "Fig. 5 - DCM with overlapping: battery capacity sweep (delta=10m)",
        "E", sweep_points, algo_names, grid);
    bench::write_csv(settings.out_dir, "fig5_energy_sweep", csv_rows);
    bench::write_gnuplot(settings.out_dir, "fig5_energy_sweep", csv_rows,
                         "energy capacity E [J]");
    bench::print_context_stats();
    return 0;
}
