// Network-size sweep (Sec. VII-D mentions the impact of |V| alongside
// delta and E but prints no figure for it; this bench fills that gap).
// Sweeps the number of aggregate sensor nodes at fixed region, delta and E
// for Algorithm 2, Algorithm 3 (K=2) and the benchmark.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const auto settings = bench::BenchSettings::parse(argc, argv);
    const bench::AlgoParams params = bench::default_algo_params(settings);

    const std::vector<int> sizes =
        settings.full ? std::vector<int>{100, 200, 300, 400, 500}
                      : std::vector<int>{20, 40, 60, 80, 120};

    const std::vector<bench::PlannerFactory> algos{
        bench::alg2_factory(params), bench::alg3_factory(params, 2),
        bench::benchmark_factory()};
    std::vector<std::string> algo_names;
    for (const auto& f : algos) algo_names.push_back(f()->name());

    std::vector<std::string> sweep_points;
    std::vector<std::vector<bench::RunOutcome>> grid;
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;

    for (int v : sizes) {
        workload::GeneratorConfig gen = bench::base_generator(settings);
        gen.num_devices = v;
        gen.uav.energy_j = bench::default_energy(settings);
        const auto instances = bench::make_instances(gen, settings);
        const std::string label = std::to_string(v);
        sweep_points.push_back(label);
        std::vector<bench::RunOutcome> row;
        for (const auto& f : algos) {
            row.push_back(bench::evaluate_planner(f, instances));
            csv_rows.emplace_back(label, row.back());
        }
        grid.push_back(std::move(row));
    }

    bench::print_figure("Extra - network size sweep (|V|)", "|V|",
                        sweep_points, algo_names, grid);
    bench::write_csv(settings.out_dir, "fig6_size_sweep", csv_rows);
    bench::write_gnuplot(settings.out_dir, "fig6_size_sweep", csv_rows,
                         "|V| aggregate sensor nodes");
    bench::print_context_stats();
    return 0;
}
