// Reproduces Fig. 4 (Sec. VII-C/D): the data collection maximization
// problem WITH hovering coverage overlapping, sweeping the grid edge length
// delta. Compares Algorithm 2, Algorithm 3 (K = 2 and K = 4), and the
// benchmark heuristic. Paper headline: at delta = 5 m, Alg 2 / Alg 3 (K=2)
// beat the benchmark by ~79% / ~99%, and volumes shrink as delta grows.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    std::vector<double> deltas;
    const auto settings = bench::BenchSettings::parse(
        argc, argv, " [--deltas=d1,d2,...]", [&](const util::Flags& flags) {
            deltas = flags.get_double_list("deltas", {});
        });
    if (deltas.empty()) {
        deltas = settings.full
                     ? std::vector<double>{5.0, 10.0, 15.0, 20.0, 25.0, 30.0}
                     : std::vector<double>{5.0, 10.0, 20.0, 30.0};
    }

    workload::GeneratorConfig gen = bench::base_generator(settings);
    // Fig. 4 uses the default battery; scale it with the field in fast mode.
    gen.uav.energy_j = bench::default_energy(settings);
    const auto instances = bench::make_instances(gen, settings);

    std::vector<std::string> sweep_points;
    std::vector<std::vector<bench::RunOutcome>> grid;
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;
    std::vector<std::string> algo_names;

    for (double delta : deltas) {
        bench::AlgoParams params = bench::default_algo_params(settings);
        params.delta_m = delta;
        const std::vector<bench::PlannerFactory> algos{
            bench::alg2_factory(params), bench::alg3_factory(params, 2),
            bench::alg3_factory(params, 4), bench::benchmark_factory()};
        if (algo_names.empty()) {
            for (const auto& f : algos) algo_names.push_back(f()->name());
        }
        char label[32];
        std::snprintf(label, sizeof(label), "%gm", delta);
        sweep_points.emplace_back(label);
        std::vector<bench::RunOutcome> row;
        for (const auto& f : algos) {
            row.push_back(bench::evaluate_planner(f, instances));
            csv_rows.emplace_back(label, row.back());
        }
        grid.push_back(std::move(row));
    }

    bench::print_figure(
        "Fig. 4 - DCM with hovering coverage overlapping (delta sweep)",
        "delta", sweep_points, algo_names, grid);
    bench::write_csv(settings.out_dir, "fig4_delta_sweep", csv_rows);
    bench::write_gnuplot(settings.out_dir, "fig4_delta_sweep", csv_rows,
                         "grid edge delta [m]");
    bench::print_context_stats();
    return 0;
}
