// Reproduces Fig. 3 (Sec. VII-B): the data collection maximization problem
// WITHOUT hovering coverage overlapping. Sweeps the UAV energy capacity E
// and compares Algorithm 1 (grid + orienteering) against the paper's
// benchmark heuristic (Christofides tour + pruning), reporting
// (a) collected data volume and (b) planner running time.
//
// Fast mode (default) runs a 0.35-scaled field with energies scaled by the
// same area factor; pass --full (or UAVDC_FULL=1) for the paper's
// 500-node / 1 km^2 / E in [3e5, 9e5] J setting.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const auto settings = bench::BenchSettings::parse(argc, argv);
    const auto params = bench::default_algo_params(settings);
    const std::vector<double> energies = bench::energy_sweep(settings);

    const std::vector<bench::PlannerFactory> algos{
        bench::alg1_factory(params), bench::benchmark_factory()};
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
        "Fig. 3 - DCM without hovering coverage overlapping (energy sweep)",
        "E", sweep_points, algo_names, grid);
    bench::write_csv(settings.out_dir, "fig3_no_overlap", csv_rows);
    bench::write_gnuplot(settings.out_dir, "fig3_no_overlap", csv_rows,
                         "energy capacity E [J]");
    bench::print_context_stats();
    return 0;
}
