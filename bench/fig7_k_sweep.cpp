// K-ablation for Algorithm 3 (Sec. VII-C reports the K = 2 -> 4 gain:
// 147.7 GB -> 150.7 GB at delta = 5 m). Sweeps the sojourn-partition count
// K at fixed delta and E, reporting volume and runtime. K = 1 degenerates
// to the full-collection problem (Algorithm 2's setting), so this bench
// doubles as the DCM-vs-PDCM ablation.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    std::vector<int> ks;
    const auto settings = bench::BenchSettings::parse(
        argc, argv, " [--ks=k1,k2,...]", [&](const util::Flags& flags) {
            ks = flags.get_int_list("ks", {1, 2, 4, 8});
        });

    workload::GeneratorConfig gen = bench::base_generator(settings);
    gen.uav.energy_j = bench::default_energy(settings);
    const auto instances = bench::make_instances(gen, settings);
    const bench::AlgoParams params = bench::default_algo_params(settings);

    std::vector<std::string> sweep_points;
    std::vector<std::vector<bench::RunOutcome>> grid;
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;

    for (int k : ks) {
        const auto f = bench::alg3_factory(params, k);
        const auto outcome = bench::evaluate_planner(f, instances);
        const std::string label = "K=" + std::to_string(k);
        sweep_points.push_back(label);
        csv_rows.emplace_back(label, outcome);
        grid.push_back({outcome});
    }

    bench::print_figure("Ablation - Algorithm 3 sojourn partition K", "K",
                        sweep_points, {"alg3"}, grid);
    bench::write_csv(settings.out_dir, "fig7_k_sweep", csv_rows);
    bench::write_gnuplot(settings.out_dir, "fig7_k_sweep", csv_rows,
                         "sojourn partitions K");
    bench::print_context_stats();
    return 0;
}
