// Extension ablations beyond the paper's single-tour open-loop setting:
//  (1) multi-tour planning (R battery swaps / fleet sorties) — how much of
//      the field R sorties recover vs one;
//  (2) adaptive early departure at execution time — hover energy banked by
//      leaving a stop once every covered device is drained.

#include <array>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "uavdc/core/fleet.hpp"
#include "uavdc/core/multi_tour.hpp"
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
    double total_gb = 0.0;
    for (const auto& inst : instances) total_gb += inst.total_data_mb();
    total_gb /= 1000.0 * static_cast<double>(instances.size());

    // --- (1) multi-tour sweep -------------------------------------------
    std::cout << "\n=== Extension - multi-tour (battery swaps) ===\n";
    util::Table mt({"sorties", "collected [GB]", "of field", "plan time [s]"});
    std::vector<std::pair<std::string, bench::RunOutcome>> csv_rows;
    for (int r : {1, 2, 3, 4}) {
        util::Accumulator gb, rt;
        std::vector<std::pair<double, double>> cells(instances.size());
        util::parallel_for(0, instances.size(), [&](std::size_t i) {
            core::MultiTourConfig cfg;
            cfg.tours = r;
            cfg.inner.candidates.delta_m = params.delta_m;
            cfg.inner.candidates.max_candidates = params.max_candidates;
            cfg.inner.k = 2;
            const auto res = core::plan_multi_tour(instances[i], cfg);
            cells[i] = {res.planned_mb / 1000.0, res.runtime_s};
        });
        for (const auto& [v, t] : cells) {
            gb.add(v);
            rt.add(t);
        }
        mt.add_row({std::to_string(r), util::Table::fmt(gb.mean(), 2),
                    util::Table::fmt(100.0 * gb.mean() / total_gb, 1) + "%",
                    util::Table::fmt(rt.mean(), 3)});
        bench::RunOutcome row;
        row.algo = "multi-tour";
        row.mean_gb = gb.mean();
        row.ci95_gb = gb.ci95_halfwidth();
        row.mean_runtime_s = rt.mean();
        csv_rows.emplace_back("R=" + std::to_string(r), row);
    }
    mt.print(std::cout, 2);

    // --- (1b) simultaneous fleet vs sequential sorties -------------------
    std::cout << "\n=== Extension - fleet (simultaneous) vs multi-tour "
                 "(sequential) ===\n";
    util::Table fl({"m", "fleet [GB]", "fleet makespan [s]",
                    "sequential [GB]", "seq makespan [s]"});
    for (int m : {2, 3}) {
        util::Accumulator f_gb, f_ms, s_gb, s_ms;
        std::vector<std::array<double, 4>> cells(instances.size());
        util::parallel_for(0, instances.size(), [&](std::size_t i) {
            core::FleetConfig fc;
            fc.uavs = m;
            fc.inner.candidates.delta_m = params.delta_m;
            fc.inner.candidates.max_candidates = params.max_candidates;
            fc.inner.k = 2;
            const auto fleet = core::plan_fleet(instances[i], fc);
            core::MultiTourConfig mc;
            mc.tours = m;
            mc.inner = fc.inner;
            const auto seq = core::plan_multi_tour(instances[i], mc);
            cells[i] = {fleet.planned_mb / 1000.0, fleet.makespan_s,
                        seq.planned_mb / 1000.0, seq.makespan_s};
        });
        for (const auto& c : cells) {
            f_gb.add(c[0]);
            f_ms.add(c[1]);
            s_gb.add(c[2]);
            s_ms.add(c[3]);
        }
        fl.add_row({std::to_string(m), util::Table::fmt(f_gb.mean(), 2),
                    util::Table::fmt(f_ms.mean(), 0),
                    util::Table::fmt(s_gb.mean(), 2),
                    util::Table::fmt(s_ms.mean(), 0)});
        bench::RunOutcome row;
        row.algo = "fleet";
        row.mean_gb = f_gb.mean();
        csv_rows.emplace_back("m=" + std::to_string(m), row);
    }
    fl.print(std::cout, 2);

    // --- (2) early departure --------------------------------------------
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
