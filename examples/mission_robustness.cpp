// Mission-robustness walkthrough: plans sized to the full battery are
// maximal on paper and fragile in the air. This example sweeps the
// planning margin (plan at E * (1 - margin)), scores each plan under a
// Monte-Carlo weather envelope (random wind + uplink taper), and prints
// the margin an operator should actually fly with — the knee where
// completion probability reaches 100%.
//
//   ./mission_robustness [--devices=60] [--energy=7e4] [--seed=6] [--trials=48]

#include <iostream>

#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/sensitivity.hpp"
#include "uavdc/sim/monte_carlo.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/presets.hpp"

int main(int argc, char** argv) {
    using namespace uavdc;
    const util::Flags flags(argc, argv);

    workload::GeneratorConfig gen = workload::paper_scaled(0.35);
    gen.num_devices = flags.get_int("devices", 60);
    gen.uav.energy_j = flags.get_double("energy", 7.0e4);
    const auto seed = static_cast<std::uint64_t>(flags.get_int64("seed", 6));
    const int trials = flags.get_int("trials", 48);
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: ./mission_robustness [--devices=60] "
                     "[--energy=7e4] [--seed=6] [--trials=48]\n";
        return 2;
    }
    const auto inst = workload::generate(gen, seed);

    sim::DisturbanceModel weather;
    weather.wind_max_mps = 3.0;
    weather.taper_max = 0.4;

    std::cout << "Field: " << inst.num_devices() << " devices, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB; battery " << util::Table::fmt(inst.uav.energy_j, 0)
              << " J; weather envelope: wind <= " << weather.wind_max_mps
              << " m/s, taper <= " << weather.taper_max << "\n\n";

    util::Table t({"margin", "paper volume [GB]", "completion",
                   "MC mean [GB]", "MC p10 [GB]"});
    double chosen_margin = -1.0;
    for (double margin : {0.0, 0.1, 0.2, 0.3, 0.4}) {
        auto shaded = inst;
        shaded.uav.energy_j *= (1.0 - margin);
        core::Algorithm2Config cfg;
        cfg.candidates.delta_m = 10.0;
        const auto plan = core::GreedyCoveragePlanner(cfg).plan(shaded).plan;
        const double paper_gb =
            core::evaluate_plan(inst, plan).collected_mb / 1000.0;
        const auto rep = sim::evaluate_robustness(inst, plan, weather,
                                                  trials);
        t.add_row({util::Table::fmt(100.0 * margin, 0) + "%",
                   util::Table::fmt(paper_gb, 2),
                   util::Table::fmt(100.0 * rep.completion_rate, 0) + "%",
                   util::Table::fmt(rep.mean_gb, 2),
                   util::Table::fmt(rep.p10_gb, 2)});
        if (chosen_margin < 0.0 && rep.completion_rate >= 0.999) {
            chosen_margin = margin;
        }
    }
    t.print(std::cout, 2);

    if (chosen_margin >= 0.0) {
        std::cout << "\nFly with a " << 100.0 * chosen_margin
                  << "% energy margin: first margin with 100% completion "
                     "under the envelope.\n";
    } else {
        std::cout << "\nNo tested margin completes reliably — widen the "
                     "sweep or shrink the weather envelope.\n";
    }

    // What single knob buys the most? (central-difference elasticities)
    std::cout << "\nParameter elasticities (alg2, +/-20%):\n";
    core::PlannerOptions opts;
    opts.delta_m = 10.0;
    util::Table s({"parameter", "elasticity"});
    for (const auto& e : core::analyze_sensitivity(inst, "alg2", opts)) {
        s.add_row({e.parameter, util::Table::fmt(e.elasticity, 3)});
    }
    s.print(std::cout, 2);
    return 0;
}
