// Survey-data ingestion walkthrough: a field team delivers device
// positions and backlog sizes as CSV; we load it, plan with every
// registered planner, validate the winning plan like a pre-flight check,
// and (on tiny imports) compare against the exact DCM solver to report an
// optimality gap.
//
//   ./survey_import [--csv=FILE] [--energy=3e4]
//
// Without --csv a small synthetic survey file is written to a unique temp
// path first, so the example is self-contained; that file is removed once
// it has been loaded.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/exact_dcm.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/core/validate_plan.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/csv_import.hpp"
#include "uavdc/workload/presets.hpp"

namespace {

// Writes the demo survey to a fresh file under the temp directory and
// returns its path; two concurrent runs never share one.
std::string write_demo_survey() {
    std::string path = (std::filesystem::temp_directory_path() /
                        "uavdc_survey_demo_XXXXXX.csv")
                           .string();
    const int fd = ::mkstemps(path.data(), 4);
    if (fd < 0) throw std::runtime_error("cannot create " + path);
    ::close(fd);
    std::ofstream out(path);
    out << "x,y,data_mb\n"
           "# creek gauges\n"
           "40,35,420\n55,42,380\n48,60,510\n"
           "# orchard cluster\n"
           "160,150,240\n175,163,310\n158,175,275\n170,148,190\n"
           "# far ridge\n"
           "260,80,640\n255,95,580\n";
    return path;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace uavdc;
    const util::Flags flags(argc, argv);

    auto uav = workload::paper_uav();
    uav.energy_j = flags.get_double("energy", 3.0e4);
    std::string csv = flags.get_string("csv", "");
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: ./survey_import [--csv=FILE] [--energy=3e4]\n";
        return 2;
    }
    const bool demo = csv.empty();
    if (demo) {
        csv = write_demo_survey();
        std::cout << "(wrote demo survey to " << csv << ")\n\n";
    }
    const auto inst = workload::load_devices_csv(csv, uav);
    if (demo) std::remove(csv.c_str());
    std::cout << "Loaded " << inst.num_devices() << " devices, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB backlog; region "
              << util::Table::fmt(inst.region.width(), 0) << " x "
              << util::Table::fmt(inst.region.height(), 0)
              << " m, battery " << util::Table::fmt(uav.energy_j, 0)
              << " J\n\n";

    core::PlannerOptions opts;
    opts.delta_m = 15.0;
    util::Table table({"planner", "collected [GB]", "stops", "valid"});
    std::string best_name;
    double best_mb = -1.0;
    model::FlightPlan best_plan;
    for (const auto& name : core::planner_names()) {
        auto planner = core::make_planner(name, opts);
        const auto res = planner->plan(inst);
        const auto ev = core::evaluate_plan(inst, res.plan);
        const auto val = core::validate_plan(inst, res.plan);
        table.add_row({planner->name(),
                       util::Table::fmt(ev.collected_mb / 1000.0, 2),
                       std::to_string(res.plan.num_stops()),
                       val.ok() ? "ok" : "INVALID"});
        if (ev.collected_mb > best_mb && val.ok()) {
            best_mb = ev.collected_mb;
            best_name = planner->name();
            best_plan = res.plan;
        }
    }
    table.print(std::cout, 2);

    // Optimality gap on small imports (the exact solver enumerates
    // candidate subsets; guard keeps it tractable).
    if (inst.num_devices() <= 15) {
        core::ExactDcmConfig xcfg;
        xcfg.candidates.delta_m = 40.0;
        try {
            const auto exact = core::solve_exact_dcm(inst, xcfg);
            std::cout << "\nExact DCM (coarse grid): "
                      << util::Table::fmt(exact.collected_mb / 1000.0, 2)
                      << " GB -> best heuristic (" << best_name
                      << ") achieves "
                      << util::Table::fmt(
                             100.0 * best_mb /
                                 std::max(exact.collected_mb, 1e-9),
                             1)
                      << "% of the coarse-grid optimum\n";
        } catch (const std::invalid_argument&) {
            std::cout << "\n(candidate set too large for the exact "
                         "solver at this delta)\n";
        }
    }

    std::cout << "\nPre-flight check of the " << best_name << " plan: ";
    const auto val = core::validate_plan(inst, best_plan);
    std::cout << (val.ok() ? "PASS" : "FAIL") << " ("
              << val.warnings.size() << " warnings)\n";
    return 0;
}
