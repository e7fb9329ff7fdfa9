#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>

#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/csv.hpp"
#include "uavdc/util/parallel_for.hpp"
#include "uavdc/util/stats.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc::bench {

BenchSettings BenchSettings::parse(
    int argc, char** argv, const std::string& extra_usage,
    const std::function<void(const util::Flags&)>& read_extra) {
    const util::Flags flags(argc, argv);
    BenchSettings s;
    const char* env_full = std::getenv("UAVDC_FULL");
    s.full = flags.get_bool("full",
                            env_full != nullptr &&
                                std::string(env_full) == "1");
    s.replicates = flags.get_int("replicates", s.full ? 15 : 5);
    s.seed = static_cast<std::uint64_t>(flags.get_int64("seed", 1));
    s.out_dir = flags.get_string("out", "");
    if (read_extra) read_extra(flags);
    if (flags.report_unknown(std::cerr)) {
        std::cerr << "usage: " << flags.program()
                  << " [--full] [--replicates=N] [--seed=S] [--out=DIR]"
                  << extra_usage << "\n";
        std::exit(2);
    }
    return s;
}

TimingStats timing_stats(std::vector<double> samples) {
    UAVDC_CHECK(!samples.empty()) << "timing_stats over zero samples";
    std::sort(samples.begin(), samples.end());
    TimingStats t;
    t.min_s = samples.front();
    const std::size_t n = samples.size();
    t.median_s = n % 2 == 1
                     ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    double sum = 0.0;
    for (const double s : samples) sum += s;
    t.mean_s = sum / static_cast<double>(n);
    double var = 0.0;
    for (const double s : samples) {
        var += (s - t.mean_s) * (s - t.mean_s);
    }
    t.stddev_s = std::sqrt(var / static_cast<double>(n));
    return t;
}

workload::GeneratorConfig base_generator(const BenchSettings& s) {
    return s.full ? workload::paper_default() : workload::paper_scaled(0.35);
}

std::vector<model::Instance> make_instances(
    const workload::GeneratorConfig& cfg, const BenchSettings& settings) {
    std::vector<model::Instance> out;
    out.reserve(static_cast<std::size_t>(settings.replicates));
    for (int i = 0; i < settings.replicates; ++i) {
        out.push_back(workload::generate(
            cfg, settings.seed + static_cast<std::uint64_t>(i)));
    }
    return out;
}

RunOutcome evaluate_planner(const PlannerFactory& factory,
                            const std::vector<model::Instance>& instances) {
    struct Cell {
        double gb;
        double runtime_s;
        double stops;
        double energy_j;
    };
    std::vector<Cell> cells(instances.size());
    util::parallel_for(0, instances.size(), [&](std::size_t i) {
        auto planner = factory();
        const auto res = planner->plan(instances[i]);
        const auto ev = core::evaluate_plan(instances[i], res.plan);
        cells[i] = {ev.collected_mb / 1000.0, res.stats.runtime_s,
                    static_cast<double>(res.plan.num_stops()), ev.energy_j};
    });
    RunOutcome out;
    out.algo = factory()->name();
    util::Accumulator gb, rt, stops, energy;
    for (const auto& c : cells) {
        gb.add(c.gb);
        rt.add(c.runtime_s);
        stops.add(c.stops);
        energy.add(c.energy_j);
    }
    out.mean_gb = gb.mean();
    out.ci95_gb = gb.ci95_halfwidth();
    out.mean_runtime_s = rt.mean();
    out.mean_stops = stops.mean();
    out.mean_energy_j = energy.mean();
    return out;
}

void write_csv(const std::string& out_dir, const std::string& name,
               const std::vector<std::pair<std::string, RunOutcome>>& rows) {
    if (out_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "warning: cannot create " << out_dir << ": "
                  << ec.message() << "\n";
        return;
    }
    util::CsvWriter csv(out_dir + "/" + name + ".csv");
    csv.row({"sweep", "algo", "mean_gb", "ci95_gb", "mean_runtime_s",
             "mean_stops", "mean_energy_j"});
    for (const auto& [sweep, r] : rows) {
        csv.row_of(sweep, r.algo, r.mean_gb, r.ci95_gb, r.mean_runtime_s,
                   r.mean_stops, r.mean_energy_j);
    }
    csv.flush();
    std::cout << "wrote " << out_dir << "/" << name << ".csv\n";
}

void write_gnuplot(const std::string& out_dir, const std::string& name,
                   const std::vector<std::pair<std::string, RunOutcome>>& rows,
                   const std::string& xlabel) {
    if (out_dir.empty() || rows.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) return;
    // Collect the algorithm series in first-appearance order.
    std::vector<std::string> algos;
    for (const auto& [sweep, r] : rows) {
        if (std::find(algos.begin(), algos.end(), r.algo) == algos.end()) {
            algos.push_back(r.algo);
        }
    }
    std::ofstream gp(out_dir + "/" + name + ".gp");
    if (!gp) return;
    gp << "# gnuplot script generated by the uavdc bench harness\n"
       << "set terminal pngcairo size 900,600\n"
       << "set output '" << name << ".png'\n"
       << "set datafile separator ','\n"
       << "set key left top\n"
       << "set xlabel '" << xlabel << "'\n"
       << "set ylabel 'collected data volume [GB]'\n"
       << "set xtics rotate by -30\n"
       << "plot ";
    for (std::size_t i = 0; i < algos.size(); ++i) {
        if (i) gp << ", \\\n     ";
        // Row filter: keep only this algorithm's rows (1/0 drops a point);
        // x = sweep label (column 1), y = mean_gb +- ci95.
        gp << "'" << name << ".csv' every ::1 using "
           << "0:(strcol(2) eq '" << algos[i] << "' ? $3 : 1/0):4:"
           << "xtic(1) with yerrorlines title '" << algos[i] << "'";
    }
    gp << "\n";
    gp.flush();
}

void print_context_stats() {
    const auto s = core::PlanningContextCache::global().stats();
    const std::uint64_t lookups = s.hits + s.misses;
    std::cout << "\nplanning-context cache: " << s.hits << " hits / "
              << lookups << " lookups";
    if (lookups > 0) {
        std::cout << " ("
                  << util::Table::fmt(
                         100.0 * static_cast<double>(s.hits) /
                             static_cast<double>(lookups),
                         1)
                  << "% hit rate)";
    }
    std::cout << ", " << s.candidate_builds << " candidate builds in "
              << util::Table::fmt(s.candidate_build_time_s, 2) << " s\n";
}

void print_figure(const std::string& title, const std::string& sweep_label,
                  const std::vector<std::string>& sweep_points,
                  const std::vector<std::string>& algo_names,
                  const std::vector<std::vector<RunOutcome>>& grid) {
    std::cout << "\n=== " << title << " ===\n";
    {
        std::vector<std::string> headers{sweep_label};
        for (const auto& a : algo_names) headers.push_back(a + " [GB]");
        util::Table vol(headers);
        for (std::size_t r = 0; r < sweep_points.size(); ++r) {
            std::vector<std::string> row{sweep_points[r]};
            for (const auto& cell : grid[r]) {
                row.push_back(util::Table::fmt(cell.mean_gb, 2) + " ±" +
                              util::Table::fmt(cell.ci95_gb, 2));
            }
            vol.add_row(std::move(row));
        }
        std::cout << "(a) collected data volume\n";
        vol.print(std::cout, 2);
    }
    {
        std::vector<std::string> headers{sweep_label};
        for (const auto& a : algo_names) headers.push_back(a + " [s]");
        util::Table rt(headers);
        for (std::size_t r = 0; r < sweep_points.size(); ++r) {
            std::vector<std::string> row{sweep_points[r]};
            for (const auto& cell : grid[r]) {
                row.push_back(util::Table::fmt(cell.mean_runtime_s, 3));
            }
            rt.add_row(std::move(row));
        }
        std::cout << "(b) planner running time\n";
        rt.print(std::cout, 2);
    }
}

}  // namespace uavdc::bench

namespace uavdc::bench {

AlgoParams default_algo_params(const BenchSettings& s) {
    AlgoParams p;
    p.delta_m = 10.0;
    p.max_candidates = s.full ? 2500 : 1200;
    p.grasp_iterations = s.full ? 12 : 6;
    return p;
}

std::vector<double> energy_sweep(const BenchSettings& s) {
    if (s.full) {
        return {3.0e5, 4.5e5, 6.0e5, 7.5e5, 9.0e5};
    }
    // Under the paper-literal per-metre travel model the 0.35-scaled field
    // needs ~2e5 J for (near-)full collection; span scarce -> sufficient.
    return {0.4e5, 0.8e5, 1.2e5, 1.6e5, 2.0e5};
}

double default_energy(const BenchSettings& s) {
    // Roughly the paper's scarcity at E = 3e5 (planners collect ~30-50%
    // of the stored data).
    return s.full ? 3.0e5 : 0.7e5;
}

PlannerFactory alg1_factory(const AlgoParams& p) {
    return [p] {
        core::Algorithm1Config cfg;
        cfg.candidates.delta_m = p.delta_m;
        cfg.candidates.max_candidates = p.max_candidates;
        cfg.grasp.iterations = p.grasp_iterations;
        return std::make_unique<core::GridOrienteeringPlanner>(cfg);
    };
}

PlannerFactory alg2_factory(const AlgoParams& p) {
    return [p] {
        core::Algorithm2Config cfg;
        cfg.candidates.delta_m = p.delta_m;
        cfg.candidates.max_candidates = p.max_candidates;
        return std::make_unique<core::GreedyCoveragePlanner>(cfg);
    };
}

PlannerFactory alg3_factory(const AlgoParams& p, int k) {
    return [p, k] {
        core::Algorithm3Config cfg;
        cfg.candidates.delta_m = p.delta_m;
        cfg.candidates.max_candidates = p.max_candidates;
        cfg.k = k;
        return std::make_unique<core::PartialCollectionPlanner>(cfg);
    };
}

PlannerFactory benchmark_factory() {
    return [] { return std::make_unique<core::PruneTspPlanner>(); };
}

namespace {

/// One tracked perf case: a seeded instance plus the planner to time.
struct BaselineCase {
    std::string name;
    workload::GeneratorConfig gen;
    core::HoverCandidateConfig hover;
    std::function<std::unique_ptr<core::Planner>()> make;
};

std::vector<BaselineCase> baseline_cases(bool quick) {
    std::vector<BaselineCase> cases;

    // Largest alg2 case: paper-scale field, >= 500 hover candidates.
    {
        BaselineCase c;
        c.name = "alg2_greedy_large";
        c.gen = quick ? workload::paper_scaled(0.35)
                      : workload::paper_default();
        c.gen.num_devices = quick ? 150 : 500;
        c.gen.uav.energy_j = quick ? 1.5e5 : 1.8e6;
        c.hover.delta_m = quick ? 10.0 : 8.0;
        c.hover.max_candidates = 6000;
        const auto hover = c.hover;
        c.make = [hover] {
            core::Algorithm2Config cfg;
            cfg.candidates = hover;
            return std::make_unique<core::GreedyCoveragePlanner>(cfg);
        };
        cases.push_back(std::move(c));
    }

    {
        BaselineCase c;
        c.name = "alg3_k4";
        c.gen = workload::paper_scaled(0.35);
        c.gen.num_devices = quick ? 80 : 300;
        c.gen.uav.energy_j = quick ? 0.6e5 : 1.2e5;
        c.hover.delta_m = 10.0;
        const auto hover = c.hover;
        c.make = [hover] {
            core::Algorithm3Config cfg;
            cfg.candidates = hover;
            cfg.k = 4;
            return std::make_unique<core::PartialCollectionPlanner>(cfg);
        };
        cases.push_back(std::move(c));
    }

    // Alg. 1 at the service defaults (GRASP, 8 restarts).
    {
        BaselineCase c;
        c.name = "alg1_grasp";
        c.gen = quick ? workload::paper_scaled(0.6)
                      : workload::paper_default();
        c.gen.num_devices = quick ? 150 : 400;
        const auto opts = core::PlannerOptions{};
        c.hover = opts.hover_config();
        c.make = [opts] { return core::make_planner("alg1", opts); };
        cases.push_back(std::move(c));
    }

    {
        BaselineCase c;
        c.name = "benchmark_prune";
        c.gen = quick ? workload::paper_scaled(0.35)
                      : workload::paper_default();
        c.gen.num_devices = quick ? 120 : 500;
        c.gen.uav.energy_j = quick ? 0.4e5 : 3.0e5;
        c.make = [] { return std::make_unique<core::PruneTspPlanner>(); };
        cases.push_back(std::move(c));
    }
    return cases;
}

}  // namespace

std::vector<PlannerBaseline> run_planner_baselines(bool quick) {
    // Quick mode runs 3 reps too: the regression gate compares medians, and
    // a single-sample median is just the (noise-prone) one measurement.
    const int reps = 3;
    std::vector<PlannerBaseline> rows;
    for (const auto& c : baseline_cases(quick)) {
        const auto inst = workload::generate(c.gen, 23);
        // Fresh (uncached) context; candidates built eagerly so the timed
        // region is pure planning.
        const auto ctx = core::PlanningContext::build(inst, c.hover);
        const std::size_t n_cands = ctx->candidates().size();

        PlannerBaseline row;
        row.name = c.name;
        row.devices = static_cast<int>(inst.devices.size());
        row.candidates = static_cast<int>(n_cands);

        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(reps));
        for (int r = 0; r < reps; ++r) {
            const auto res = c.make()->plan(*ctx);
            samples.push_back(res.stats.runtime_s);
            row.planned_mb = res.stats.planned_mb;
            row.iterations = res.stats.iterations;
        }
        row.incremental = timing_stats(std::move(samples));
        row.incremental_s = row.incremental.min_s;
        rows.push_back(std::move(row));
    }
    return rows;
}

void write_planner_baselines(const std::string& path, bool quick,
                             const std::vector<PlannerBaseline>& rows) {
    io::Json doc;
    doc["schema"] = "uavdc-bench-planners-v2";
    doc["quick"] = quick;
    io::Json::Array cases;
    for (const auto& r : rows) {
        io::Json c;
        c["name"] = r.name;
        c["devices"] = r.devices;
        c["candidates"] = r.candidates;
        c["iterations"] = r.iterations;
        c["planned_mb"] = r.planned_mb;
        c["incremental_s"] = r.incremental_s;
        // Rep aggregates: the regression gate compares *_med_s; min stays
        // the legacy metric above.
        c["incremental_med_s"] = r.incremental.median_s;
        c["incremental_std_s"] = r.incremental.stddev_s;
        cases.push_back(std::move(c));
    }
    doc["cases"] = std::move(cases);
    std::ofstream out(path);
    UAVDC_CHECK(static_cast<bool>(out)) << "cannot open " << path;
    out << doc.dump(2) << "\n";
    out.flush();
    std::cout << "wrote " << path << "\n";
}

}  // namespace uavdc::bench
