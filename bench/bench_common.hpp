#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uavdc/core/planner.hpp"
#include "uavdc/model/instance.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc::bench {

/// Creates a fresh planner per replicate (planners are stateless between
/// plan() calls, but per-thread instances keep the sweep embarrassingly
/// parallel).
using PlannerFactory = std::function<std::unique_ptr<core::Planner>()>;

/// Aggregated outcome of one (algorithm, sweep-point) cell, mean over the
/// replicate instances (the paper averages 15 instances per point).
struct RunOutcome {
    std::string algo;
    double mean_gb{0.0};        ///< evaluated collected volume (GB)
    double ci95_gb{0.0};        ///< 95% CI half-width of the mean (GB)
    double mean_runtime_s{0.0}; ///< mean planner wall-clock (s)
    double mean_stops{0.0};     ///< mean number of hovering stops
    double mean_energy_j{0.0};  ///< mean evaluated energy use (J)
};

/// Common command-line settings shared by all figure harnesses.
struct BenchSettings {
    bool full{false};      ///< paper scale (500 nodes, 1 km^2, 15 reps)
    int replicates{5};     ///< instances per sweep point
    std::uint64_t seed{1}; ///< base seed; replicate i uses seed + i
    std::string out_dir;   ///< CSV output directory ("" = no CSV)

    /// Parse --full / --replicates / --seed / --out flags
    /// (UAVDC_FULL=1 also enables full mode).
    static BenchSettings parse(int argc, char** argv);
};

/// Robust timing aggregates over benchmark repetitions. `min_s` is the
/// classical best-of (least noise-inflated); `median_s` is what
/// scripts/perf_gate.py compares, since it tolerates a single interrupted
/// rep without reading as a regression.
struct TimingStats {
    double min_s{0.0};
    double median_s{0.0};
    double mean_s{0.0};
    double stddev_s{0.0};
};

/// Aggregate `samples` (seconds per rep; must be non-empty). Sorts a copy;
/// even-sized medians average the middle pair. Population stddev.
[[nodiscard]] TimingStats timing_stats(std::vector<double> samples);

/// Generator config for the current mode: paper scale in full mode, the
/// density-preserving 0.35-scaled field otherwise.
[[nodiscard]] workload::GeneratorConfig base_generator(
    const BenchSettings& s);

/// Generate `settings.replicates` seeded instances from `cfg`.
[[nodiscard]] std::vector<model::Instance> make_instances(
    const workload::GeneratorConfig& cfg, const BenchSettings& settings);

/// Plan every instance with a fresh planner (in parallel across the global
/// thread pool), evaluate each plan in closed form, and aggregate.
[[nodiscard]] RunOutcome evaluate_planner(
    const PlannerFactory& factory,
    const std::vector<model::Instance>& instances);

/// Write a result grid to `<out_dir>/<name>.csv` (no-op when out_dir empty).
/// Columns: sweep, algo, mean_gb, ci95_gb, mean_runtime_s, mean_stops,
/// mean_energy_j.
void write_csv(const std::string& out_dir, const std::string& name,
               const std::vector<std::pair<std::string, RunOutcome>>& rows);

/// Also emit `<out_dir>/<name>.gp` — a gnuplot script that renders the CSV
/// as a volume-vs-sweep chart with error bars, one series per algorithm
/// (`gnuplot <name>.gp` produces `<name>.png`). No-op when out_dir empty.
void write_gnuplot(const std::string& out_dir, const std::string& name,
                   const std::vector<std::pair<std::string, RunOutcome>>& rows,
                   const std::string& xlabel);

/// Print the global `PlanningContext` cache counters — context hit rate,
/// candidate builds, and total build time. Called at the end of each sweep
/// harness to show how much precompute the shared-context layer saved (a
/// sweep of A algorithms over I instances shows I builds, not A * I).
void print_context_stats();

/// Print the standard two paper-style tables (collected volume + runtime)
/// for a sweep: rows = sweep points, columns = algorithms.
void print_figure(const std::string& title, const std::string& sweep_label,
                  const std::vector<std::string>& sweep_points,
                  const std::vector<std::string>& algo_names,
                  const std::vector<std::vector<RunOutcome>>& grid);

/// Shared per-mode algorithm parameters.
struct AlgoParams {
    double delta_m{10.0};
    int max_candidates{1200};
    int grasp_iterations{6};
};

/// Mode defaults: fast mode trims the candidate cap and GRASP restarts.
[[nodiscard]] AlgoParams default_algo_params(const BenchSettings& s);

/// Planner factories (Algorithms 1/2/3 + the paper's benchmark).
[[nodiscard]] PlannerFactory alg1_factory(const AlgoParams& p);
[[nodiscard]] PlannerFactory alg2_factory(const AlgoParams& p);
[[nodiscard]] PlannerFactory alg3_factory(const AlgoParams& p, int k);
[[nodiscard]] PlannerFactory benchmark_factory();

/// One row of the tracked planner perf baseline (BENCH_planners.json):
/// the same seeded instance planned with the incremental scoring engine and
/// with the from-scratch reference engine, plus the resulting speedup. Both
/// engines are bit-identical by contract, so planned_mb/iterations describe
/// either run.
struct PlannerBaseline {
    std::string name;        ///< case id, e.g. "alg2_greedy_large"
    int devices{0};          ///< instance size
    int candidates{0};       ///< hover-candidate count (>= 500 for *_large)
    int iterations{0};       ///< greedy iterations / prune rounds
    double planned_mb{0.0};  ///< planned volume (engine-independent)
    double incremental_s{0.0};  ///< best wall time, incremental engine
    double reference_s{0.0};    ///< best wall time, reference engine
    double speedup{0.0};        ///< reference_s / incremental_s
    TimingStats incremental;    ///< full rep aggregates, incremental engine
    TimingStats reference;      ///< full rep aggregates, reference engine
};

/// Run the tracked planner perf cases (alg2 large grid, alg2 exact-ratio
/// TSP, alg3, benchmark prune) with both scoring engines. `quick` shrinks
/// the instances for CI smoke runs; full mode is what BENCH_planners.json
/// is generated from. Throws if the engines disagree on planned_mb (the
/// perf baseline doubles as an equivalence check).
[[nodiscard]] std::vector<PlannerBaseline> run_planner_baselines(bool quick);

/// Serialize baselines to `path` as the uavdc-bench-planners-v1 JSON schema
/// consumed by scripts/perf_gate.py.
void write_planner_baselines(const std::string& path, bool quick,
                             const std::vector<PlannerBaseline>& rows);

/// Energy-capacity sweep points: the paper's 3e5..9e5 J in full mode; a
/// range chosen to span "scarce" through "nearly sufficient" for the
/// 0.35-scaled field in fast mode (the scaled field needs ~5e4 J to collect
/// everything, so naive area scaling of the paper's range would saturate at
/// the first point and flatten every curve).
[[nodiscard]] std::vector<double> energy_sweep(const BenchSettings& s);

/// Default battery capacity for non-energy sweeps (fig 4/6/7): the paper's
/// E = 3e5 J in full mode, a comparably scarce budget in fast mode.
[[nodiscard]] double default_energy(const BenchSettings& s);

}  // namespace uavdc::bench
