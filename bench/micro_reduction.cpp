// Benchmarks for the candidate-space reduction pipeline
// (core/candidate_reduction): steady-state planning time on a reduced
// scale-large candidate set versus the unreduced set and versus the
// 500-device paper-default reference case.
//
// With --baseline_out=<path> the binary runs the tracked reduction cases
// and writes the uavdc-bench-reduction-v1 schema (add --quick for the
// variant that scripts/perf_gate.py runs on base and head). Contexts are
// warmed before timing — candidates, SoA mirrors, and the memoized
// reduction are all pre-touched — so `plan_s` is planning time proper, the
// steady-state cost a plan service pays per request.
//
// Each baseline run also asserts the reduction quality invariant on its
// fixed seed: the reduced plan collects at least 99% of the unreduced
// plan's volume, so the perf baseline doubles as a quality check.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/timer.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace {

using namespace uavdc;

constexpr std::uint64_t kSeed = 7;

/// Wall-time aggregates over `reps` calls of `fn()`. `min_s` is the legacy
/// best-of metric; the regression gate compares medians.
template <typename F>
bench::TimingStats timed_reps(int reps, F&& fn) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const util::Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    return bench::timing_stats(std::move(samples));
}

struct ReductionCase {
    std::string name;
    int devices{0};
    int candidates{0};  ///< candidates the planner actually saw
    double plan_s{0};   ///< best wall planning time (warm context)
    double reduce_s{0}; ///< one-off reduce_candidates cost (0 = no reduction)
    double planned_mb{0};
    double speedup{0};  ///< unreduced plan_s / this case's plan_s
    bench::TimingStats plan;  ///< full rep aggregates of the planning time
};

/// The benchmarked throughput profile: 6x grid coarsening, nothing else.
/// On scale-large this cuts planning ~11x *and* collects more than the
/// unpruned planner — the coarse grid spreads the greedy picks out, which
/// beats dense local clusters of near-duplicate candidates — so neither
/// the dominance pass nor the refinement band pays for itself here.
/// (Conformance fuzzes its own conservative dominance + coarsen-2 +
/// refine-band profile for the bounded-loss bound; this one is tuned for
/// serving throughput.)
core::CandidateReductionConfig bench_profile() {
    core::CandidateReductionConfig red;
    red.coarsen_factor = 6;
    return red;
}

ReductionCase time_planner(const std::string& name,
                           const core::PlanningContext& ctx,
                           const core::PlannerOptions& opts, int reps) {
    auto planner = core::make_planner("alg2", opts);
    core::PlanResult res;
    ReductionCase out;
    out.name = name;
    out.devices = static_cast<int>(ctx.instance().devices.size());
    out.plan = timed_reps(reps, [&] {
        res = planner->plan(ctx);
        // Sink a copy: DoNotOptimize's in-place register round-trip may
        // clobber the lvalue it is handed, and we still read `res` below.
        double sink = res.stats.planned_mb;
        benchmark::DoNotOptimize(sink);
    });
    out.plan_s = out.plan.min_s;
    out.candidates = res.stats.candidates;
    out.planned_mb = res.stats.planned_mb;
    return out;
}

std::vector<ReductionCase> run_reduction_baselines(bool quick) {
    // Reference: today's 500-device paper-default quick case at stock
    // candidate options — the runtime yardstick reduction must stay under.
    const model::Instance ref_inst =
        workload::generate(workload::paper_default(), kSeed);
    core::PlannerOptions ref_opts;
    auto ref_ctx =
        core::PlanningContext::build(ref_inst, ref_opts.hover_config());
    // Warm: candidates + SoA built here, outside the timers.
    (void)ref_ctx->candidate_soa();

    // Scale-large: 5k devices on a 3200 m square (~100k grid cells at the
    // stock 10 m delta), candidate cap lifted so reduction does real work.
    // Quick mode shrinks to a quarter-size instance with the same density
    // so the CI smoke keeps the case shape at a fraction of the runtime.
    workload::GeneratorConfig large_cfg = workload::scale_large();
    if (quick) {
        large_cfg.num_devices = 1250;
        large_cfg.region_w = 1600.0;
        large_cfg.region_h = 1600.0;
        large_cfg.uav.energy_j = 1.5e6;
    }
    const model::Instance large_inst = workload::generate(large_cfg, kSeed);
    core::PlannerOptions large_opts;
    large_opts.max_candidates = 100000;
    auto large_ctx =
        core::PlanningContext::build(large_inst, large_opts.hover_config());
    (void)large_ctx->candidate_soa();

    core::PlannerOptions red_opts = large_opts;
    red_opts.reduction = bench_profile();
    const util::Timer reduce_timer;
    const core::ReducedCandidates& reduced =
        large_ctx->reduced_candidates(red_opts.reduction);
    const double reduce_s = reduce_timer.seconds();

    const int reps = quick ? 3 : 5;
    ReductionCase ref = time_planner("ref_500_alg2", *ref_ctx, ref_opts,
                                     quick ? 5 : 10);
    ReductionCase unred =
        time_planner("large_unreduced_alg2", *large_ctx, large_opts, reps);
    ReductionCase red =
        time_planner("large_reduced_alg2", *large_ctx, red_opts, reps);
    red.reduce_s = reduce_s;

    ref.speedup = 1.0;
    unred.speedup = 1.0;
    red.speedup = unred.plan_s / red.plan_s;

    // Quality invariant on this fixed seed: the reduced plan must collect
    // at least 99% of the unreduced plan's volume (planning is
    // deterministic, so this is exact, not flaky). The conformance fuzzer
    // checks the same bound across a 100-instance corpus.
    UAVDC_CHECK(red.planned_mb >= 0.99 * unred.planned_mb)
        << "reduced plan lost >1% volume: " << red.planned_mb << " vs "
        << unred.planned_mb;
    UAVDC_CHECK(reduced.set.size() < large_ctx->candidates().size())
        << "reduction kept every candidate";

    std::printf("reduction: %zu -> %zu candidates (reduce %.1f ms)\n",
                large_ctx->candidates().size(), reduced.set.size(),
                1e3 * reduce_s);
    return {ref, unred, red};
}

void write_reduction_baselines(const std::string& path, bool quick,
                               const std::vector<ReductionCase>& rows) {
    io::Json doc;
    doc["schema"] = "uavdc-bench-reduction-v1";
    doc["quick"] = quick;
    io::Json::Array cases;
    for (const auto& r : rows) {
        io::Json c;
        c["name"] = r.name;
        c["devices"] = r.devices;
        c["candidates"] = r.candidates;
        c["plan_s"] = r.plan_s;
        c["reduce_s"] = r.reduce_s;
        c["planned_mb"] = r.planned_mb;
        c["speedup"] = r.speedup;
        // Rep aggregates: the regression gate prefers *_med_s when both
        // baseline and current carry it; min stays the legacy metric above.
        c["plan_med_s"] = r.plan.median_s;
        c["plan_std_s"] = r.plan.stddev_s;
        cases.push_back(std::move(c));
    }
    doc["cases"] = std::move(cases);
    std::ofstream out(path);
    UAVDC_CHECK(static_cast<bool>(out)) << "cannot open " << path;
    out << doc.dump(2) << "\n";
    out.flush();
    std::printf("wrote %s\n", path.c_str());
}

// --- Interactive google-benchmark entry over the reduction pipeline.

void BM_ReduceCandidates(benchmark::State& state) {
    workload::GeneratorConfig cfg = workload::paper_default();
    cfg.num_devices = static_cast<int>(state.range(0));
    const model::Instance inst = workload::generate(cfg, kSeed);
    core::PlannerOptions opts;
    opts.max_candidates = 100000;
    auto ctx = core::PlanningContext::build(inst, opts.hover_config());
    const auto& full = ctx->candidates();
    const auto red = bench_profile();
    for (auto _ : state) {
        auto out =
            core::reduce_candidates(full, inst.devices.size(), red);
        benchmark::DoNotOptimize(out.set.candidates.data());
    }
}
BENCHMARK(BM_ReduceCandidates)->Arg(500)->Arg(2000);

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    if (flags.has("baseline_out")) {
        const bool quick = flags.get_bool("quick", false);
        const auto rows = run_reduction_baselines(quick);
        for (const auto& r : rows) {
            std::printf("%-22s dev=%-5d cand=%-6d plan=%.4fs "
                        "mb=%.1f speedup=%.2fx\n",
                        r.name.c_str(), r.devices, r.candidates, r.plan_s,
                        r.planned_mb, r.speedup);
        }
        write_reduction_baselines(
            flags.get_string("baseline_out", "BENCH_reduction.json"), quick,
            rows);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
