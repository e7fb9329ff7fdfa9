// Google-benchmark microbenchmarks for the planners and orienteering
// solvers at fixed small scale (planner scaling curves live in the fig*
// harnesses; these catch per-commit performance regressions).
//
// With --baseline_out=<path> the binary instead times the tracked planner
// cases and writes the BENCH_planners.json schema (add --quick for the
// variant that scripts/perf_gate.py runs on base and head).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/orienteering/grasp.hpp"
#include "uavdc/orienteering/greedy.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/presets.hpp"

namespace {

using namespace uavdc;

model::Instance bench_instance(int devices) {
    auto gen = workload::paper_scaled(0.35);
    gen.num_devices = devices;
    gen.uav.energy_j = 4.0e4;
    return workload::generate(gen, 23);
}

orienteering::Problem random_orienteering(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)});
    }
    orienteering::Problem p;
    p.graph = graph::DenseGraph::euclidean(pts);
    p.prizes.resize(static_cast<std::size_t>(n));
    for (auto& z : p.prizes) z = rng.uniform(1.0, 10.0);
    p.prizes[0] = 0.0;
    p.depot = 0;
    p.budget = 900.0;
    return p;
}

void BM_OrienteeringGreedy(benchmark::State& state) {
    const auto p = random_orienteering(static_cast<int>(state.range(0)), 3);
    for (auto _ : state) {
        auto s = orienteering::solve_greedy(p);
        benchmark::DoNotOptimize(s.prize);
    }
}
BENCHMARK(BM_OrienteeringGreedy)->Arg(100)->Arg(400);

void BM_OrienteeringGrasp(benchmark::State& state) {
    const auto p = random_orienteering(static_cast<int>(state.range(0)), 3);
    orienteering::GraspConfig cfg;
    cfg.iterations = 4;
    for (auto _ : state) {
        auto s = orienteering::solve_grasp(p, cfg);
        benchmark::DoNotOptimize(s.prize);
    }
}
BENCHMARK(BM_OrienteeringGrasp)->Arg(100)->Arg(200);

void BM_Algorithm1(benchmark::State& state) {
    const auto inst = bench_instance(static_cast<int>(state.range(0)));
    core::Algorithm1Config cfg;
    cfg.candidates.delta_m = 15.0;
    cfg.grasp.iterations = 4;
    for (auto _ : state) {
        core::GridOrienteeringPlanner planner(cfg);
        auto res = planner.plan(inst);
        benchmark::DoNotOptimize(res.stats.planned_mb);
    }
}
BENCHMARK(BM_Algorithm1)->Arg(30)->Arg(60);

void BM_Algorithm2(benchmark::State& state) {
    const auto inst = bench_instance(static_cast<int>(state.range(0)));
    core::Algorithm2Config cfg;
    cfg.candidates.delta_m = 15.0;
    for (auto _ : state) {
        core::GreedyCoveragePlanner planner(cfg);
        auto res = planner.plan(inst);
        benchmark::DoNotOptimize(res.stats.planned_mb);
    }
}
BENCHMARK(BM_Algorithm2)->Arg(30)->Arg(60);

void BM_Algorithm3(benchmark::State& state) {
    const auto inst = bench_instance(60);
    core::Algorithm3Config cfg;
    cfg.candidates.delta_m = 15.0;
    cfg.k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        core::PartialCollectionPlanner planner(cfg);
        auto res = planner.plan(inst);
        benchmark::DoNotOptimize(res.stats.planned_mb);
    }
}
BENCHMARK(BM_Algorithm3)->Arg(1)->Arg(4);

void BM_BenchmarkPlanner(benchmark::State& state) {
    const auto inst = bench_instance(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        core::PruneTspPlanner planner;
        auto res = planner.plan(inst);
        benchmark::DoNotOptimize(res.stats.planned_mb);
    }
}
BENCHMARK(BM_BenchmarkPlanner)->Arg(60)->Arg(120)->Arg(400);

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    if (flags.has("baseline_out")) {
        const bool quick = flags.get_bool("quick", false);
        const auto rows = bench::run_planner_baselines(quick);
        for (const auto& r : rows) {
            std::printf(
                "%-22s devices=%-4d candidates=%-5d iter=%-5d "
                "min=%.4fs med=%.4fs\n",
                r.name.c_str(), r.devices, r.candidates, r.iterations,
                r.incremental_s, r.incremental.median_s);
        }
        bench::write_planner_baselines(
            flags.get_string("baseline_out", "BENCH_planners.json"), quick,
            rows);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
