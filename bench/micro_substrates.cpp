// Google-benchmark microbenchmarks for the substrate layers: spatial hash,
// coverage index, Christofides and its exact matching step, 2-opt, and the
// discrete-event simulator.

#include <benchmark/benchmark.h>

#include "uavdc/core/algorithm2.hpp"
#include "uavdc/geom/coverage.hpp"
#include "uavdc/geom/grid.hpp"
#include "uavdc/geom/kmeans.hpp"
#include "uavdc/geom/spatial_hash.hpp"
#include "uavdc/graph/held_karp.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/graph/local_search.hpp"
#include "uavdc/graph/matching.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/presets.hpp"

namespace {

using namespace uavdc;

std::vector<geom::Vec2> random_points(int n, std::uint64_t seed,
                                      double side) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    return pts;
}

void BM_SpatialHashBuild(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 7, 1000.0);
    for (auto _ : state) {
        geom::SpatialHash hash(pts, 50.0);
        benchmark::DoNotOptimize(hash.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpatialHashBuild)->Arg(500)->Arg(5000);

void BM_SpatialHashQuery(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 7, 1000.0);
    const geom::SpatialHash hash(pts, 50.0);
    util::Rng rng(9);
    for (auto _ : state) {
        const geom::Vec2 q{rng.uniform(0.0, 1000.0),
                           rng.uniform(0.0, 1000.0)};
        int count = 0;
        hash.for_each_in_disk(q, 50.0, [&](int) { ++count; });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(BM_SpatialHashQuery)->Arg(500)->Arg(5000);

void BM_CoverageIndexBuild(benchmark::State& state) {
    const auto devices =
        random_points(static_cast<int>(state.range(0)), 3, 1000.0);
    const geom::Grid grid(geom::Aabb::of_size(1000.0, 1000.0), 10.0);
    const auto centers = grid.all_centers();
    for (auto _ : state) {
        geom::CoverageIndex cov(centers, devices, 50.0);
        benchmark::DoNotOptimize(cov.num_uncovered_devices());
    }
}
BENCHMARK(BM_CoverageIndexBuild)->Arg(100)->Arg(500);

void BM_Christofides(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 5, 1000.0);
    const auto g = graph::DenseGraph::euclidean(pts);
    for (auto _ : state) {
        // The exact 2-opt / Or-opt polish is part of what this times.
        auto tour = graph::christofides_tour(g, 0);
        graph::two_opt(g, tour);
        graph::or_opt(g, tour);
        benchmark::DoNotOptimize(tour.size());
    }
}
// Arg(40) is about the tour size of a cold paper-preset alg2 plan (at this
// seed its 20 odd-degree nodes exceed the exact limit, so it runs greedy).
BENCHMARK(BM_Christofides)->Arg(40)->Arg(50)->Arg(200)->Arg(500);

// The exact matching step of Christofides alone, on k Euclidean nodes
// (planner tours call it with k <= graph::kExactMatchingLimit, 18).
void BM_ExactMatching(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto pts = random_points(static_cast<int>(k), 13, 1000.0);
    const auto g = graph::DenseGraph::euclidean(pts);
    std::vector<std::size_t> nodes(k);
    for (std::size_t i = 0; i < k; ++i) nodes[i] = i;
    for (auto _ : state) {
        auto m = graph::exact_min_matching(g, nodes);
        benchmark::DoNotOptimize(m.data());
    }
}
BENCHMARK(BM_ExactMatching)->Arg(14)->Arg(16)->Arg(18)->Arg(22);

void BM_TwoOpt(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 5, 1000.0);
    const auto g = graph::DenseGraph::euclidean(pts);
    std::vector<std::size_t> base(pts.size());
    for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
    for (auto _ : state) {
        auto tour = base;
        benchmark::DoNotOptimize(graph::two_opt(g, tour));
    }
}
BENCHMARK(BM_TwoOpt)->Arg(100)->Arg(300);

void BM_SimulatorRun(benchmark::State& state) {
    auto gen = workload::paper_scaled(0.5);
    const auto inst = workload::generate(gen, 11);
    core::Algorithm2Config cfg;
    cfg.candidates.delta_m = 20.0;
    const auto res = core::GreedyCoveragePlanner(cfg).plan(inst);
    sim::SimConfig scfg;
    scfg.record_trace = false;
    const sim::Simulator sim(scfg);
    for (auto _ : state) {
        auto rep = sim.run(inst, res.plan);
        benchmark::DoNotOptimize(rep.collected_mb);
    }
}
BENCHMARK(BM_SimulatorRun);


void BM_KMeans(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 9, 1000.0);
    for (auto _ : state) {
        auto res = geom::kmeans(pts, 32);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeans)->Arg(200)->Arg(1000);

void BM_HeldKarp(benchmark::State& state) {
    const auto pts =
        random_points(static_cast<int>(state.range(0)), 12, 1000.0);
    const auto g = graph::DenseGraph::euclidean(pts);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::held_karp_length(g));
    }
}
BENCHMARK(BM_HeldKarp)->Arg(10)->Arg(14);

}  // namespace

BENCHMARK_MAIN();
