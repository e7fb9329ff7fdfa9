#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "test_util.hpp"
#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc {
namespace {

/// Planner factory for the cross-product suites.
enum class Algo { kAlg1, kAlg2, kAlg3K2, kAlg3K4, kBenchmark };

std::string algo_name(Algo a) {
    switch (a) {
        case Algo::kAlg1:
            return "alg1";
        case Algo::kAlg2:
            return "alg2";
        case Algo::kAlg3K2:
            return "alg3k2";
        case Algo::kAlg3K4:
            return "alg3k4";
        case Algo::kBenchmark:
            return "benchmark";
    }
    return "?";
}

std::unique_ptr<core::Planner> make_planner(Algo a, double delta) {
    switch (a) {
        case Algo::kAlg1: {
            core::Algorithm1Config cfg;
            cfg.candidates.delta_m = delta;
            cfg.grasp.iterations = 4;
            return std::make_unique<core::GridOrienteeringPlanner>(cfg);
        }
        case Algo::kAlg2: {
            core::Algorithm2Config cfg;
            cfg.candidates.delta_m = delta;
            return std::make_unique<core::GreedyCoveragePlanner>(cfg);
        }
        case Algo::kAlg3K2:
        case Algo::kAlg3K4: {
            core::Algorithm3Config cfg;
            cfg.candidates.delta_m = delta;
            cfg.k = a == Algo::kAlg3K2 ? 2 : 4;
            return std::make_unique<core::PartialCollectionPlanner>(cfg);
        }
        case Algo::kBenchmark:
            return std::make_unique<core::PruneTspPlanner>();
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Every planner x several workloads x seeds: plans are energy-feasible, the
// simulator completes them, and sim == closed-form evaluation.
// ---------------------------------------------------------------------------

using PlannerCase = std::tuple<Algo, int /*scenario*/, int /*seed*/>;

class PlannerSimSweep : public ::testing::TestWithParam<PlannerCase> {};

model::Instance scenario_instance(int scenario, int seed) {
    workload::GeneratorConfig cfg;
    switch (scenario) {
        case 0:
            cfg = workload::paper_scaled(0.3);
            break;
        case 1:
            cfg = workload::smart_city();
            cfg.num_devices = 60;
            cfg.region_w = cfg.region_h = 400.0;
            break;
        default:
            cfg = workload::farm_monitoring();
            cfg.num_devices = 50;
            cfg.region_w = cfg.region_h = 350.0;
            break;
    }
    cfg.uav.energy_j = 8.0e4;
    return workload::generate(cfg, static_cast<std::uint64_t>(seed));
}

TEST_P(PlannerSimSweep, FeasibleAndSimConsistent) {
    const auto [algo, scenario, seed] = GetParam();
    const auto inst = scenario_instance(scenario, seed);
    auto planner = make_planner(algo, 25.0);
    const auto res = planner->plan(inst);

    EXPECT_TRUE(res.plan.feasible(inst.depot, inst.uav, 1e-6))
        << algo_name(algo);

    const auto ev = core::evaluate_plan(inst, res.plan);
    sim::SimConfig scfg;
    scfg.record_trace = false;
    const auto rep = sim::Simulator(scfg).run(inst, res.plan);
    EXPECT_TRUE(rep.completed) << algo_name(algo);
    EXPECT_FALSE(rep.battery_depleted) << algo_name(algo);
    EXPECT_NEAR(rep.collected_mb, ev.collected_mb, 1e-6) << algo_name(algo);
    EXPECT_NEAR(rep.energy_used_j, ev.energy_j, 1e-6) << algo_name(algo);
    EXPECT_LE(rep.energy_used_j, inst.uav.energy_j + 1e-6)
        << algo_name(algo);
    // Claimed volume never overstated.
    EXPECT_GE(ev.collected_mb, res.stats.planned_mb - 1e-6)
        << algo_name(algo);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlanners, PlannerSimSweep,
    ::testing::Combine(::testing::Values(Algo::kAlg1, Algo::kAlg2,
                                         Algo::kAlg3K2, Algo::kAlg3K4,
                                         Algo::kBenchmark),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<PlannerCase>& info) {
        return algo_name(std::get<0>(info.param)) + "_scenario" +
               std::to_string(std::get<1>(info.param)) + "_seed" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Lemma 1 property sweep: the auxiliary graph is metric for random
// instances and grid resolutions.
// ---------------------------------------------------------------------------

class MetricSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MetricSweep, AuxiliaryGraphSatisfiesTriangleInequality) {
    const auto [seed, delta] = GetParam();
    const auto inst = testing::small_instance(
        18, 250.0, static_cast<std::uint64_t>(seed));
    core::HoverCandidateConfig ccfg;
    ccfg.delta_m = delta;
    ccfg.max_candidates = 40;  // keep the O(n^3) check quick
    const auto cands = core::build_hover_candidates(inst, ccfg);
    const auto problem =
        core::GridOrienteeringPlanner::build_auxiliary_problem(inst, cands);
    EXPECT_LE(problem.graph.max_triangle_violation(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDeltas, MetricSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(15.0, 25.0, 40.0)));

// ---------------------------------------------------------------------------
// Eq. 4-5 property: P(s_{j,k}) and t(s_{j,k}) are monotone in k, and the
// K-th virtual location collects the full coverage volume.
// ---------------------------------------------------------------------------

class VirtualLocationMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(VirtualLocationMonotonicity, PrizeAndDwellIncreaseWithK) {
    const int K = GetParam();
    const auto inst = testing::small_instance(25, 200.0, 77);
    core::HoverCandidateConfig ccfg;
    ccfg.delta_m = 20.0;
    const auto cands = core::build_hover_candidates(inst, ccfg);
    ASSERT_GT(cands.size(), 0u);
    const double bw = inst.uav.bandwidth_mbps;
    for (std::size_t j = 0; j < cands.size(); ++j) {
        const auto& c = cands.candidates[j];
        double prev_p = -1.0, prev_t = -1.0;
        for (int k = 1; k <= K; ++k) {
            const double t_k = static_cast<double>(k) * c.dwell_s /
                               static_cast<double>(K);
            // Eq. 4 with full (initial) volumes.
            double p_k = 0.0;
            for (int v : cands.covered(j)) {
                p_k += std::min(
                    inst.devices[static_cast<std::size_t>(v)].data_mb,
                    bw * t_k);
            }
            EXPECT_GE(p_k, prev_p - 1e-9);
            EXPECT_GT(t_k, prev_t);
            prev_p = p_k;
            prev_t = t_k;
            if (k == K) {
                EXPECT_NEAR(p_k, c.award_mb, 1e-6)
                    << "full dwell must collect the full award";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, VirtualLocationMonotonicity,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Energy-budget monotonicity across planners (aggregate over seeds).
// ---------------------------------------------------------------------------

class EnergySweep : public ::testing::TestWithParam<Algo> {};

TEST_P(EnergySweep, CollectionGrowsWithBudgetOnAverage) {
    const Algo algo = GetParam();
    double prev = -1.0;
    for (double energy : {2.0e4, 5.0e4, 1.0e5}) {
        double total = 0.0;
        for (std::uint64_t seed : {51u, 52u, 53u}) {
            auto inst = testing::small_instance(30, 320.0, seed);
            inst.uav.energy_j = energy;
            auto planner = make_planner(algo, 25.0);
            total += core::evaluate_plan(inst, planner->plan(inst).plan)
                         .collected_mb;
        }
        EXPECT_GE(total, prev - 1e-6)
            << algo_name(algo) << " at E=" << energy;
        prev = total;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, EnergySweep,
                         ::testing::Values(Algo::kAlg1, Algo::kAlg2,
                                           Algo::kAlg3K2, Algo::kBenchmark),
                         [](const ::testing::TestParamInfo<Algo>& info) {
                             return algo_name(info.param);
                         });

// ---------------------------------------------------------------------------
// End-to-end: disjoint-coverage selection for Alg 1 really is disjoint.
// ---------------------------------------------------------------------------

TEST(Algorithm1Disjoint, SelectedCoverageSetsPairwiseDisjoint) {
    const auto inst = testing::small_instance(40, 300.0, 88);
    core::HoverCandidateConfig ccfg;
    ccfg.delta_m = 15.0;
    const auto cands = core::build_hover_candidates(inst, ccfg);
    const auto disjoint = core::GridOrienteeringPlanner::select_disjoint(
        cands, inst.num_devices());
    std::vector<int> hits(inst.num_devices(), 0);
    for (std::size_t j = 0; j < disjoint.size(); ++j) {
        for (int v : disjoint.covered(j)) ++hits[static_cast<std::size_t>(v)];
    }
    for (int h : hits) EXPECT_LE(h, 1);
}

TEST(Algorithm1Disjoint, PlannedEqualsEvaluatedOnFeasiblePlans) {
    // With disjoint coverage, the orienteering prize is exactly the volume
    // collected.
    for (std::uint64_t seed : {61u, 62u, 63u}) {
        const auto inst = testing::small_instance(30, 300.0, seed);
        core::Algorithm1Config cfg;
        cfg.candidates.delta_m = 20.0;
        cfg.grasp.iterations = 4;
        core::GridOrienteeringPlanner planner(cfg);
        const auto res = planner.plan(inst);
        const auto ev = core::evaluate_plan(inst, res.plan);
        EXPECT_NEAR(ev.collected_mb, res.stats.planned_mb, 1e-6)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace uavdc
