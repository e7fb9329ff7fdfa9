#include <gtest/gtest.h>

#include "uavdc/util/check.hpp"

#include <memory>

#include "greedy_oracle.hpp"
#include "test_util.hpp"
#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/planning_context.hpp"

namespace uavdc::core {
namespace {

using testing::manual_instance;
using testing::small_instance;

/// Common sanity checks for any planner output.
void check_plan(const model::Instance& inst, const PlanResult& res) {
    EXPECT_TRUE(res.plan.feasible(inst.depot, inst.uav, 1e-6))
        << "planned energy " << res.plan.total_energy(inst.depot, inst.uav)
        << " exceeds capacity " << inst.uav.energy_j;
    for (const auto& stop : res.plan.stops) {
        EXPECT_GE(stop.dwell_s, 0.0);
    }
    const auto ev = evaluate_plan(inst, res.plan);
    EXPECT_TRUE(ev.energy_feasible);
    // The planner's claimed volume must not exceed reality (evaluation can
    // only find MORE data than planned, via overlap bonuses).
    EXPECT_GE(ev.collected_mb, res.stats.planned_mb - 1e-6)
        << "planner overstated collection";
    EXPECT_LE(ev.collected_mb, inst.total_data_mb() + 1e-6);
    EXPECT_GE(res.stats.runtime_s, 0.0);
}

Algorithm1Config small_alg1() {
    Algorithm1Config cfg;
    cfg.candidates.delta_m = 20.0;
    cfg.grasp.iterations = 6;
    return cfg;
}

TEST(Algorithm1, FeasibleOnRandomInstances) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto inst = small_instance(30, 300.0, seed);
        GridOrienteeringPlanner planner(small_alg1());
        const auto res = planner.plan(inst);
        check_plan(inst, res);
        EXPECT_GT(res.plan.num_stops(), 0u);
        EXPECT_GT(res.stats.planned_mb, 0.0);
    }
}

TEST(Algorithm1, AuxiliaryGraphIsMetric) {
    // Lemma 1: w2 satisfies the triangle inequality.
    const auto inst = small_instance(20, 200.0, 4);
    HoverCandidateConfig ccfg;
    ccfg.delta_m = 25.0;
    const auto cands = build_hover_candidates(inst, ccfg);
    const auto problem =
        GridOrienteeringPlanner::build_auxiliary_problem(inst, cands);
    EXPECT_LE(problem.graph.max_triangle_violation(), 1e-9);
}

TEST(Algorithm1, AuxiliaryEdgeWeightsMatchEq9) {
    const auto inst = manual_instance(
        {{{60.0, 0.0}, 300.0}, {{0.0, 60.0}, 600.0}});
    HoverCandidateConfig ccfg;
    ccfg.delta_m = 40.0;
    const auto cands = build_hover_candidates(inst, ccfg);
    const auto p =
        GridOrienteeringPlanner::build_auxiliary_problem(inst, cands);
    ASSERT_EQ(p.size(), cands.size() + 1);
    // Check every edge against a direct Eq. 9 computation.
    for (std::size_t i = 1; i < p.size(); ++i) {
        const auto& ci = cands.candidates[i - 1];
        // Depot edge: w1(depot) = 0.
        const double want_depot =
            ci.hover_energy_j / 2.0 +
            inst.uav.travel_energy(geom::distance(inst.depot, ci.pos));
        EXPECT_NEAR(p.graph.weight(0, i), want_depot, 1e-9);
        for (std::size_t j = i + 1; j < p.size(); ++j) {
            const auto& cj = cands.candidates[j - 1];
            const double want =
                (ci.hover_energy_j + cj.hover_energy_j) / 2.0 +
                inst.uav.travel_energy(geom::distance(ci.pos, cj.pos));
            EXPECT_NEAR(p.graph.weight(i, j), want, 1e-9);
        }
    }
    EXPECT_DOUBLE_EQ(p.budget, inst.uav.energy_j);
    EXPECT_DOUBLE_EQ(p.prizes[0], 0.0);
}

TEST(Algorithm1, ExactSolverOnTinyInstance) {
    const auto inst = manual_instance(
        {{{50.0, 50.0}, 300.0}, {{150.0, 50.0}, 600.0}}, 200.0);
    Algorithm1Config cfg;
    cfg.candidates.delta_m = 50.0;
    cfg.solver = orienteering::SolverKind::kExact;
    GridOrienteeringPlanner planner(cfg);
    const auto res = planner.plan(inst);
    check_plan(inst, res);
    // Plenty of energy: everything collected.
    const auto ev = evaluate_plan(inst, res.plan);
    EXPECT_NEAR(ev.collected_mb, 900.0, 1e-6);
}

TEST(Algorithm1, EmptyInstanceYieldsEmptyPlan) {
    model::Instance inst;
    inst.region = geom::Aabb::of_size(100.0, 100.0);
    inst.depot = {0.0, 0.0};
    GridOrienteeringPlanner planner(small_alg1());
    const auto res = planner.plan(inst);
    EXPECT_TRUE(res.plan.empty());
    EXPECT_DOUBLE_EQ(res.stats.planned_mb, 0.0);
}

TEST(Algorithm1, NameIncludesSolver) {
    EXPECT_EQ(GridOrienteeringPlanner(small_alg1()).name(), "alg1-grasp");
    Algorithm1Config cfg = small_alg1();
    cfg.solver = orienteering::SolverKind::kGreedy;
    EXPECT_EQ(GridOrienteeringPlanner(cfg).name(), "alg1-greedy");
}

Algorithm2Config small_alg2() {
    Algorithm2Config cfg;
    cfg.candidates.delta_m = 20.0;
    return cfg;
}

TEST(Algorithm2, FeasibleOnRandomInstances) {
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        const auto inst = small_instance(30, 300.0, seed);
        GreedyCoveragePlanner planner(small_alg2());
        const auto res = planner.plan(inst);
        check_plan(inst, res);
        EXPECT_GT(res.plan.num_stops(), 0u);
    }
}

TEST(Algorithm2, FullCollectionDwellSufficesForClaimedDevices) {
    // Every device is fully collected somewhere: evaluation must match the
    // planner's claim exactly for the devices it counted.
    const auto inst = small_instance(25, 250.0, 8);
    GreedyCoveragePlanner planner(small_alg2());
    const auto res = planner.plan(inst);
    const auto ev = evaluate_plan(inst, res.plan);
    EXPECT_NEAR(ev.collected_mb, res.stats.planned_mb, 1e-6)
        << "full-collection planner should collect exactly what it claims";
}

TEST(Algorithm2, ExactRatioTspModeWorksOnTinyInstance) {
    // The paper's literal Eq. 13 rule (a Christofides re-tour per candidate
    // per round) lives in the test oracle only.
    const auto inst = small_instance(12, 200.0, 9, 4.0e4);
    const Algorithm2Config cfg = small_alg2();
    const auto ctx = PlanningContext::build(inst, cfg.candidates);
    const testing::greedy_oracle::GreedyCoverageOracle oracle(
        cfg, /*exact_ratio_tsp=*/true);
    const auto res = oracle.plan(*ctx);
    check_plan(inst, res);
    EXPECT_GT(res.plan.num_stops(), 0u);
}

TEST(Algorithm2, MoreEnergyNeverCollectsLess) {
    const auto base = small_instance(30, 300.0, 10, 3.0e4);
    GreedyCoveragePlanner planner(small_alg2());
    double prev = -1.0;
    for (double e : {3.0e4, 6.0e4, 1.2e5}) {
        auto inst = base;
        inst.uav.energy_j = e;
        const auto res = planner.plan(inst);
        const auto ev = evaluate_plan(inst, res.plan);
        EXPECT_GE(ev.collected_mb, prev - 1e-6) << "energy " << e;
        prev = ev.collected_mb;
    }
}

TEST(Algorithm2, TinyBudgetMayYieldEmptyPlan) {
    auto inst = small_instance(10, 400.0, 11);
    inst.uav.energy_j = 1.0;  // cannot even fly anywhere
    GreedyCoveragePlanner planner(small_alg2());
    const auto res = planner.plan(inst);
    EXPECT_TRUE(res.plan.empty());
    EXPECT_DOUBLE_EQ(res.stats.planned_mb, 0.0);
}

Algorithm3Config small_alg3(int k) {
    Algorithm3Config cfg;
    cfg.candidates.delta_m = 20.0;
    cfg.k = k;
    return cfg;
}

TEST(Algorithm3, FeasibleOnRandomInstances) {
    for (std::uint64_t seed : {12u, 13u}) {
        const auto inst = small_instance(30, 300.0, seed);
        for (int k : {1, 2, 4}) {
            PartialCollectionPlanner planner(small_alg3(k));
            const auto res = planner.plan(inst);
            check_plan(inst, res);
        }
    }
}

TEST(Algorithm3, PlannedVolumeMatchesEvaluationExactly) {
    // Alg 3's residual bookkeeping mirrors execution semantics 1:1.
    const auto inst = small_instance(25, 250.0, 14);
    PartialCollectionPlanner planner(small_alg3(3));
    const auto res = planner.plan(inst);
    const auto ev = evaluate_plan(inst, res.plan);
    EXPECT_NEAR(ev.collected_mb, res.stats.planned_mb, 1e-6);
}

TEST(Algorithm3, K1AtLeastAsGoodAsAlgorithm2) {
    // DCM is the K = 1 special case of PDCM; the residual-aware planner
    // never collects less than Algorithm 2 on the same instance.
    for (std::uint64_t seed : {15u, 16u, 17u}) {
        const auto inst = small_instance(30, 300.0, seed);
        GreedyCoveragePlanner alg2(small_alg2());
        PartialCollectionPlanner alg3(small_alg3(1));
        const double v2 =
            evaluate_plan(inst, alg2.plan(inst).plan).collected_mb;
        const double v3 =
            evaluate_plan(inst, alg3.plan(inst).plan).collected_mb;
        EXPECT_GE(v3, v2 - 1e-6) << "seed " << seed;
    }
}

TEST(Algorithm3, LargerKNotWorseOnAverage) {
    // Paper (Fig. 4a): larger K collects more. Check the aggregate over
    // several seeds rather than every instance (greedy heuristics may lose
    // on an individual draw).
    double v_k1 = 0.0, v_k4 = 0.0;
    for (std::uint64_t seed : {18u, 19u, 20u, 21u, 22u}) {
        const auto inst = small_instance(30, 300.0, seed, 4.0e4);
        v_k1 += evaluate_plan(
                    inst, PartialCollectionPlanner(small_alg3(1)).plan(inst)
                              .plan)
                    .collected_mb;
        v_k4 += evaluate_plan(
                    inst, PartialCollectionPlanner(small_alg3(4)).plan(inst)
                              .plan)
                    .collected_mb;
    }
    EXPECT_GE(v_k4, 0.97 * v_k1);
}

TEST(Algorithm3, InvalidKThrows) {
    PartialCollectionPlanner planner(small_alg3(0));
    EXPECT_THROW(planner.plan(small_instance(5)), util::ContractViolation);
}

TEST(Algorithm3, NameEncodesK) {
    EXPECT_EQ(PartialCollectionPlanner(small_alg3(4)).name(), "alg3-k4");
}

TEST(BenchmarkPlanner, FeasibleOnRandomInstances) {
    for (std::uint64_t seed : {23u, 24u, 25u}) {
        const auto inst = small_instance(30, 300.0, seed);
        PruneTspPlanner planner;
        const auto res = planner.plan(inst);
        check_plan(inst, res);
    }
}

TEST(BenchmarkPlanner, KeepsEverythingWhenEnergyAbounds) {
    const auto inst = small_instance(15, 200.0, 26, 1.0e7);
    PruneTspPlanner planner;
    const auto res = planner.plan(inst);
    EXPECT_EQ(res.plan.num_stops(), inst.num_devices());
    EXPECT_EQ(res.stats.iterations, 0);  // nothing pruned
    const auto ev = evaluate_plan(inst, res.plan);
    EXPECT_NEAR(ev.collected_mb, inst.total_data_mb(), 1e-6);
}

TEST(BenchmarkPlanner, PrunesUnderTightBudget) {
    auto inst = small_instance(30, 300.0, 27);
    inst.uav.energy_j = 2.0e4;
    PruneTspPlanner planner;
    const auto res = planner.plan(inst);
    check_plan(inst, res);
    EXPECT_LT(res.plan.num_stops(), inst.num_devices());
    EXPECT_GT(res.stats.iterations, 0);
}

TEST(BenchmarkPlanner, EmptyInstance) {
    model::Instance inst;
    inst.region = geom::Aabb::of_size(10.0, 10.0);
    inst.depot = {0.0, 0.0};
    PruneTspPlanner planner;
    const auto res = planner.plan(inst);
    EXPECT_TRUE(res.plan.empty());
}

TEST(Planners, PaperOrderingHoldsOnAverage) {
    // Headline shape: Alg 2 and Alg 3 beat the benchmark; Alg 3 (K=2) is at
    // least on par with Alg 2 (aggregate over seeds).
    double bench = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::uint64_t seed : {30u, 31u, 32u, 33u}) {
        // Budget tight enough that no planner can collect everything.
        const auto inst = small_instance(40, 350.0, seed, 1.5e4);
        bench +=
            evaluate_plan(inst, PruneTspPlanner().plan(inst).plan)
                .collected_mb;
        a2 += evaluate_plan(
                  inst, GreedyCoveragePlanner(small_alg2()).plan(inst).plan)
                  .collected_mb;
        a3 += evaluate_plan(
                  inst,
                  PartialCollectionPlanner(small_alg3(2)).plan(inst).plan)
                  .collected_mb;
    }
    EXPECT_GT(a2, bench);
    EXPECT_GT(a3, bench);
    EXPECT_GE(a3, 0.95 * a2);
}

}  // namespace
}  // namespace uavdc::core
