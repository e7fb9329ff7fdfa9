#include "uavdc/sim/adaptive.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/evaluate.hpp"

namespace uavdc::sim {
namespace {

using testing::manual_instance;
using testing::small_instance;

model::FlightPlan plan_for(const model::Instance& inst) {
    core::Algorithm2Config cfg;
    cfg.candidates.delta_m = 20.0;
    return core::GreedyCoveragePlanner(cfg).plan(inst).plan;
}

TEST(Adaptive, MatchesPlanUnderConstantRadio) {
    for (std::uint64_t seed : {91u, 92u}) {
        const auto inst = small_instance(30, 300.0, seed);
        const auto plan = plan_for(inst);
        const auto ev = core::evaluate_plan(inst, plan);
        const auto rep = fly_adaptive(inst, plan);
        EXPECT_TRUE(rep.completed);
        EXPECT_GE(rep.collected_mb, ev.collected_mb - 1e-6) << seed;
        EXPECT_LE(rep.energy_used_j, inst.uav.energy_j + 1e-6) << seed;
    }
}

TEST(Adaptive, BeatsOpenLoopUnderTaperedRadio) {
    // Under a real-world rate taper the open-loop plan under-collects;
    // the adaptive controller recovers part of the shortfall by extending
    // dwells funded by its route-home reserve accounting.
    const DistanceTaperRadio taper(0.5);
    double open_total = 0.0;
    double adaptive_total = 0.0;
    for (std::uint64_t seed : {93u, 94u, 95u}) {
        const auto inst = small_instance(30, 300.0, seed);
        const auto plan = plan_for(inst);
        SimConfig scfg;
        scfg.record_trace = false;
        scfg.radio = &taper;
        open_total += Simulator(scfg).run(inst, plan).collected_mb;
        AdaptiveConfig acfg;
        acfg.radio = &taper;
        const auto rep = fly_adaptive(inst, plan, acfg);
        EXPECT_TRUE(rep.completed);
        EXPECT_LE(rep.energy_used_j, inst.uav.energy_j + 1e-6);
        adaptive_total += rep.collected_mb;
    }
    EXPECT_GT(adaptive_total, open_total);
}

TEST(Adaptive, NeverExceedsBattery) {
    const DistanceTaperRadio taper(0.75);
    for (std::uint64_t seed : {96u, 97u}) {
        auto inst = small_instance(25, 280.0, seed);
        inst.uav.energy_j = 4.0e4;
        const auto plan = plan_for(inst);
        AdaptiveConfig acfg;
        acfg.radio = &taper;
        const auto rep = fly_adaptive(inst, plan, acfg);
        EXPECT_LE(rep.energy_used_j, inst.uav.energy_j + 1e-6);
        EXPECT_TRUE(rep.completed);
    }
}

TEST(Adaptive, ExtendsDwellForSlowDevice) {
    // Device at 40 m: taper rate = 150 * (1 - 0.5 * 0.64) = 102 MB/s.
    // Planned dwell assumes 150 MB/s (2 s for 300 MB); actual need is
    // 2.94 s. Open loop collects 204 MB, the controller everything.
    const auto inst = manual_instance({{{90.0, 50.0}, 300.0}});
    model::FlightPlan plan;
    plan.stops.push_back({{50.0, 50.0}, 2.0, -1});
    const DistanceTaperRadio taper(0.5);
    AdaptiveConfig acfg;
    acfg.radio = &taper;
    const auto rep = fly_adaptive(inst, plan, acfg);
    EXPECT_NEAR(rep.collected_mb, 300.0, 1e-6);
    EXPECT_GT(rep.hover_s, 2.0);
}

TEST(Adaptive, ImpossibleRouteReported) {
    auto inst = manual_instance({{{200.0, 0.0}, 100.0}}, 300.0);
    inst.uav.energy_j = 100.0;  // 1 m of flight
    model::FlightPlan plan;
    plan.stops.push_back({{200.0, 0.0}, 1.0, -1});
    const auto rep = fly_adaptive(inst, plan);
    EXPECT_TRUE(rep.battery_depleted);
    EXPECT_FALSE(rep.completed);
    EXPECT_DOUBLE_EQ(rep.collected_mb, 0.0);
}

TEST(Adaptive, EmptyPlanNoop) {
    const auto inst = manual_instance({{{50.0, 50.0}, 100.0}});
    const auto rep = fly_adaptive(inst, {});
    EXPECT_TRUE(rep.completed);
    EXPECT_DOUBLE_EQ(rep.collected_mb, 0.0);
    EXPECT_DOUBLE_EQ(rep.energy_used_j, 0.0);
}

}  // namespace
}  // namespace uavdc::sim
