#include "uavdc/conformance/conformance.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"
#include "uavdc/model/energy_view.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/thread_pool.hpp"

namespace uavdc::conformance {
namespace {

using testing::manual_instance;
using testing::small_instance;

std::string describe(const ConformanceReport& rep) {
    std::string out;
    for (const auto& m : rep.mismatches) {
        out += "[" + to_string(m.check) + "] " + m.field + ": expected " +
               std::to_string(m.expected) + ", got " +
               std::to_string(m.actual) + " (" + m.detail + ")\n";
    }
    return out;
}

TEST(Conformance, FeasiblePlanAgreesAcrossLayers) {
    const auto inst = small_instance(25, 280.0, 21);
    for (const auto& name : core::planner_names()) {
        const auto res = core::make_planner(name)->plan(inst);
        const auto rep = check_conformance(inst, res.plan);
        EXPECT_TRUE(rep.ok()) << "planner " << name << ":\n"
                              << describe(rep);
        EXPECT_FALSE(rep.evaluation.truncated);
        EXPECT_TRUE(rep.simulation.completed);
    }
}

TEST(Conformance, InfeasiblePlanStillAgrees) {
    // Shrink the battery under a previously feasible plan: the simulator
    // aborts mid-tour and the evaluator must truncate to the same numbers.
    auto inst = small_instance(25, 280.0, 22);
    const auto res = core::make_planner("alg2")->plan(inst);
    inst.uav.energy_j *= 0.4;
    const auto rep = check_conformance(inst, res.plan);
    EXPECT_TRUE(rep.ok()) << describe(rep);
    EXPECT_TRUE(rep.simulation.battery_depleted);
    EXPECT_TRUE(rep.evaluation.truncated);
    EXPECT_FALSE(rep.validation.ok());  // validator flagged it too
}

TEST(Conformance, EnergyModelsTripleEqual) {
    const auto inst = small_instance(15, 220.0, 23);
    const auto res = core::make_planner("alg3")->plan(inst);
    const auto rep = check_conformance(inst, res.plan);
    for (const auto& m : rep.mismatches) {
        EXPECT_NE(m.check, ConformanceMismatch::Check::kEnergyModels)
            << describe(rep);
    }
    // And explicitly: the plan's breakdown equals the EnergyView reading.
    const model::EnergyView view(inst.uav);
    EXPECT_DOUBLE_EQ(res.plan.energy(inst.depot, inst.uav).total_j(),
                     view.tour_cost(res.plan.travel_length(inst.depot),
                                    res.plan.hover_time()));
}

TEST(Conformance, DetectsEvaluatorDriftWhenPlanMutated) {
    // Sanity-check the oracle itself: an instance whose device volumes are
    // changed after evaluation must produce mismatches (evaluate one
    // instance, simulate another).
    const auto inst = manual_instance({{{50.0, 50.0}, 300.0}});
    model::FlightPlan plan;
    plan.stops.push_back({{50.0, 50.0}, 2.0, -1});
    auto rep = check_conformance(inst, plan);
    ASSERT_TRUE(rep.ok()) << describe(rep);
    // Forge a mismatch by hand to exercise the reporting path.
    rep.mismatches.push_back(
        {ConformanceMismatch::Check::kEvaluatorVsSimulator, "collected_mb",
         1.0, 2.0, "forged"});
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(to_string(rep.mismatches.back().check),
              "evaluator-vs-simulator");
}

TEST(Conformance, EmptyPlanConforms) {
    const auto inst = manual_instance({{{50.0, 50.0}, 300.0}});
    const auto rep = check_conformance(inst, {});
    EXPECT_TRUE(rep.ok()) << describe(rep);
    EXPECT_DOUBLE_EQ(rep.evaluation.collected_mb, 0.0);
}

// Degenerate fields, each at an ample and a vanishing battery: every
// planner must emit a valid, conforming plan.
TEST(Conformance, DegenerateInstances) {
    using Devices = std::vector<std::pair<geom::Vec2, double>>;
    const double side = 200.0;
    const std::vector<std::pair<std::string, Devices>> fields = {
        {"no devices", {}},
        {"one device", {{{120.0, 80.0}, 300.0}}},
        {"30 coincident", Devices(30, {{100.0, 100.0}, 50.0})},
        {"on the depot", {{{0.0, 0.0}, 200.0}, {{0.0, 0.0}, 150.0}}},
        {"all 0 MB",
         {{{30.0, 40.0}, 0.0}, {{150.0, 60.0}, 0.0}, {{90.0, 170.0}, 0.0}}},
        {"near-duplicate corner pair",
         {{{side, side}, 250.0}, {{std::nextafter(side, 0.0), side}, 250.0}}},
    };
    for (const auto& [label, devices] : fields) {
        for (const double energy_j : {3e5, 1e-9}) {
            auto uav = workload::paper_uav();
            uav.energy_j = energy_j;
            const auto inst = manual_instance(devices, side, uav);
            for (const auto& name : core::planner_names()) {
                const auto res = core::make_planner(name)->plan(inst);
                const std::string where = label + " at " +
                                          std::to_string(energy_j) + " J, " +
                                          name;
                const auto val = core::validate_plan(inst, res.plan);
                EXPECT_TRUE(val.ok()) << where;
                const auto rep = check_conformance(inst, res.plan);
                EXPECT_TRUE(rep.ok()) << where << ":\n" << describe(rep);
            }
        }
    }
}

// The acceptance gate: >= 100 fuzzed instances x every registered planner,
// each plan cross-checked against the full instance and a battery-starved
// variant. Deterministic for the fixed seed.
TEST(Conformance, FuzzHundredInstancesAllPlanners) {
    ConformanceFuzzConfig cfg;
    cfg.instances = 100;
    cfg.seed = 20260806;
    const auto summary = fuzz_conformance(cfg);
    EXPECT_EQ(summary.instances, 100);
    const int planners = static_cast<int>(core::planner_names().size());
    EXPECT_EQ(summary.plans_checked, 100 * planners * 2);  // + stressed
    EXPECT_TRUE(summary.ok());
    for (const auto& f : summary.failures) {
        ADD_FAILURE() << "planner " << f.planner << " on seed "
                      << f.instance_seed
                      << (f.stressed ? " (stressed)" : "") << ": "
                      << f.mismatches.size() << " mismatches, first: "
                      << f.mismatches.front().field << " expected "
                      << f.mismatches.front().expected << " got "
                      << f.mismatches.front().actual;
    }
}

TEST(Conformance, FuzzIsDeterministic) {
    ConformanceFuzzConfig cfg;
    cfg.instances = 5;
    cfg.seed = 99;
    const auto a = fuzz_conformance(cfg);
    const auto b = fuzz_conformance(cfg);
    EXPECT_EQ(a.plans_checked, b.plans_checked);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Conformance, PooledFuzzPropagatesUnknownPlanner) {
    ConformanceFuzzConfig cfg;
    cfg.instances = 6;
    cfg.seed = 78;
    cfg.planners = {"no-such-planner", "alg2"};
    util::ThreadPool pool(4);
    cfg.pool = &pool;
    // Every instance task hits make_planner on the unknown name; the
    // fan-out must drain all sibling futures (which still write into the
    // frame's `results`) before rethrowing the first failure.
    EXPECT_THROW((void)fuzz_conformance(cfg), util::ContractViolation);
}

TEST(Conformance, PooledFuzzMatchesSerial) {
    ConformanceFuzzConfig cfg;
    cfg.instances = 8;
    cfg.seed = 77;
    cfg.planners = {"alg2", "benchmark"};
    const auto serial = fuzz_conformance(cfg);

    util::ThreadPool pool(4);
    cfg.pool = &pool;
    const auto pooled = fuzz_conformance(cfg);
    EXPECT_EQ(serial.instances, pooled.instances);
    EXPECT_EQ(serial.plans_checked, pooled.plans_checked);
    EXPECT_EQ(serial.mismatches, pooled.mismatches);
    ASSERT_EQ(serial.failures.size(), pooled.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
        EXPECT_EQ(serial.failures[i].instance_seed,
                  pooled.failures[i].instance_seed);
        EXPECT_EQ(serial.failures[i].planner, pooled.failures[i].planner);
        EXPECT_EQ(serial.failures[i].stressed, pooled.failures[i].stressed);
    }
}

}  // namespace
}  // namespace uavdc::conformance
