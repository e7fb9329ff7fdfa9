#include "uavdc/core/planning_context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "test_util.hpp"
#include "uavdc/core/compare.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/registry.hpp"

namespace uavdc::core {
namespace {

bool plans_equal(const model::FlightPlan& a, const model::FlightPlan& b) {
    if (a.stops.size() != b.stops.size()) return false;
    for (std::size_t i = 0; i < a.stops.size(); ++i) {
        if (a.stops[i].pos.x != b.stops[i].pos.x) return false;
        if (a.stops[i].pos.y != b.stops[i].pos.y) return false;
        if (a.stops[i].dwell_s != b.stops[i].dwell_s) return false;
        if (a.stops[i].cell_id != b.stops[i].cell_id) return false;
    }
    return true;
}

bool candidate_sets_equal(const HoverCandidateSet& a,
                          const HoverCandidateSet& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        const auto& ca = a.candidates[i];
        const auto& cb = b.candidates[i];
        if (ca.cell_id != cb.cell_id ||
            !std::ranges::equal(a.covered(i), b.covered(i))) {
            return false;
        }
        if (ca.pos.x != cb.pos.x || ca.pos.y != cb.pos.y) return false;
        if (ca.award_mb != cb.award_mb || ca.dwell_s != cb.dwell_s)
            return false;
    }
    return true;
}

TEST(PlanningContext, LazyCandidateBuild) {
    const auto inst = testing::small_instance(20, 220.0, 11);
    const PlanningContext ctx(inst);
    EXPECT_FALSE(ctx.candidates_built());
    const auto& cands = ctx.candidates();
    EXPECT_TRUE(ctx.candidates_built());
    EXPECT_GT(cands.size(), 0u);
    // Identical to calling the free builder directly.
    EXPECT_TRUE(candidate_sets_equal(
        cands, build_hover_candidates(inst, ctx.candidate_config())));
}

TEST(PlanningContext, RefusedCandidateBuildThrowsOnEveryCall) {
    const auto vast =
        uavdc::testing::manual_instance({{{5.0e6, 5.0e6}, 100.0}}, 1.0e7);
    const auto ctx = PlanningContext::build(vast);
    EXPECT_THROW((void)ctx->candidates(), std::invalid_argument);
    EXPECT_THROW((void)ctx->candidates(), std::invalid_argument);
    EXPECT_THROW((void)ctx->full_view(), std::invalid_argument);
    EXPECT_THROW((void)ctx->inverted_coverage(), std::invalid_argument);
    EXPECT_FALSE(ctx->candidates_built());
}

TEST(PlanningContext, CandidateBuildIsDeterministic) {
    const auto inst = testing::small_instance(60, 400.0, 12);
    const PlanningContext a(inst);
    const PlanningContext b(inst);
    EXPECT_TRUE(candidate_sets_equal(a.candidates(), b.candidates()));
}

TEST(PlanningContext, EnergyViewMatchesUavConfig) {
    const auto inst = testing::small_instance(10, 150.0, 13);
    const PlanningContext ctx(inst);
    const model::EnergyView& e = ctx.energy();
    EXPECT_DOUBLE_EQ(e.budget_j(), inst.uav.energy_j);
    EXPECT_DOUBLE_EQ(e.travel(123.0), inst.uav.travel_energy(123.0));
    EXPECT_DOUBLE_EQ(e.hover(4.5), inst.uav.hover_energy(4.5));
    EXPECT_DOUBLE_EQ(e.travel_time(250.0), inst.uav.travel_time(250.0));
    EXPECT_DOUBLE_EQ(e.tour_cost(100.0, 5.0),
                     inst.uav.travel_energy(100.0) +
                         inst.uav.hover_energy(5.0));
    EXPECT_TRUE(e.feasible(0.0, 0.0));
    EXPECT_FALSE(e.feasible(1e12, 0.0));
}

TEST(PlanningContext, NodeDistanceMatchesGeometry) {
    const auto inst = testing::small_instance(25, 240.0, 15);
    const PlanningContext ctx(inst);
    const auto& cands = ctx.candidates().candidates;
    ASSERT_GE(cands.size(), 2u);
    EXPECT_DOUBLE_EQ(ctx.node_distance(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(ctx.node_distance(0, 1),
                     geom::distance(inst.depot, cands[0].pos));
    EXPECT_DOUBLE_EQ(ctx.node_distance(1, 2),
                     geom::distance(cands[0].pos, cands[1].pos));
    // Symmetric even though rows are cached independently.
    EXPECT_DOUBLE_EQ(ctx.node_distance(2, 1), ctx.node_distance(1, 2));
}

TEST(PlanningContext, FingerprintSensitivity) {
    const auto inst = testing::small_instance(12, 180.0, 16);
    const auto base = PlanningContext::instance_fingerprint(inst);
    EXPECT_EQ(base, PlanningContext::instance_fingerprint(inst));

    auto perturbed = inst;
    perturbed.uav.energy_j *= 2.0;
    EXPECT_NE(base, PlanningContext::instance_fingerprint(perturbed));

    perturbed = inst;
    perturbed.devices[0].data_mb += 1.0;
    EXPECT_NE(base, PlanningContext::instance_fingerprint(perturbed));

    perturbed = inst;
    perturbed.devices[0].pos.x += 0.5;
    EXPECT_NE(base, PlanningContext::instance_fingerprint(perturbed));

    HoverCandidateConfig cfg;
    const auto cfg_base = PlanningContext::config_fingerprint(cfg);
    cfg.delta_m += 5.0;
    EXPECT_NE(cfg_base, PlanningContext::config_fingerprint(cfg));
    cfg = {};
    cfg.max_candidates += 1;
    EXPECT_NE(cfg_base, PlanningContext::config_fingerprint(cfg));
}

TEST(PlanningContext, ObtainMemoizesIdenticalRequests) {
    const auto inst = testing::small_instance(18, 210.0, 17);
    auto& cache = PlanningContextCache::global();
    cache.clear();
    const auto before = cache.stats();
    const auto a = PlanningContext::obtain(inst);
    const auto b = PlanningContext::obtain(inst);
    EXPECT_EQ(a.get(), b.get());
    const auto after = cache.stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);

    // A different candidate config is a different cache entry.
    HoverCandidateConfig coarse;
    coarse.delta_m = 25.0;
    const auto c = PlanningContext::obtain(inst, coarse);
    EXPECT_NE(a.get(), c.get());
}

TEST(PlanningContextCache, EvictsLeastRecentlyUsed) {
    PlanningContextCache cache(2);
    const auto i1 = testing::small_instance(8, 140.0, 21);
    const auto i2 = testing::small_instance(8, 140.0, 22);
    const auto i3 = testing::small_instance(8, 140.0, 23);
    const auto c1 = cache.obtain(i1, {});
    (void)cache.obtain(i2, {});
    EXPECT_EQ(cache.size(), 2u);
    // Touch i1 so i2 becomes the LRU entry, then insert i3.
    EXPECT_EQ(cache.obtain(i1, {}).get(), c1.get());
    (void)cache.obtain(i3, {});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    // i1 survived the eviction; i2 did not.
    EXPECT_EQ(cache.obtain(i1, {}).get(), c1.get());
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
}

// Acceptance: every registered planner produces the identical FlightPlan
// whether driven through the legacy Instance entry point or an explicitly
// shared PlanningContext.
TEST(PlanningContext, PlannersMatchLegacyInstancePath) {
    const auto inst = testing::small_instance(25, 280.0, 19);
    PlannerOptions opts;
    opts.delta_m = 20.0;
    opts.grasp_iterations = 3;
    const auto shared = PlanningContext::build(inst, opts.hover_config());
    for (const auto& name : planner_names()) {
        const auto via_instance = make_planner(name, opts)->plan(inst);
        const auto via_context = make_planner(name, opts)->plan(*shared);
        EXPECT_TRUE(plans_equal(via_instance.plan, via_context.plan))
            << name;
        EXPECT_DOUBLE_EQ(via_instance.stats.planned_mb,
                         via_context.stats.planned_mb)
            << name;
    }
}

// Acceptance: comparing all planners on one instance performs exactly one
// hover-candidate build — the context is shared across every planner.
TEST(PlanningContext, ComparePlannersBuildsCandidatesOnce) {
    const auto inst = testing::small_instance(25, 280.0, 20);
    PlannerOptions opts;
    opts.delta_m = 20.0;
    opts.grasp_iterations = 3;
    PlanningContextCache::global().clear();
    const auto builds_before = PlanningContext::total_candidate_builds();
    const auto results = compare_planners(inst, opts);
    EXPECT_EQ(results.size(), planner_names().size());
    EXPECT_EQ(PlanningContext::total_candidate_builds(), builds_before + 1);
}

}  // namespace
}  // namespace uavdc::core
