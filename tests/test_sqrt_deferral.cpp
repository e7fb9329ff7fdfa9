// Squared-distance deferral equivalence suite. The planner hot paths run a
// bound-then-verify scan: squared-distance lower bounds prune, and only the
// surviving edges pay the exact sqrt forms. These tests pin the contract
// that the pruning is invisible — a 100-seed bitwise fuzz of pruned
// (served) vs oracle plans across alg2/alg3/benchmark and every retour
// cadence, plus direct boundary tests at the shapes the slacked
// bound has to get exactly right: equal-delta ties, zero thresholds,
// degenerate zero-length edges from duplicate stops, and points at the
// exact coverage radius.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "greedy_oracle.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/geom/spatial_hash.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc {
namespace {

using core::Algorithm2Config;
using core::Algorithm3Config;
using core::BenchmarkPlannerConfig;
using core::GreedyCoveragePlanner;
using core::PartialCollectionPlanner;
using core::PlanningContext;
using core::PlanResult;
using core::PruneTspPlanner;
using core::TourBuilder;
using testing::greedy_oracle::GreedyCoverageOracle;
using testing::greedy_oracle::PartialCollectionOracle;
using testing::greedy_oracle::PruneTspOracle;

// Exact (bitwise) plan comparison — no tolerances anywhere.
void expect_identical(const PlanResult& a, const PlanResult& b,
                      const std::string& what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(a.plan.stops.size(), b.plan.stops.size());
    for (std::size_t i = 0; i < a.plan.stops.size(); ++i) {
        EXPECT_EQ(a.plan.stops[i].pos.x, b.plan.stops[i].pos.x) << "stop " << i;
        EXPECT_EQ(a.plan.stops[i].pos.y, b.plan.stops[i].pos.y) << "stop " << i;
        EXPECT_EQ(a.plan.stops[i].dwell_s, b.plan.stops[i].dwell_s)
            << "stop " << i;
        EXPECT_EQ(a.plan.stops[i].cell_id, b.plan.stops[i].cell_id)
            << "stop " << i;
    }
    EXPECT_EQ(a.stats.planned_mb, b.stats.planned_mb);
    EXPECT_EQ(a.stats.planned_energy_j, b.stats.planned_energy_j);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

model::Instance fuzz_instance(util::Rng& rng) {
    constexpr workload::Deployment kDeployments[] = {
        workload::Deployment::kUniform, workload::Deployment::kClustered,
        workload::Deployment::kGridJitter, workload::Deployment::kRing};
    workload::GeneratorConfig g;
    g.num_devices = static_cast<int>(rng.uniform_int(5, 32));
    g.region_w = rng.uniform(150.0, 450.0);
    g.region_h = rng.uniform(150.0, 450.0);
    g.deployment =
        kDeployments[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    g.min_mb = rng.uniform(20.0, 120.0);
    g.max_mb = g.min_mb + rng.uniform(50.0, 600.0);
    g.uav.energy_j = rng.uniform(2.0e4, 1.0e5);
    return workload::generate(g, rng.next_u64());
}

core::HoverCandidateConfig hover_cfg(const model::Instance& inst) {
    core::HoverCandidateConfig c;
    c.delta_m = std::max(
        10.0, std::max(inst.region.width(), inst.region.height()) / 12.0);
    return c;
}

// ---------------------------------------------------------------------------
// 100-seed planner fuzz: pruned (served) plans are bit-identical to the
// oracle across alg2 / alg3 / benchmark and retour {0, 1, 3, 8}.
// ---------------------------------------------------------------------------

TEST(SqrtDeferralFuzz, HundredSeedsPrunedMatchesReference) {
    constexpr int kRetours[] = {0, 1, 3, 8};
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        util::Rng rng(seed * 7919 + 13);
        const auto inst = fuzz_instance(rng);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        const int retour = kRetours[seed % 4];
        PlanResult by_engine[2];  // oracle, served
        std::string algo;
        switch (seed % 3) {
            case 0: {
                Algorithm2Config cfg;
                cfg.candidates = hover_cfg(inst);
                cfg.retour_every = retour;
                by_engine[0] = GreedyCoverageOracle(cfg).plan(*ctx);
                by_engine[1] = GreedyCoveragePlanner(cfg).plan(*ctx);
                algo = "alg2";
                break;
            }
            case 1: {
                Algorithm3Config cfg;
                cfg.candidates = hover_cfg(inst);
                cfg.k = 1 + static_cast<int>(seed % 4);
                cfg.retour_every = retour;
                by_engine[0] = PartialCollectionOracle(cfg).plan(*ctx);
                by_engine[1] = PartialCollectionPlanner(cfg).plan(*ctx);
                algo = "alg3";
                break;
            }
            default: {
                const BenchmarkPlannerConfig cfg;
                by_engine[0] = PruneTspOracle(cfg).plan(*ctx);
                by_engine[1] = PruneTspPlanner(cfg).plan(*ctx);
                algo = "benchmark";
                break;
            }
        }
        expect_identical(by_engine[0], by_engine[1],
                         algo + " seed " + std::to_string(seed) + " retour " +
                             std::to_string(retour));
        if (::testing::Test::HasFailure()) break;
    }
}

// ---------------------------------------------------------------------------
// TourBuilder boundary shapes: the pruned scan must agree with a brute-force
// exact oracle at ties, zero thresholds, and zero-length edges.
// ---------------------------------------------------------------------------

/// Brute-force exact cheapest insertion from the oracle forms only —
/// geom::distance per edge endpoint, fresh edge_lengths(), strict-< argmin
/// (equal deltas keep the smaller position).
TourBuilder::Insertion oracle_cheapest(const TourBuilder& t,
                                       const geom::Vec2& p) {
    const auto& stops = t.stops();
    const auto len = t.edge_lengths();
    TourBuilder::Insertion best{0, 0.0};
    if (stops.empty()) {
        best.delta_m =
            geom::distance(t.depot(), p) + geom::distance(p, t.depot());
        return best;
    }
    bool first = true;
    for (std::size_t e = 0; e <= stops.size(); ++e) {
        const geom::Vec2& a = e == 0 ? t.depot() : stops[e - 1];
        const geom::Vec2& b = e == stops.size() ? t.depot() : stops[e];
        const double delta =
            geom::distance(a, p) + geom::distance(p, b) - len[e];
        if (first || delta < best.delta_m) {
            best = {e, delta};
            first = false;
        }
    }
    return best;
}

TEST(SqrtDeferralBoundary, ExactTiesResolveToSmallerPosition) {
    // Square tour around the depot: symmetric probes tie on multiple edges.
    TourBuilder t({0.0, 0.0});
    t.insert({100.0, 0.0}, 0, t.cheapest_insertion({100.0, 0.0}));
    t.insert({100.0, 100.0}, 1, t.cheapest_insertion({100.0, 100.0}));
    t.insert({0.0, 100.0}, 2, t.cheapest_insertion({0.0, 100.0}));
    const geom::Vec2 probes[] = {
        {50.0, 50.0},    // centre: every edge ties by symmetry
        {50.0, 0.0},     // on edge 0: delta exactly 0 there
        {100.0, 50.0},   // on edge 1
        {0.0, 50.0},     // on the closing edge
        {50.0, 100.0},   // on edge 2
    };
    for (const auto& p : probes) {
        const auto got = t.cheapest_insertion(p);
        const auto want = oracle_cheapest(t, p);
        EXPECT_EQ(got.position, want.position) << "probe " << p.x << "," << p.y;
        EXPECT_EQ(got.delta_m, want.delta_m) << "probe " << p.x << "," << p.y;
    }
    // On-edge probes have delta exactly 0 — the zero-threshold case where
    // the squared bound must not prune the tying edges away.
    EXPECT_EQ(t.cheapest_insertion({50.0, 0.0}).delta_m, 0.0);
    // The runner-up scan prunes against `second`, never against `best`;
    // with a tie it must surface the other zero-delta edge, not skip it.
    const auto two = t.cheapest_insertion2({50.0, 50.0});
    ASSERT_TRUE(two.has_second);
    EXPECT_EQ(two.best.delta_m, two.second.delta_m);
    EXPECT_LT(two.best.position, two.second.position);
}

TEST(SqrtDeferralBoundary, ZeroLengthEdgesFromDuplicateStops) {
    TourBuilder t({0.0, 0.0});
    const geom::Vec2 dup{30.0, 40.0};
    t.insert(dup, 0, t.cheapest_insertion(dup));
    // Re-inserting the identical point creates a zero-length edge; its
    // cheapest insertion delta is exactly 0 on both adjacent edges.
    const auto again = t.cheapest_insertion(dup);
    EXPECT_EQ(again.delta_m, 0.0);
    t.insert(dup, 1, again);
    ASSERT_EQ(t.size(), 2u);
    // The maintained mirrors agree with their oracles bit-for-bit even with
    // the degenerate edge present.
    const auto len = t.edge_lengths();
    const auto len2 = t.edge_lengths2();
    for (std::size_t e = 0; e < len.size(); ++e) {
        EXPECT_EQ(t.edge_len()[e], len[e]) << "edge " << e;
        EXPECT_EQ(t.edge_len2()[e], len2[e]) << "edge " << e;
    }
    // Probing the duplicate point again: every adjacent delta is 0 and the
    // prune threshold is 0 — the thr > 0 guard must disable pruning so the
    // scan still resolves the tie exactly like the oracle.
    const auto got = t.cheapest_insertion(dup);
    const auto want = oracle_cheapest(t, dup);
    EXPECT_EQ(got.position, want.position);
    EXPECT_EQ(got.delta_m, want.delta_m);
    EXPECT_EQ(got.delta_m, 0.0);
    // A probe at the depot itself: d_depot is 0, edge deltas collapse to
    // 2 * d(stop, p) - len terms; still oracle-identical.
    const auto at_depot = t.cheapest_insertion({0.0, 0.0});
    const auto at_depot_want = oracle_cheapest(t, {0.0, 0.0});
    EXPECT_EQ(at_depot.position, at_depot_want.position);
    EXPECT_EQ(at_depot.delta_m, at_depot_want.delta_m);
    // Removing one duplicate shortcuts a zero-length edge plus the closing
    // leg into one identical closing leg — delta exactly 0 (the
    // removal_delta DCHECK cross-checks edge_len_ against a fresh
    // recomputation in debug builds).
    EXPECT_EQ(t.removal_delta(1), 0.0);
    t.remove(1);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.edge_len()[0], t.edge_lengths()[0]);
    EXPECT_EQ(t.edge_len2()[0], t.edge_lengths2()[0]);
}

TEST(SqrtDeferralBoundary, RandomScansMatchOracleBitwise) {
    // Random tours + random probes: the pruned scan must reproduce the
    // oracle argmin and delta bit-for-bit, including re-probing existing
    // stops (zero-length candidates) every few steps.
    util::Rng rng(4242);
    for (int trial = 0; trial < 20; ++trial) {
        TourBuilder t({rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
        std::vector<geom::Vec2> placed;
        for (int i = 0; i < 40; ++i) {
            geom::Vec2 p{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
            if (!placed.empty() && i % 7 == 0) {
                p = placed[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(placed.size()) - 1))];
            }
            const auto got = t.cheapest_insertion(p);
            const auto want = oracle_cheapest(t, p);
            ASSERT_EQ(got.position, want.position)
                << "trial " << trial << " step " << i;
            ASSERT_EQ(got.delta_m, want.delta_m)
                << "trial " << trial << " step " << i;
            t.insert(p, i, got);
            placed.push_back(p);
        }
    }
}

// ---------------------------------------------------------------------------
// Exact coverage radius: squared-space disk tests stay inclusive at d == r.
// ---------------------------------------------------------------------------

TEST(SqrtDeferralBoundary, DiskQueryIncludesPointAtExactRadius) {
    // (3, 4, 5) triple: the squared compare d2 <= r*r sees exactly 25 <= 25.
    const std::vector<geom::Vec2> pts = {
        {3.0, 4.0}, {5.0, 0.0}, {0.0, -5.0}, {3.1, 4.1}};
    const geom::SpatialHash hash(pts, 2.5);
    std::vector<std::size_t> hit;
    hash.for_each_in_disk({0.0, 0.0}, 5.0,
                          [&](std::size_t i) { hit.push_back(i); });
    std::sort(hit.begin(), hit.end());
    // The three points at exactly r = 5 are included; (3.1, 4.1) is not.
    EXPECT_EQ(hit, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace uavdc
