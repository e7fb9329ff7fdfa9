// Safety and determinism suite for the candidate-space reduction pipeline
// (core/candidate_reduction) and the correctness gaps scale-large exposed:
// reduction must never drop the last candidate covering any device, reduced
// planning must stay bit-identical across thread counts, the int32 CSR
// narrowing in build_candidate_soa must be guarded, conformance tolerances
// must be validated, and the service response cache must survive forged
// 128-bit key collisions without cross-replaying payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "greedy_oracle.hpp"
#include "test_util.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/conformance/conformance.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/service/plan_service.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc {
namespace {

using core::Algorithm2Config;
using core::Algorithm3Config;
using core::CandidateReductionConfig;
using core::GreedyCoveragePlanner;
using core::HoverCandidateConfig;
using core::HoverCandidateSet;
using core::PartialCollectionPlanner;
using core::PlanningContext;
using core::PlanResult;
using core::ReducedCandidates;
using util::ContractViolation;

/// Seeded conformance-style instance (same knobs fuzz_conformance turns).
model::Instance fuzz_instance(util::Rng& rng, int min_devices,
                              int max_devices) {
    constexpr workload::Deployment kDeployments[] = {
        workload::Deployment::kUniform,    workload::Deployment::kClustered,
        workload::Deployment::kGridJitter, workload::Deployment::kRing};
    workload::GeneratorConfig g;
    g.num_devices =
        static_cast<int>(rng.uniform_int(min_devices, max_devices));
    g.region_w = rng.uniform(150.0, 500.0);
    g.region_h = rng.uniform(150.0, 500.0);
    g.deployment =
        kDeployments[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    g.min_mb = rng.uniform(20.0, 150.0);
    g.max_mb = g.min_mb + rng.uniform(50.0, 800.0);
    g.uav.energy_j = rng.uniform(2.0e4, 1.2e5);
    return workload::generate(g, rng.next_u64());
}

HoverCandidateConfig hover_cfg(const model::Instance& inst) {
    HoverCandidateConfig c;
    c.delta_m = std::max(
        10.0, std::max(inst.region.width(), inst.region.height()) / 15.0);
    return c;
}

std::set<int> covered_devices(const HoverCandidateSet& set) {
    std::set<int> out;
    for (std::size_t j = 0; j < set.size(); ++j) {
        const auto cov = set.covered(j);
        out.insert(cov.begin(), cov.end());
    }
    return out;
}

// --- Coverage safety: no reduction stage may orphan a coverable device.

TEST(CandidateReduction, NeverDropsLastCovererOfAnyDevice) {
    util::Rng rng(20260809);
    const CandidateReductionConfig profiles[] = {
        [] { CandidateReductionConfig c; c.dominance = true; return c; }(),
        [] { CandidateReductionConfig c; c.coarsen_factor = 3; return c; }(),
        [] {
            CandidateReductionConfig c;
            c.coarsen_factor = 6;
            c.consolidate_to = 12;
            return c;
        }(),
        [] {
            CandidateReductionConfig c;
            c.dominance = true;
            c.coarsen_factor = 2;
            c.consolidate_to = 24;
            return c;
        }(),
    };
    for (int trial = 0; trial < 25; ++trial) {
        const auto inst = fuzz_instance(rng, 8, 60);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        const auto& full = ctx->candidates();
        const std::set<int> want = covered_devices(full);
        for (std::size_t p = 0; p < std::size(profiles); ++p) {
            const ReducedCandidates red = core::reduce_candidates(
                full, inst.devices.size(), profiles[p]);
            SCOPED_TRACE("trial " + std::to_string(trial) + " profile " +
                         std::to_string(p));
            EXPECT_EQ(covered_devices(red.set), want);
            EXPECT_LE(red.set.size(), full.size());
            EXPECT_EQ(red.stats.kept,
                      static_cast<int>(red.set.candidates.size()));
        }
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(CandidateReduction, SurvivorsAreExactOriginals) {
    util::Rng rng(17);
    const auto inst = fuzz_instance(rng, 20, 60);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    const auto& full = ctx->candidates();
    CandidateReductionConfig cfg;
    cfg.dominance = true;
    cfg.coarsen_factor = 2;
    const ReducedCandidates red =
        core::reduce_candidates(full, inst.devices.size(), cfg);
    ASSERT_EQ(red.original_index.size(), red.set.candidates.size());
    std::int32_t prev = -1;
    for (std::size_t i = 0; i < red.set.candidates.size(); ++i) {
        const std::int32_t oi = red.original_index[i];
        ASSERT_GE(oi, 0);
        ASSERT_LT(static_cast<std::size_t>(oi), full.size());
        EXPECT_GT(oi, prev) << "survivors must keep original order";
        prev = oi;
        const auto& a = red.set.candidates[i];
        const auto& b = full.candidates[static_cast<std::size_t>(oi)];
        EXPECT_EQ(a.pos.x, b.pos.x);
        EXPECT_EQ(a.pos.y, b.pos.y);
        EXPECT_EQ(a.cell_id, b.cell_id);
        EXPECT_EQ(a.award_mb, b.award_mb);
        EXPECT_EQ(a.dwell_s, b.dwell_s);
        EXPECT_TRUE(std::ranges::equal(
            red.set.covered(i), full.covered(static_cast<std::size_t>(oi))));
    }
}

// --- Context memo: one reduction per distinct config, stable addresses.

TEST(CandidateReduction, ContextMemoizesPerFingerprint) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    CandidateReductionConfig a;
    a.coarsen_factor = 2;
    CandidateReductionConfig b;
    b.coarsen_factor = 3;
    const ReducedCandidates* ra = &ctx->reduced_candidates(a);
    const ReducedCandidates* rb = &ctx->reduced_candidates(b);
    EXPECT_NE(ra, rb);
    EXPECT_EQ(ra, &ctx->reduced_candidates(a));
    EXPECT_EQ(rb, &ctx->reduced_candidates(b));
}

// --- Determinism: reduced planning is bit-identical serial vs pooled.

void expect_identical(const PlanResult& a, const PlanResult& b,
                      const std::string& what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(a.plan.stops.size(), b.plan.stops.size());
    for (std::size_t i = 0; i < a.plan.stops.size(); ++i) {
        EXPECT_EQ(a.plan.stops[i].pos.x, b.plan.stops[i].pos.x) << i;
        EXPECT_EQ(a.plan.stops[i].pos.y, b.plan.stops[i].pos.y) << i;
        EXPECT_EQ(a.plan.stops[i].dwell_s, b.plan.stops[i].dwell_s) << i;
        EXPECT_EQ(a.plan.stops[i].cell_id, b.plan.stops[i].cell_id) << i;
    }
    EXPECT_EQ(a.stats.planned_mb, b.stats.planned_mb);
    EXPECT_EQ(a.stats.planned_energy_j, b.stats.planned_energy_j);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

TEST(CandidateReduction, ReducedPlansBitIdenticalAcrossThreadCounts) {
    util::Rng rng(404);
    for (int trial = 0; trial < 12; ++trial) {
        const auto inst = fuzz_instance(rng, 10, 50);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        CandidateReductionConfig red;
        red.dominance = true;
        red.coarsen_factor = 2;
        red.refine_band_m = 4.0 * hover_cfg(inst).delta_m;

        Algorithm2Config a2;
        a2.candidates = hover_cfg(inst);
        a2.reduction = red;
        PlanResult alg2[2];
        Algorithm3Config a3;
        a3.candidates = hover_cfg(inst);
        a3.reduction = red;
        PlanResult alg3[2];
        int slot = 0;
        for (const int threshold : {0, 1}) {  // forced parallel / serial
            a2.parallel_threshold = threshold;
            a3.parallel_threshold = threshold;
            alg2[slot] = GreedyCoveragePlanner(a2).plan(*ctx);
            alg3[slot] = PartialCollectionPlanner(a3).plan(*ctx);
            ++slot;
        }
        const std::string tag = "trial " + std::to_string(trial);
        expect_identical(alg2[0], alg2[1], tag + " alg2 par vs serial");
        expect_identical(alg3[0], alg3[1], tag + " alg3 par vs serial");
        if (::testing::Test::HasFailure()) break;
    }
}

// --- Context memo: keyed on the stage fields by value, never on the band.

TEST(PlanningContext, ReductionMemoKeysOnStageFieldsOnly) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    CandidateReductionConfig base;
    base.dominance = true;
    base.coarsen_factor = 3;
    const ReducedCandidates* shared = &ctx->reduced_candidates(base);
    for (const double band : {10.0, 25.5, 80.0}) {
        CandidateReductionConfig c = base;
        c.refine_band_m = band;
        EXPECT_EQ(&ctx->reduced_candidates(c), shared) << band;
    }
    std::vector<CandidateReductionConfig> stages(3, base);
    stages[0].dominance = false;
    stages[1].coarsen_factor = 4;
    stages[2].consolidate_to = 12;
    std::set<const ReducedCandidates*> seen{shared};
    for (std::size_t i = 0; i < stages.size(); ++i) {
        EXPECT_TRUE(seen.insert(&ctx->reduced_candidates(stages[i])).second)
            << "stage variant " << i;
    }
}

TEST(PlanningContext, ReductionMemoIsSharedAcrossThreads) {
    const auto inst = testing::small_instance(40);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    std::vector<CandidateReductionConfig> cfgs(4);
    cfgs[0].coarsen_factor = 2;
    cfgs[1] = cfgs[0];
    cfgs[1].refine_band_m = 30.0;
    cfgs[2].dominance = true;
    cfgs[2].coarsen_factor = 3;
    cfgs[3] = cfgs[2];
    cfgs[3].refine_band_m = 55.0;
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<const ReducedCandidates*>> seen(
        kThreads, std::vector<const ReducedCandidates*>(cfgs.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 25; ++round) {
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const std::size_t c = (i + t) % cfgs.size();
                    const ReducedCandidates* r =
                        &ctx->reduced_candidates(cfgs[c]);
                    if (round == 0) seen[t][c] = r;
                    EXPECT_EQ(r, seen[t][c]);
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    EXPECT_EQ(seen[0][0], seen[0][1]);
    EXPECT_EQ(seen[0][2], seen[0][3]);
    EXPECT_NE(seen[0][0], seen[0][2]);
    const ReducedCandidates want = core::reduce_candidates(
        ctx->candidates(), inst.devices.size(), cfgs[2]);
    EXPECT_EQ(seen[0][2]->original_index, want.original_index);
}

// --- plan_over_candidates runs reduce -> refine -> fallback for both planners.

/// Calls `check(planner, tag)` on alg2 and alg3, each as the served planner
/// and as its bit-identical oracle (greedy_oracle.hpp).
template <class Check>
void for_each_planner(const HoverCandidateConfig& hover,
                      const CandidateReductionConfig& red, Check check) {
    Algorithm2Config a2;
    a2.candidates = hover;
    a2.reduction = red;
    Algorithm3Config a3;
    a3.candidates = hover;
    a3.reduction = red;
    GreedyCoveragePlanner alg2(a2);
    check(alg2, "alg2 served");
    PartialCollectionPlanner alg3(a3);
    check(alg3, "alg3 served");
    testing::greedy_oracle::GreedyCoverageOracle alg2_oracle(a2);
    check(alg2_oracle, "alg2 oracle");
    testing::greedy_oracle::PartialCollectionOracle alg3_oracle(a3);
    check(alg3_oracle, "alg3 oracle");
}

TEST(PlanDriver, ReductionOffPlansTheFullView) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    for_each_planner(hover_cfg(inst), {}, [&](auto& planner,
                                              const std::string& tag) {
        const PlanResult got = planner.plan(*ctx);
        expect_identical(got, planner.plan_view(*ctx, ctx->full_view()), tag);
        EXPECT_FALSE(got.plan.stops.empty()) << tag;
        EXPECT_EQ(got.stats.candidates,
                  static_cast<int>(ctx->candidates().size()));
    });
}

TEST(PlanDriver, RefineBandKeepsTheFullerPlanAndSumsIterations) {
    util::Rng rng(2718);
    int refined_runs = 0;
    for (int trial = 0; trial < 6; ++trial) {
        const auto inst = fuzz_instance(rng, 20, 60);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        CandidateReductionConfig red;
        red.coarsen_factor = 3;
        red.refine_band_m = 3.0 * hover_cfg(inst).delta_m;
        const ReducedCandidates& reduced = ctx->reduced_candidates(red);
        for_each_planner(hover_cfg(inst), red, [&](auto& planner,
                                                   const std::string& tag) {
            const PlanResult first = planner.plan_view(*ctx, reduced.view());
            if (first.plan.stops.empty()) return;  // the fallback's case
            std::vector<geom::Vec2> stops;
            for (const auto& st : first.plan.stops) stops.push_back(st.pos);
            const ReducedCandidates refined = core::refine_near_tour(
                ctx->candidates(), reduced, stops, inst.depot,
                red.refine_band_m, inst.devices.size());
            if (refined.set.size() <= reduced.set.size()) return;
            const PlanResult second =
                planner.plan_view(*ctx, refined.view());
            PlanResult want =
                second.stats.planned_mb > first.stats.planned_mb ? second
                                                                 : first;
            want.stats.iterations =
                first.stats.iterations + second.stats.iterations;
            expect_identical(planner.plan(*ctx), want,
                             "trial " + std::to_string(trial) + " " + tag);
            ++refined_runs;
        });
        if (::testing::Test::HasFailure()) break;
    }
    EXPECT_GT(refined_runs, 0);
}

TEST(PlanDriver, KeepsTheRunWithMoreVolume) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    CandidateReductionConfig red;
    red.coarsen_factor = 3;
    red.refine_band_m = 40.0;
    const geom::Vec2 stop = ctx->candidates().candidates.back().pos;
    for (const double second_mb : {5.0, 20.0}) {
        std::vector<std::size_t> sizes;
        const PlanResult out = core::plan_over_candidates(
            *ctx, red, [&](const core::CandidateView& view) {
                sizes.push_back(view.size());
                PlanResult r;
                const int run = static_cast<int>(sizes.size());
                r.plan.stops.push_back({stop, 1.0, run});
                r.stats.planned_mb = run == 1 ? 10.0 : second_mb;
                r.stats.iterations = run == 1 ? 3 : 4;
                return r;
            });
        ASSERT_EQ(sizes.size(), 2u);
        EXPECT_EQ(sizes[0], ctx->reduced_candidates(red).set.size());
        EXPECT_GT(sizes[1], sizes[0]);
        const bool second_wins = second_mb > 10.0;
        EXPECT_EQ(out.stats.planned_mb, second_wins ? second_mb : 10.0);
        EXPECT_EQ(out.plan.stops.at(0).cell_id, second_wins ? 2 : 1);
        EXPECT_EQ(out.stats.candidates,
                  static_cast<int>(sizes[second_wins ? 1 : 0]));
        EXPECT_EQ(out.stats.iterations, 7);
    }
}

TEST(PlanDriver, EmptyReducedPlanFallsBackToTheFullSet) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    CandidateReductionConfig red;
    red.coarsen_factor = 3;
    red.refine_band_m = 40.0;  // no incumbent tour, so no refine run
    std::vector<std::size_t> sizes;
    const PlanResult out = core::plan_over_candidates(
        *ctx, red, [&](const core::CandidateView& view) {
            sizes.push_back(view.size());
            PlanResult r;
            r.stats.iterations = 2;
            if (view.original_index.empty()) {  // the full set
                r.plan.stops.push_back({view.set->candidates[0].pos, 1.0, 0});
                r.stats.planned_mb = 1.0;
            }
            return r;
        });
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], ctx->reduced_candidates(red).set.size());
    EXPECT_EQ(sizes[1], ctx->candidates().size());
    EXPECT_EQ(out.plan.stops.size(), 1u);
    EXPECT_EQ(out.stats.iterations, 4);
    EXPECT_EQ(out.stats.candidates, static_cast<int>(sizes[1]));
}

/// One device on a cell centre near the depot, a second 90 m from it, and
/// a rich cluster far beyond the budget. Consolidating to one candidate
/// keeps a cluster member, and the coverage pass reinstates the near
/// device's highest-award coverer, the one that also covers the second
/// device, which lies beyond the budget; the full set keeps the near
/// device's own cell, which does not.
model::Instance stranded_instance() {
    std::vector<std::pair<geom::Vec2, double>> devices{{{15.0, 15.0}, 100.0},
                                                       {{105.0, 15.0}, 100.0}};
    for (int i = 0; i < 20; ++i) {
        devices.push_back({{1460.0 + 20.0 * (i % 5), 1470.0 + 20.0 * (i / 5)},
                           500.0});
    }
    model::UavConfig uav = workload::paper_uav();
    uav.energy_j = 6000.0;
    return testing::manual_instance(devices, 2000.0, uav);
}

TEST(PlanDriver, PlannersFallBackToTheFullSetWhenTheReducedPlanIsEmpty) {
    const auto inst = stranded_instance();
    HoverCandidateConfig hover;
    hover.delta_m = 10.0;
    const auto ctx = PlanningContext::build(inst, hover);
    CandidateReductionConfig red;
    red.consolidate_to = 1;
    const ReducedCandidates& reduced = ctx->reduced_candidates(red);
    for_each_planner(hover, red, [&](auto& planner, const std::string& tag) {
        const PlanResult stranded = planner.plan_view(*ctx, reduced.view());
        ASSERT_TRUE(stranded.plan.stops.empty()) << tag;
        PlanResult want = planner.plan_view(*ctx, ctx->full_view());
        ASSERT_FALSE(want.plan.stops.empty()) << tag;
        want.stats.iterations += stranded.stats.iterations;
        const PlanResult got = planner.plan(*ctx);
        expect_identical(got, want, tag);
        EXPECT_EQ(got.stats.candidates,
                  static_cast<int>(ctx->candidates().size()));
    });
}

TEST(PlanDriver, ReducedBandPlansBitIdenticalAcrossEngines) {
    util::Rng rng(1618);
    for (int trial = 0; trial < 24; ++trial) {
        const auto inst = fuzz_instance(rng, 10, 60);
        const HoverCandidateConfig hover = hover_cfg(inst);
        const auto ctx = PlanningContext::build(inst, hover);
        CandidateReductionConfig red;
        red.dominance = trial % 2 == 0;
        red.coarsen_factor = 3 + trial % 3;
        red.consolidate_to = trial % 4 == 3 ? 8 : 0;
        red.refine_band_m = (2.0 + trial % 3) * hover.delta_m;
        std::vector<PlanResult> plans;
        for_each_planner(hover, red, [&](auto& planner, const std::string&) {
            plans.push_back(planner.plan(*ctx));
        });
        // Order: alg2 served, alg3 served, alg2 oracle, alg3 oracle.
        const std::string tag = "trial " + std::to_string(trial);
        expect_identical(plans[0], plans[2], tag + " alg2");
        expect_identical(plans[1], plans[3], tag + " alg3");
        if (::testing::Test::HasFailure()) break;
    }
}

// --- build_candidate_soa int32 narrowing guards.

TEST(CandidateSoaGuards, AcceptsValidCoverage) {
    HoverCandidateSet set;
    set.add({{1.0, 2.0}, 0, 30.0, 1.0, 10.0}, std::vector<std::int32_t>{0, 2});
    set.add({{3.0, 4.0}, 1, 20.0, 0.5, 5.0}, std::vector<std::int32_t>{1});
    const auto soa = core::build_candidate_soa(set, 3);
    EXPECT_EQ(soa.size(), 2u);
}

TEST(CandidateSoaGuards, RejectsDeviceIdAtOrAboveCount) {
    HoverCandidateSet set;
    set.add({{1.0, 2.0}, 0, 30.0, 1.0, 10.0}, std::vector<std::int32_t>{2});
    EXPECT_THROW((void)core::build_candidate_soa(set, 2), ContractViolation);
}

TEST(CandidateSoaGuards, RejectsNegativeDeviceId) {
    HoverCandidateSet set;
    set.add({{1.0, 2.0}, 0, 30.0, 1.0, 10.0}, std::vector<std::int32_t>{-1});
    EXPECT_THROW((void)core::build_candidate_soa(set, 4), ContractViolation);
}

TEST(CandidateSoaGuards, RejectsDeviceCountBeyondInt32) {
    // The device-count check fires before any allocation, so the absurd
    // count is safe to pass.
    const auto huge =
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) +
        1;
    HoverCandidateSet set;
    set.add({{1.0, 2.0}, 0, 30.0, 1.0, 10.0}, std::vector<std::int32_t>{0});
    EXPECT_THROW((void)core::build_candidate_soa(set, huge),
                 ContractViolation);
}

// --- Conformance tolerance validation (reduction_rel_tol).

TEST(ConformanceTolerances, RejectsInvalidValues) {
    for (const double bad :
         {0.0, -1.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bad);
        conformance::ConformanceFuzzConfig red;
        red.instances = 1;
        red.reduction_rel_tol = bad;
        EXPECT_THROW((void)conformance::fuzz_conformance(red), ContractViolation);
    }
}

TEST(ConformanceTolerances, AcceptsBoundaryValueOne) {
    conformance::ConformanceFuzzConfig cfg;
    cfg.instances = 1;
    cfg.planners = {"alg2"};
    cfg.stress_energy = false;
    cfg.reduction_rel_tol = 1.0;
    const auto summary = conformance::fuzz_conformance(cfg);
    EXPECT_TRUE(summary.ok());
}

// --- Response cache: forged 128-bit key collisions must not cross-replay.

io::Json payload(const std::string& tag) {
    io::Json j;
    j["tag"] = tag;
    return j;
}

TEST(ResponseCacheCollision, KeyMatchWithDifferentOptionsIsMiss) {
    service::ResponseCache cache(8);
    // Two logical requests forged to share the full 128-bit key but with
    // different resolved options — the documented collision exposure.
    cache.put(0xdeadbeefull, 0x1234ull, "opts-a", 111, payload("a"));
    const auto cross = cache.get(0xdeadbeefull, 0x1234ull, "opts-b", 111);
    EXPECT_FALSE(cross.found) << "cross-replayed a colliding payload";
    EXPECT_EQ(cache.misses(), 1u);

    const auto hit = cache.get(0xdeadbeefull, 0x1234ull, "opts-a", 111);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(io::Json::parse(*hit.wire).at("tag").as_string(), "a");
}

TEST(ResponseCacheCollision, KeyMatchWithDifferentInstanceIsMiss) {
    service::ResponseCache cache(8);
    cache.put(7, 9, "opts", 1001, payload("first"));
    EXPECT_FALSE(cache.get(7, 9, "opts", 2002).found);

    // Cache the second instance under the same forged key. Lookup stops at
    // the first key match, so the older colliding entry is shadowed — a
    // miss, never the *wrong* payload — and the verified lookup returns
    // exactly its own payload.
    cache.put(7, 9, "opts", 2002, payload("second"));
    const auto a = cache.get(7, 9, "opts", 1001);
    const auto b = cache.get(7, 9, "opts", 2002);
    EXPECT_FALSE(a.found) << "shadowed collider must miss, not cross-replay";
    ASSERT_TRUE(b.found);
    EXPECT_EQ(io::Json::parse(*b.wire).at("tag").as_string(), "second");
}

TEST(ResponseCacheCollision, CanonicalOptionsSeparateReductionConfigs) {
    core::PlannerOptions a;
    core::PlannerOptions b = a;
    b.reduction.coarsen_factor = 4;
    EXPECT_NE(service::canonical_options("alg2", a),
              service::canonical_options("alg2", b));
    EXPECT_NE(service::canonical_options("alg2", a),
              service::canonical_options("alg3", a));
}

// --- Service overrides: reduction fields survive the wire format.

TEST(ReductionOverrides, JsonRoundTripAndResolve) {
    service::PlanRequest req;
    req.id = "r1";
    req.planner = "alg2";
    req.instance = testing::small_instance(8);
    req.overrides.reduce = true;
    req.overrides.reduce_coarsen = 4;
    req.overrides.reduce_band_m = 25.0;
    req.overrides.reduce_consolidate = 64;

    const auto round = service::request_from_json(service::to_json(req));
    ASSERT_TRUE(round.overrides.reduce.has_value());
    EXPECT_TRUE(*round.overrides.reduce);
    EXPECT_EQ(round.overrides.reduce_coarsen, 4);
    EXPECT_EQ(round.overrides.reduce_band_m, 25.0);
    EXPECT_EQ(round.overrides.reduce_consolidate, 64);

    const core::PlannerOptions resolved =
        round.overrides.resolve(core::PlannerOptions{});
    EXPECT_TRUE(resolved.reduction.dominance);
    EXPECT_EQ(resolved.reduction.coarsen_factor, 4);
    EXPECT_EQ(resolved.reduction.refine_band_m, 25.0);
    EXPECT_EQ(resolved.reduction.consolidate_to, 64);
    EXPECT_TRUE(resolved.reduction.enabled());
}

}  // namespace
}  // namespace uavdc
