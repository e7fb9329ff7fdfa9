// Equivalence suite for the greedy engine: the lazy-greedy planners and the
// cached prune loop must produce *bit-identical* plans (stops, dwells,
// planned_mb, iteration counts) to the from-scratch oracle
// (greedy_oracle.hpp), serially and in parallel, across seeded generator
// instances — plus unit tests for the engine's parts (inverted coverage
// index, edge-local insertion cache, lazy-greedy queue).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "greedy_oracle.hpp"
#include "test_util.hpp"
#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/incremental_scorer.hpp"
#include "uavdc/core/partial_policy.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc {
namespace {

using core::Algorithm2Config;
using core::Algorithm3Config;
using core::GreedyCoveragePlanner;
using core::InsertionCache;
using core::InvertedCoverageIndex;
using core::LazyGreedyQueue;
using core::PartialCollectionPlanner;
using core::PlanningContext;
using core::PlanResult;
using core::PruneTspPlanner;
using core::RatioRule;
using core::ScoringEngine;
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
    EXPECT_EQ(a.stats.candidates, b.stats.candidates);
}

/// Seeded conformance-style instance (same knobs fuzz_conformance turns).
model::Instance fuzz_instance(util::Rng& rng, int min_devices,
                              int max_devices) {
    constexpr workload::Deployment kDeployments[] = {
        workload::Deployment::kUniform,    workload::Deployment::kClustered,
        workload::Deployment::kGridJitter, workload::Deployment::kRing,
        workload::Deployment::kHalton,     workload::Deployment::kPoissonDisk};
    constexpr workload::VolumeModel kVolumes[] = {
        workload::VolumeModel::kUniform, workload::VolumeModel::kExponential,
        workload::VolumeModel::kFixed, workload::VolumeModel::kBimodal};
    workload::GeneratorConfig g;
    g.num_devices =
        static_cast<int>(rng.uniform_int(min_devices, max_devices));
    g.region_w = rng.uniform(150.0, 500.0);
    g.region_h = rng.uniform(150.0, 500.0);
    g.deployment =
        kDeployments[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    g.volumes = kVolumes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    g.min_mb = rng.uniform(20.0, 150.0);
    g.max_mb = g.min_mb + rng.uniform(50.0, 800.0);
    g.uav.energy_j = rng.uniform(2.0e4, 1.2e5);
    return workload::generate(g, rng.next_u64());
}

core::HoverCandidateConfig hover_cfg(const model::Instance& inst) {
    core::HoverCandidateConfig c;
    c.delta_m = std::max(
        10.0, std::max(inst.region.width(), inst.region.height()) / 15.0);
    return c;
}

// --- Algorithm 2: served == oracle, serial and parallel, across retour
// --- cadences, ratio rules, and deadline configs.

TEST(IncrementalEquivalence, Algorithm2MatchesReferenceAcrossInstances) {
    util::Rng rng(2026);
    constexpr RatioRule kRules[] = {RatioRule::kPaper, RatioRule::kVolumeOnly,
                                    RatioRule::kPerHover};
    constexpr int kRetours[] = {8, 1, 0, 3};
    for (int trial = 0; trial < 60; ++trial) {
        const auto inst = fuzz_instance(rng, 6, 45);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));

        Algorithm2Config cfg;
        cfg.candidates = hover_cfg(inst);
        cfg.ratio_rule = kRules[trial % 3];
        cfg.retour_every = kRetours[trial % 4];
        if (trial % 5 == 0) cfg.max_tour_time_s = 400.0;

        PlanResult results[4];
        for (const int threshold : {0, 1}) {  // serial / forced parallel
            cfg.parallel_threshold = threshold;
            results[threshold] = GreedyCoverageOracle(cfg).plan(*ctx);
            results[2 + threshold] = GreedyCoveragePlanner(cfg).plan(*ctx);
        }
        const std::string tag = "trial " + std::to_string(trial);
        expect_identical(results[0], results[1], tag + " ref serial/par");
        expect_identical(results[0], results[2], tag + " ref vs inc serial");
        expect_identical(results[0], results[3], tag + " ref vs inc par");
        if (::testing::Test::HasFailure()) break;
    }
}

// --- ScoringEngine is kept as a name only (the perfbench crossover plans
// --- with each enumerator) and every enumerator runs the one engine: plans
// --- through make_planner must be byte-identical for every greedy planner.

TEST(IncrementalEquivalence, ScoringEnumeratorsPlanIdentically) {
    constexpr ScoringEngine kEngines[] = {ScoringEngine::kIncremental,
                                          ScoringEngine::kReference,
                                          ScoringEngine::kIncrementalFast};
    util::Rng rng(4242);
    for (int trial = 0; trial < 10; ++trial) {
        auto inst = fuzz_instance(rng, 6, 40);
        // Shrink the budget on half the trials so the prune loop runs.
        if (trial % 2 == 0) inst.uav.energy_j *= 0.35;
        core::PlannerOptions opts;
        opts.delta_m = hover_cfg(inst).delta_m;
        opts.k = 1 + trial % 4;
        const auto ctx = PlanningContext::build(inst, opts.hover_config());
        for (const char* planner : {"alg2", "alg3", "benchmark"}) {
            const std::string tag = "trial " + std::to_string(trial) + " " +
                                    planner + " k " + std::to_string(opts.k);
            PlanResult first;
            for (const ScoringEngine engine : kEngines) {
                opts.scoring = engine;
                const PlanResult got =
                    core::make_planner(planner, opts)->plan(*ctx);
                if (engine == kEngines[0]) {
                    first = got;
                    continue;
                }
                expect_identical(first, got, tag + " " + to_string(engine));
                EXPECT_EQ(io::to_json(got.plan).dump(),
                          io::to_json(first.plan).dump())
                    << tag << " " << to_string(engine);
            }
        }
        if (::testing::Test::HasFailure()) break;
    }
}

// --- Algorithm 3 across K values and retour cadences.

TEST(IncrementalEquivalence, Algorithm3MatchesReferenceAcrossInstances) {
    util::Rng rng(777);
    constexpr int kRetours[] = {8, 1, 0};
    for (int trial = 0; trial < 50; ++trial) {
        const auto inst = fuzz_instance(rng, 6, 40);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));

        Algorithm3Config cfg;
        cfg.candidates = hover_cfg(inst);
        cfg.k = 1 + trial % 3;
        cfg.retour_every = kRetours[trial % 3];
        if (trial % 4 == 0) cfg.max_tour_time_s = 500.0;

        PlanResult results[4];
        for (const int threshold : {0, 1}) {
            cfg.parallel_threshold = threshold;
            results[threshold] = PartialCollectionOracle(cfg).plan(*ctx);
            results[2 + threshold] = PartialCollectionPlanner(cfg).plan(*ctx);
        }
        const std::string tag = "alg3 trial " + std::to_string(trial);
        expect_identical(results[0], results[1], tag + " ref serial/par");
        expect_identical(results[0], results[2], tag + " ref vs inc serial");
        expect_identical(results[0], results[3], tag + " ref vs inc par");
        if (::testing::Test::HasFailure()) break;
    }
}

// --- Edges of the shared lazy-greedy loop: degenerate instances,
// --- reduced and refine views, and paper-scale candidate sets at the
// --- served parallel threshold. Every case is served vs oracle,
// --- bit-identical, for each of `thresholds` (0 = serial, 1 = forced
// --- parallel).

template <typename Planner, typename Oracle, typename Config>
void expect_engines_agree(const PlanningContext& ctx, Config cfg,
                          const std::string& tag,
                          std::initializer_list<int> thresholds = {0, 1}) {
    cfg.parallel_threshold = 0;
    const PlanResult ref = Oracle(cfg).plan(ctx);
    for (const int threshold : thresholds) {
        cfg.parallel_threshold = threshold;
        const std::string at = " threshold " + std::to_string(threshold);
        expect_identical(ref, Oracle(cfg).plan(ctx), tag + " oracle" + at);
        expect_identical(ref, Planner(cfg).plan(ctx), tag + " served" + at);
    }
}

void expect_both_planners_agree(const PlanningContext& ctx,
                                const core::HoverCandidateConfig& hover,
                                const std::string& tag) {
    Algorithm2Config cfg2;
    cfg2.candidates = hover;
    for (const int retour : {8, 1, 0}) {
        cfg2.retour_every = retour;
        expect_engines_agree<GreedyCoveragePlanner, GreedyCoverageOracle>(
            ctx, cfg2, tag + " alg2 retour " + std::to_string(retour));
    }
    Algorithm3Config cfg3;
    cfg3.candidates = hover;
    for (const int k : {1, 2, 4}) {
        cfg3.k = k;
        expect_engines_agree<PartialCollectionPlanner, PartialCollectionOracle>(
            ctx, cfg3, tag + " alg3 k " + std::to_string(k));
    }
}

TEST(IncrementalEquivalence, DegenerateInstancesMatchReference) {
    using uavdc::testing::manual_instance;
    std::vector<std::pair<std::string, model::Instance>> cases;
    cases.emplace_back("no devices", manual_instance({}));
    cases.emplace_back("one device", manual_instance({{{60.0, 80.0}, 400.0}}));
    std::vector<std::pair<geom::Vec2, double>> stacked;
    for (int i = 0; i < 12; ++i) {
        stacked.push_back({{90.0, 110.0}, 50.0 + 75.0 * i});
    }
    cases.emplace_back("coincident devices", manual_instance(stacked));
    auto drained = uavdc::testing::small_instance(30, 250.0, 41);
    for (auto& d : drained.devices) d.data_mb = 0.0;
    cases.emplace_back("all data_mb = 0", drained);
    auto grounded = uavdc::testing::small_instance(30, 250.0, 42);
    grounded.uav.energy_j = 0.0;
    cases.emplace_back("zero battery", grounded);

    for (const auto& [name, inst] : cases) {
        core::HoverCandidateConfig hover;
        hover.delta_m = 10.0;
        const auto ctx = PlanningContext::build(inst, hover);
        expect_both_planners_agree(*ctx, hover, name);
        if (::testing::Test::HasFailure()) break;
    }
    // Coincident devices still plan one stop; the others plan nothing.
    Algorithm3Config cfg3;
    cfg3.candidates.delta_m = 10.0;
    const auto stacked_ctx =
        PlanningContext::build(cases[2].second, cfg3.candidates);
    EXPECT_FALSE(PartialCollectionPlanner(cfg3).plan(*stacked_ctx)
                     .plan.stops.empty());
    for (const std::size_t i : {0u, 3u, 4u}) {
        const auto ctx = PlanningContext::build(cases[i].second,
                                                cfg3.candidates);
        EXPECT_TRUE(PartialCollectionPlanner(cfg3).plan(*ctx).plan.stops
                        .empty())
            << cases[i].first;
    }
}

TEST(IncrementalEquivalence, ReducedAndRefineViewsMatchReference) {
    util::Rng rng(4711);
    int refined = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const auto inst = fuzz_instance(rng, 20, 60);
        const core::HoverCandidateConfig hover = hover_cfg(inst);
        const auto ctx = PlanningContext::build(inst, hover);
        core::CandidateReductionConfig reduction;
        reduction.dominance = true;
        reduction.coarsen_factor = 2 + trial % 2;
        reduction.refine_band_m = trial % 4 == 3 ? 0.0 : 2.0 * hover.delta_m;
        reduction.consolidate_to = trial % 3 == 0 ? 12 : 0;
        if (reduction.refine_band_m > 0.0) ++refined;

        const std::string tag = "reduced trial " + std::to_string(trial);
        Algorithm2Config cfg2;
        cfg2.candidates = hover;
        cfg2.reduction = reduction;
        cfg2.retour_every = trial % 2 == 0 ? 8 : 1;
        expect_engines_agree<GreedyCoveragePlanner, GreedyCoverageOracle>(
            *ctx, cfg2, tag + " alg2");
        Algorithm3Config cfg3;
        cfg3.candidates = hover;
        cfg3.reduction = reduction;
        cfg3.k = 1 + trial % 3;
        expect_engines_agree<PartialCollectionPlanner, PartialCollectionOracle>(
            *ctx, cfg3, tag + " alg3");
        if (::testing::Test::HasFailure()) break;
    }
    EXPECT_GT(refined, 0);
}

TEST(IncrementalEquivalence, PaperInstancesAtServedThresholdMatchReference) {
    // 300-500 devices in the paper's 1000 x 1000 m field give thousands of
    // candidates, so the served threshold of 512 takes the parallel paths.
    for (const int devices : {300, 400, 500}) {
        workload::GeneratorConfig g = workload::paper_default();
        g.num_devices = devices;
        const auto inst = workload::generate(g, 900 + devices);
        const core::HoverCandidateConfig hover;
        const auto ctx = PlanningContext::build(inst, hover);
        ASSERT_GE(ctx->candidates().size(), 512u);
        const std::string tag = std::to_string(devices) + " devices";
        Algorithm2Config cfg2;
        cfg2.candidates = hover;
        expect_engines_agree<GreedyCoveragePlanner, GreedyCoverageOracle>(
            *ctx, cfg2, tag + " alg2", {0, 512});
        Algorithm3Config cfg3;
        cfg3.candidates = hover;
        cfg3.k = devices / 100 - 1;
        expect_engines_agree<PartialCollectionPlanner, PartialCollectionOracle>(
            *ctx, cfg3, tag + " alg3", {0, 512});
        if (::testing::Test::HasFailure()) break;
    }
}

// --- Alg. 3 drops an unselectable pop until its key is next updated. That
// --- is sound only if such a candidate cannot become selectable again
// --- before then. Replay the loop, and at the start of every round
// --- evaluate again each candidate dropped since its last key: none may
// --- have come back.

struct UnselectableWatch {
    std::vector<char> unselectable;  ///< dropped since its last key
    bool sweep_due{true};            ///< no eval yet in this round
    std::size_t evals{0};
    std::size_t repeat_evals{0};  ///< of dropped ones: the queue's saving
    std::size_t revived{0};       ///< repeats that came back selectable
};
UnselectableWatch* g_watch = nullptr;

class WatchedPartialPolicy : public core::partial::PartialPolicy {
  public:
    using PartialPolicy::PartialPolicy;

    [[nodiscard]] double key(std::size_t j) const {
        g_watch->unselectable[j] = 0;
        return PartialPolicy::key(j);
    }

    [[nodiscard]] std::pair<double, bool> eval(std::size_t j) {
        UnselectableWatch& w = *g_watch;
        if (w.sweep_due) {
            // The round's state, before its first pop is evaluated.
            w.sweep_due = false;
            for (std::size_t d = 0; d < w.unselectable.size(); ++d) {
                if (w.unselectable[d] == 0) continue;
                ++w.repeat_evals;
                if (PartialPolicy::eval(d).second) ++w.revived;
            }
        }
        const std::pair<double, bool> r = PartialPolicy::eval(j);
        ++w.evals;
        if (!r.second) w.unselectable[j] = 1;
        return r;
    }

    [[nodiscard]] core::lazy_greedy::Take pick(std::size_t best) {
        g_watch->sweep_due = true;
        return PartialPolicy::pick(best);
    }
};

TEST(IncrementalEquivalence, Algorithm3UnselectableUntilRekeyed) {
    UnselectableWatch watch;
    g_watch = &watch;
    auto replay = [&](const PlanningContext& ctx, Algorithm3Config cfg,
                      const std::string& tag) {
        const core::CandidateView view = ctx.full_view();
        if (view.size() == 0) return;
        watch.unselectable.assign(view.size(), 0);
        watch.sweep_due = true;
        const std::size_t revived = watch.revived;
        const PlanResult b =
            core::lazy_greedy::run<WatchedPartialPolicy>(ctx, view, cfg);
        EXPECT_EQ(watch.revived, revived) << tag;
        expect_identical(PartialCollectionPlanner(cfg).plan_view(ctx, view),
                         b, tag);
    };

    // Algorithm3MatchesReferenceAcrossInstances' instances and configs.
    util::Rng rng(777);
    constexpr int kRetours[] = {8, 1, 0};
    for (int trial = 0; trial < 50; ++trial) {
        const auto inst = fuzz_instance(rng, 6, 40);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        Algorithm3Config cfg;
        cfg.candidates = hover_cfg(inst);
        cfg.k = 1 + trial % 3;
        cfg.retour_every = kRetours[trial % 3];
        if (trial % 4 == 0) cfg.max_tour_time_s = 500.0;
        replay(*ctx, cfg, "fuzz trial " + std::to_string(trial));
    }
    // Tight budgets, where most pops are infeasible.
    for (int trial = 0; trial < 12; ++trial) {
        auto inst = fuzz_instance(rng, 20, 60);
        inst.uav.energy_j *= 0.2;
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        Algorithm3Config cfg;
        cfg.candidates = hover_cfg(inst);
        cfg.k = 1 + trial % 4;
        cfg.retour_every = kRetours[trial % 3];
        if (trial % 2 == 0) cfg.max_tour_time_s = 150.0;
        replay(*ctx, cfg, "tight trial " + std::to_string(trial));
    }
    // PaperInstancesAtServedThresholdMatchReference's instances.
    for (const int devices : {300, 400, 500}) {
        workload::GeneratorConfig g = workload::paper_default();
        g.num_devices = devices;
        const auto inst = workload::generate(g, 900 + devices);
        const core::HoverCandidateConfig hover;
        const auto ctx = PlanningContext::build(inst, hover);
        Algorithm3Config cfg;
        cfg.candidates = hover;
        cfg.k = devices / 100 - 1;
        replay(*ctx, cfg, std::to_string(devices) + " devices");
    }
    g_watch = nullptr;
    EXPECT_EQ(watch.revived, 0u);
    // The replay does reach the case the queue skips.
    EXPECT_GT(watch.repeat_evals, 0u);
    std::printf("alg3 replay: %zu evaluations, and %zu repeats of a dropped "
                "candidate\n",
                watch.evals, watch.repeat_evals);
}

// --- Benchmark (PruneTsp) prune loop.

TEST(IncrementalEquivalence, PruneTspMatchesReferenceAcrossInstances) {
    util::Rng rng(31337);
    int total_prunes = 0;
    for (int trial = 0; trial < 50; ++trial) {
        auto inst = fuzz_instance(rng, 8, 50);
        // Shrink the budget so the prune loop actually runs.
        if (trial % 2 == 0) inst.uav.energy_j *= 0.35;
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));

        const auto ref = PruneTspOracle().plan(*ctx);
        const auto inc = PruneTspPlanner().plan(*ctx);
        expect_identical(ref, inc, "prune trial " + std::to_string(trial));
        total_prunes += ref.stats.iterations;
        if (::testing::Test::HasFailure()) break;
    }
    // The suite must actually exercise the prune loop, not just trivially
    // matching empty prunes.
    EXPECT_GT(total_prunes, 0);
}

// --- InvertedCoverageIndex: decrement targeting vs brute force.

TEST(InvertedCoverageIndex, MatchesBruteForceMembership) {
    const auto inst = testing::small_instance(30, 250.0, 11);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    const auto& cands = ctx->candidates();
    const InvertedCoverageIndex index(cands, inst.devices.size());
    ASSERT_EQ(index.num_devices(), inst.devices.size());

    for (std::size_t v = 0; v < inst.devices.size(); ++v) {
        std::vector<std::int32_t> expected;
        for (std::size_t j = 0; j < cands.candidates.size(); ++j) {
            for (const int dv : cands.covered(j)) {
                if (static_cast<std::size_t>(dv) == v) {
                    expected.push_back(static_cast<std::int32_t>(j));
                }
            }
        }
        const auto got = index.covering(v);
        ASSERT_EQ(got.size(), expected.size()) << "device " << v;
        for (std::size_t t = 0; t < expected.size(); ++t) {
            EXPECT_EQ(got[t], expected[t]) << "device " << v;
        }
        // Sorted ascending — planners rely on deterministic dirty order.
        for (std::size_t t = 1; t < got.size(); ++t) {
            EXPECT_LT(got[t - 1], got[t]);
        }
    }

    // Covering a device must dirty exactly the candidates whose coverage
    // contains it: every candidate listed loses gain, nobody else does.
    const std::size_t device = 0;
    for (std::size_t j = 0; j < cands.candidates.size(); ++j) {
        const auto cov = cands.covered(j);
        const bool listed = [&] {
            for (const auto cj : index.covering(device)) {
                if (static_cast<std::size_t>(cj) == j) return true;
            }
            return false;
        }();
        const bool contains = [&] {
            for (const int dv : cov) {
                if (static_cast<std::size_t>(dv) == device) return true;
            }
            return false;
        }();
        EXPECT_EQ(listed, contains) << "candidate " << j;
    }
}

// --- InsertionCache: exactness after every insert, straddler handling,
// --- and the dirty-bit fallback after reoptimize().

TEST(InsertionCache, StaysExactUnderInsertions) {
    util::Rng rng(5);
    std::vector<geom::Vec2> points;
    for (int i = 0; i < 40; ++i) {
        points.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
    }
    TourBuilder tour({0.0, 0.0});
    InsertionCache cache(tour, points);
    EXPECT_TRUE(cache.dirty());
    cache.rebuild_all(false);
    EXPECT_FALSE(cache.dirty());

    std::pmr::vector<std::size_t> changed;
    for (int step = 0; step < 25; ++step) {
        // Verify every active entry against a fresh scan (bitwise).
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!cache.active(i)) continue;
            const auto fresh = tour.cheapest_insertion(points[i]);
            EXPECT_EQ(cache.get(i).position, fresh.position)
                << "step " << step << " cand " << i;
            EXPECT_EQ(cache.get(i).delta_m, fresh.delta_m)
                << "step " << step << " cand " << i;
        }
        // Insert the next point (round-robin) and maintain the cache.
        const auto next = static_cast<std::size_t>(step);
        const auto ins = cache.get(next);
        tour.insert(points[next], static_cast<int>(next), ins);
        cache.deactivate(next);
        changed.clear();
        cache.on_insert(ins, changed);
    }
}

TEST(InsertionCache, ReoptimizeRequiresRebuild) {
    util::Rng rng(17);
    std::vector<geom::Vec2> points;
    for (int i = 0; i < 20; ++i) {
        points.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
    }
    TourBuilder tour({0.0, 0.0});
    InsertionCache cache(tour, points);
    cache.rebuild_all(false);
    std::pmr::vector<std::size_t> changed;
    for (std::size_t i = 0; i < 8; ++i) {
        const auto ins = cache.get(i);
        tour.insert(points[i], static_cast<int>(i), ins);
        cache.deactivate(i);
        cache.on_insert(ins, changed);
    }
    tour.reoptimize();
    cache.invalidate_all();
    EXPECT_TRUE(cache.dirty());
    cache.rebuild_all(true);  // parallel rebuild path
    EXPECT_FALSE(cache.dirty());
    for (std::size_t i = 8; i < points.size(); ++i) {
        const auto fresh = tour.cheapest_insertion(points[i]);
        EXPECT_EQ(cache.get(i).position, fresh.position) << "cand " << i;
        EXPECT_EQ(cache.get(i).delta_m, fresh.delta_m) << "cand " << i;
    }
}

TEST(InsertionCache, ReportsChangedCandidates) {
    // Depot at origin, two clusters; inserting a stop near cluster A must
    // report the A candidates (their delta improves via the new edges).
    TourBuilder tour({0.0, 0.0});
    std::vector<geom::Vec2> points{{100.0, 0.0}, {100.0, 5.0}, {0.0, 100.0}};
    InsertionCache cache(tour, points);
    cache.rebuild_all(false);
    // Empty tour: every delta is the out-and-back 2 * d(depot, p).
    EXPECT_EQ(cache.get(0).delta_m, 2.0 * geom::distance({0.0, 0.0}, points[0]));

    const TourBuilder::Insertion ins = tour.cheapest_insertion({100.0, 2.0});
    tour.insert({100.0, 2.0}, 99, ins);
    std::pmr::vector<std::size_t> changed;
    cache.on_insert(ins, changed);
    // All three straddle the (empty-tour) position-0 edge; all reported and
    // all exact afterwards.
    ASSERT_EQ(changed.size(), 3u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto fresh = tour.cheapest_insertion(points[i]);
        EXPECT_EQ(cache.get(i).position, fresh.position);
        EXPECT_EQ(cache.get(i).delta_m, fresh.delta_m);
    }
}

// --- LazyGreedyQueue: deterministic tie-break, staleness, dropping.

TEST(LazyGreedyQueue, TieBreaksOnSmallerIndex) {
    LazyGreedyQueue q(4);
    q.update(2, 5.0);
    q.update(0, 5.0);
    q.update(1, 5.0);
    q.update(3, 7.0);
    int evals = 0;
    const auto pick = q.pop_best([&](std::size_t i) {
        ++evals;
        return std::pair<double, bool>{i == 3 ? 7.0 : 5.0, i != 3};
    });
    ASSERT_TRUE(pick.found);
    // 3 has the top key but is unselectable; among the 5.0 tie the smallest
    // index must win.
    EXPECT_EQ(pick.index, 0u);
    EXPECT_EQ(pick.exact, 5.0);
    EXPECT_EQ(evals, 2);  // 3 (rejected) then 0 (accepted; 1 and 2 pruned)
}

TEST(LazyGreedyQueue, StaleEntriesAreSkipped) {
    LazyGreedyQueue q(3);
    q.update(0, 10.0);
    q.update(1, 4.0);
    q.update(0, 1.0);  // 10.0 entry is now stale
    const auto pick = q.pop_best([&](std::size_t i) {
        return std::pair<double, bool>{q.key(i), true};
    });
    ASSERT_TRUE(pick.found);
    EXPECT_EQ(pick.index, 1u);
    EXPECT_EQ(pick.exact, 4.0);
}

TEST(LazyGreedyQueue, PolicyADropsUnselectableUntilUpdate) {
    LazyGreedyQueue q(2);
    q.update(0, 9.0);
    q.update(1, 3.0);
    int evals_of_0 = 0;
    auto eval = [&](std::size_t i) {
        if (i == 0) ++evals_of_0;
        return std::pair<double, bool>{q.key(i), i != 0};
    };
    EXPECT_EQ(q.pop_best(eval).index, 1u);
    EXPECT_EQ(evals_of_0, 1);
    // 0 was dropped: the next pop must not re-evaluate it...
    q.update(1, 3.0);
    EXPECT_EQ(q.pop_best(eval).index, 1u);
    EXPECT_EQ(evals_of_0, 1);
    // ...until an explicit update re-enqueues it.
    q.update(0, 9.0);
    q.update(1, 3.0);
    EXPECT_EQ(q.pop_best(eval).index, 1u);
    EXPECT_EQ(evals_of_0, 2);
}

TEST(LazyGreedyQueue, DeactivatedNeverReturned) {
    LazyGreedyQueue q(2);
    q.update(0, 9.0);
    q.update(1, 3.0);
    q.deactivate(0);
    const auto pick = q.pop_best([&](std::size_t i) {
        return std::pair<double, bool>{q.key(i), true};
    });
    ASSERT_TRUE(pick.found);
    EXPECT_EQ(pick.index, 1u);
    EXPECT_FALSE(q.active(0));
    q.deactivate(1);
    EXPECT_FALSE(q.pop_best([&](std::size_t) {
                      return std::pair<double, bool>{0.0, true};
                  }).found);
}

TEST(LazyGreedyQueue, RebuildMatchesClearPlusUpdate) {
    // rebuild() is the bulk form of clear() + update(): stale entries from
    // before the rebuild must never surface, and pops come out in the same
    // (key desc, index asc) order as the incremental form.
    LazyGreedyQueue bulk(5);
    LazyGreedyQueue one_by_one(5);
    for (std::size_t i = 0; i < 5; ++i) {
        bulk.update(i, 100.0 + static_cast<double>(i));
        one_by_one.update(i, 100.0 + static_cast<double>(i));
    }
    const std::vector<std::pair<std::size_t, double>> items = {
        {0, 2.0}, {1, 7.0}, {2, 7.0}, {4, 1.0}};
    bulk.rebuild(items);
    one_by_one.clear();
    for (const auto& [i, key] : items) one_by_one.update(i, key);
    // Candidate 3 was dropped by both; the old key-103 entry must be stale.
    auto eval = [&](LazyGreedyQueue& q) {
        return [&q](std::size_t i) {
            return std::pair<double, bool>{q.key(i), true};
        };
    };
    for (int round = 0; round < 4; ++round) {
        const auto a = bulk.pop_best(eval(bulk));
        const auto b = one_by_one.pop_best(eval(one_by_one));
        ASSERT_TRUE(a.found);
        ASSERT_TRUE(b.found);
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.exact, b.exact);
        bulk.deactivate(a.index);
        one_by_one.deactivate(b.index);
    }
    EXPECT_FALSE(bulk.pop_best(eval(bulk)).found);
    EXPECT_FALSE(one_by_one.pop_best(eval(one_by_one)).found);
}

TEST(InsertionCache, RunnerUpSurvivesRepeatedStraddles) {
    // Points clustered near one tour edge so successive insertions keep
    // splitting the edge the cached best (and then its runner-up) sit on —
    // exercising both the O(1) runner-up promotion and the rescan fallback
    // when the runner-up has been consumed.
    util::Rng rng(99);
    TourBuilder tour({0.0, 0.0});
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 30; ++i) {
        pts.push_back({rng.uniform(40.0, 60.0), rng.uniform(-5.0, 5.0)});
    }
    for (int i = 0; i < 10; ++i) {
        pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    InsertionCache cache(tour, pts);
    cache.rebuild_all(false);
    std::pmr::vector<std::size_t> changed;
    std::vector<char> used(pts.size(), 0);
    for (int step = 0; step < 25; ++step) {
        // Insert the clustered points first to maximise straddling.
        std::size_t pick = pts.size();
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (used[i] == 0) {
                pick = i;
                break;
            }
        }
        ASSERT_LT(pick, pts.size());
        const auto ins = cache.get(pick);
        tour.insert(pts[pick], static_cast<int>(pick), ins);
        used[pick] = 1;
        cache.deactivate(pick);
        changed.clear();
        cache.on_insert(ins, changed);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (used[i] != 0) continue;
            const auto fresh = tour.cheapest_insertion(pts[i]);
            const auto& got = cache.get(i);
            ASSERT_EQ(got.position, fresh.position)
                << "step " << step << " candidate " << i;
            ASSERT_EQ(got.delta_m, fresh.delta_m)
                << "step " << step << " candidate " << i;
        }
    }
}

TEST(TourBuilder, CheapestInsertion2MatchesSingleAndRunnerUp) {
    util::Rng rng(7);
    TourBuilder tour({0.0, 0.0});
    for (int i = 0; i < 12; ++i) {
        const geom::Vec2 p{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        tour.insert(p, i, tour.cheapest_insertion(p));
    }
    // The maintained per-edge lengths must match the from-scratch oracle
    // bitwise — scan_edges subtracts edge_len_[i] where the scalar scan
    // recomputed distance(a, b).
    const auto edge_len = tour.edge_lengths();
    ASSERT_EQ(edge_len.size(), tour.size() + 1);
    ASSERT_EQ(tour.edge_len().size(), edge_len.size());
    for (std::size_t i = 0; i < edge_len.size(); ++i) {
        EXPECT_EQ(tour.edge_len()[i], edge_len[i]) << "edge " << i;
    }
    for (int t = 0; t < 50; ++t) {
        const geom::Vec2 q{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        const auto single = tour.cheapest_insertion(q);
        const auto both = tour.cheapest_insertion2(q);
        EXPECT_EQ(both.best.position, single.position);
        EXPECT_EQ(both.best.delta_m, single.delta_m);
        ASSERT_TRUE(both.has_second);
        // The runner-up is what a fresh scan picks with the best edge gone:
        // strictly worse or equal delta, never the same position.
        EXPECT_NE(both.second.position, both.best.position);
        EXPECT_GE(both.second.delta_m, both.best.delta_m);
    }
    // Empty tour: single pseudo-edge, no runner-up.
    TourBuilder empty({0.0, 0.0});
    const auto e = empty.cheapest_insertion2({3.0, 4.0});
    EXPECT_FALSE(e.has_second);
    EXPECT_EQ(e.best.delta_m, 10.0);
    EXPECT_TRUE(empty.edge_lengths().empty());
    EXPECT_TRUE(empty.edge_len().empty());
}

}  // namespace
}  // namespace uavdc
