#include <gtest/gtest.h>

#include "uavdc/util/check.hpp"

#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "orienteering_oracle.hpp"
#include "uavdc/core/algorithm1.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/graph/local_search.hpp"
#include "uavdc/orienteering/exact.hpp"
#include "uavdc/orienteering/grasp.hpp"
#include "uavdc/orienteering/greedy.hpp"
#include "uavdc/orienteering/ils.hpp"
#include "uavdc/orienteering/insertion_cache.hpp"
#include "uavdc/orienteering/solver.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc::orienteering {
namespace {

Problem random_problem(int n, double budget, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    Problem p;
    p.graph = graph::DenseGraph::euclidean(pts);
    p.prizes.resize(static_cast<std::size_t>(n));
    for (auto& z : p.prizes) z = rng.uniform(1.0, 10.0);
    p.prizes[0] = 0.0;
    p.depot = 0;
    p.budget = budget;
    return p;
}

void check_solution(const Problem& p, const Solution& s) {
    ASSERT_FALSE(s.tour.empty());
    EXPECT_EQ(s.tour.front(), p.depot);
    std::set<std::size_t> seen(s.tour.begin(), s.tour.end());
    EXPECT_EQ(seen.size(), s.tour.size()) << "tour revisits a node";
    EXPECT_NEAR(s.cost, p.graph.tour_length(s.tour), 1e-9);
    double prize = 0.0;
    for (std::size_t v : s.tour) prize += p.prizes[v];
    EXPECT_NEAR(s.prize, prize, 1e-9);
    EXPECT_TRUE(s.feasible(p));
}

TEST(Problem, ValidationCatchesErrors) {
    Problem p = random_problem(5, 100.0, 1);
    p.validate();
    Problem bad_depot = p;
    bad_depot.depot = 99;
    EXPECT_THROW(bad_depot.validate(), util::ContractViolation);
    Problem bad_budget = p;
    bad_budget.budget = -1.0;
    EXPECT_THROW(bad_budget.validate(), util::ContractViolation);
    Problem bad_prize = p;
    bad_prize.prizes[2] = -5.0;
    EXPECT_THROW(bad_prize.validate(), util::ContractViolation);
    Problem mismatch = p;
    mismatch.prizes.push_back(1.0);
    EXPECT_THROW(mismatch.validate(), util::ContractViolation);
}

TEST(MakeSolution, ComputesCostAndPrize) {
    const Problem p = random_problem(6, 1000.0, 2);
    const Solution s = make_solution(p, {0, 2, 4});
    EXPECT_NEAR(s.cost, p.graph.tour_length(s.tour), 1e-12);
    EXPECT_NEAR(s.prize, p.prizes[0] + p.prizes[2] + p.prizes[4], 1e-12);
}

TEST(Exact, ZeroBudgetStaysHome) {
    const Problem p = random_problem(8, 0.0, 3);
    const Solution s = solve_exact(p);
    EXPECT_EQ(s.tour, std::vector<std::size_t>{0});
    EXPECT_EQ(s.prize, 0.0);
}

TEST(Exact, HugeBudgetVisitsEverything) {
    const Problem p = random_problem(10, 1e9, 4);
    const Solution s = solve_exact(p);
    EXPECT_EQ(s.tour.size(), p.size());
    double total = 0.0;
    for (double z : p.prizes) total += z;
    EXPECT_NEAR(s.prize, total, 1e-9);
}

TEST(Exact, KnownTinyInstance) {
    // Depot at origin; three prize nodes on a line. Budget only allows the
    // nearer two.
    Problem p;
    std::vector<geom::Vec2> pts{
        {0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {100.0, 0.0}};
    p.graph = graph::DenseGraph::euclidean(pts);
    p.prizes = {0.0, 5.0, 5.0, 100.0};
    p.depot = 0;
    p.budget = 50.0;  // reach x=20 and return (cost 40); x=100 needs 200
    const Solution s = solve_exact(p);
    check_solution(p, s);
    EXPECT_NEAR(s.prize, 10.0, 1e-12);
}

TEST(Exact, TooLargeThrows) {
    const Problem p = random_problem(25, 100.0, 5);
    EXPECT_THROW(solve_exact(p), util::ContractViolation);
}

TEST(Greedy, AlwaysFeasibleAndRooted) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const Problem p = random_problem(30, 180.0, seed);
        const Solution s = solve_greedy(p);
        check_solution(p, s);
    }
}

TEST(Greedy, CollectsSomethingWhenBudgetAllows) {
    const Problem p = random_problem(20, 300.0, 6);
    const Solution s = solve_greedy(p);
    EXPECT_GT(s.prize, 0.0);
    EXPECT_GT(s.tour.size(), 1u);
}

TEST(Greedy, WithinHalfOfExactOnSmallInstances) {
    for (std::uint64_t seed : {7u, 8u, 9u, 10u}) {
        const Problem p = random_problem(12, 150.0, seed);
        const Solution exact = solve_exact(p);
        const Solution greedy = solve_greedy(p);
        EXPECT_GE(greedy.prize, 0.5 * exact.prize - 1e-9) << "seed " << seed;
        EXPECT_LE(greedy.prize, exact.prize + 1e-9) << "seed " << seed;
    }
}

TEST(Grasp, AlwaysFeasibleAndRooted) {
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        const Problem p = random_problem(35, 200.0, seed);
        GraspConfig cfg;
        cfg.iterations = 8;
        const Solution s = solve_grasp(p, cfg);
        check_solution(p, s);
    }
}

TEST(Grasp, AtLeastAsGoodAsGreedy) {
    for (std::uint64_t seed : {14u, 15u, 16u, 17u}) {
        const Problem p = random_problem(30, 220.0, seed);
        const Solution greedy = solve_greedy(p);
        const Solution grasp = solve_grasp(p);
        EXPECT_GE(grasp.prize, greedy.prize - 1e-9) << "seed " << seed;
    }
}

TEST(Grasp, NearExactOnSmallInstances) {
    for (std::uint64_t seed : {18u, 19u, 20u}) {
        const Problem p = random_problem(13, 170.0, seed);
        const Solution exact = solve_exact(p);
        const Solution grasp = solve_grasp(p);
        EXPECT_GE(grasp.prize, 0.9 * exact.prize - 1e-9) << "seed " << seed;
    }
}

TEST(Grasp, DeterministicForFixedSeed) {
    const Problem p = random_problem(25, 200.0, 21);
    GraspConfig cfg;
    cfg.seed = 99;
    cfg.iterations = 6;
    const Solution a = solve_grasp(p, cfg);
    const Solution b = solve_grasp(p, cfg);
    EXPECT_EQ(a.tour, b.tour);
    EXPECT_DOUBLE_EQ(a.prize, b.prize);
}

TEST(Polish, NeverBreaksFeasibility) {
    const Problem p = random_problem(20, 250.0, 22);
    Solution s = make_solution(p, {0});
    polish(p, s);
    check_solution(p, s);
    EXPECT_GT(s.prize, 0.0);
}

TEST(SolverDispatch, AllKindsRun) {
    const Problem p = random_problem(12, 150.0, 23);
    const Solution e = solve(p, SolverKind::kExact);
    const Solution g = solve(p, SolverKind::kGreedy);
    const Solution r = solve(p, SolverKind::kGrasp);
    check_solution(p, e);
    check_solution(p, g);
    check_solution(p, r);
    EXPECT_GE(e.prize, g.prize - 1e-9);
    EXPECT_GE(e.prize, r.prize - 1e-9);
}

TEST(SolverDispatch, Names) {
    EXPECT_EQ(to_string(SolverKind::kExact), "exact");
    EXPECT_EQ(to_string(SolverKind::kGreedy), "greedy");
    EXPECT_EQ(to_string(SolverKind::kGrasp), "grasp");
}

// Budget sweep property: prize is monotone non-decreasing in budget for the
// exact solver (more energy can never hurt).
class ExactBudgetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactBudgetSweep, PrizeMonotoneInBudget) {
    Problem p = random_problem(11, 0.0, GetParam());
    double prev = -1.0;
    for (double budget : {0.0, 60.0, 120.0, 180.0, 240.0, 1000.0}) {
        p.budget = budget;
        const Solution s = solve_exact(p);
        EXPECT_GE(s.prize, prev - 1e-9) << "budget " << budget;
        prev = s.prize;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactBudgetSweep,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

// --- InsertionCache against a fresh graph::cheapest_insertion scan, and the
// --- cached solvers against the frozen scan-based ones
// --- (orienteering_oracle.hpp).

namespace oracle = testing::orienteering_oracle;

/// Tie-heavy problems: grid-aligned points (kind 0), many coincident points
/// (kind 1), and a Euclidean graph with some edges forced to zero (kind 2).
/// A third of the prizes are zero; the budget spans "a few stops" to
/// "nearly everything".
Problem tie_heavy_problem(std::uint64_t seed) {
    util::Rng rng(seed);
    const int kind = static_cast<int>(seed % 3);
    const int n = static_cast<int>(rng.uniform_int(2, 40));
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        if (kind == 1 && i > 0 && rng.bernoulli(0.5)) {
            pts.push_back(pts[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
        } else if (kind == 2) {
            pts.push_back({rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
        } else {
            pts.push_back({static_cast<double>(rng.uniform_int(0, 5)) * 10.0,
                           static_cast<double>(rng.uniform_int(0, 5)) * 10.0});
        }
    }
    Problem p;
    p.graph = graph::DenseGraph::euclidean(pts);
    if (kind == 2) {
        for (int e = 0; e < n; ++e) {
            const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
            const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
            if (i != j) p.graph.set_weight(i, j, 0.0);
        }
    }
    p.prizes.resize(static_cast<std::size_t>(n));
    for (auto& z : p.prizes) {
        z = rng.bernoulli(0.3) ? 0.0
                               : static_cast<double>(rng.uniform_int(1, 4));
    }
    p.depot = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    p.budget = rng.uniform(0.0, 600.0);
    return p;
}

/// Alg. 1 auxiliary graphs (Eq. 9 weights carry the hover-energy terms) of
/// paper-preset instances.
Problem alg1_problem(std::uint64_t seed, int devices) {
    workload::GeneratorConfig g = workload::paper_default();
    g.num_devices = devices;
    const auto inst = workload::generate(g, seed);
    const auto ctx = core::PlanningContext::build(inst);
    const auto cands = core::GridOrienteeringPlanner::select_disjoint(
        ctx->candidates(), inst.num_devices());
    return core::GridOrienteeringPlanner::build_auxiliary_problem(inst,
                                                                  cands);
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_cache_fresh(const Problem& p, const std::vector<std::size_t>& tour,
                        const std::vector<bool>& in,
                        const InsertionCache& cache, const std::string& tag) {
    for (std::size_t v = 0; v < p.size(); ++v) {
        if (in[v] || p.prizes[v] <= 0.0) continue;
        const auto fresh = graph::cheapest_insertion(p.graph, tour, v);
        const auto& got = cache.get(v);
        EXPECT_EQ(got.position, fresh.position) << tag << " node " << v;
        EXPECT_TRUE(same_bits(got.delta, fresh.delta))
            << tag << " node " << v << ": " << got.delta << " vs "
            << fresh.delta;
    }
}

std::vector<bool> mask_of(const Problem& p,
                          const std::vector<std::size_t>& tour) {
    std::vector<bool> in(p.size(), false);
    for (std::size_t v : tour) in[v] = true;
    return in;
}

/// Drives the cache through the moves construct() and polish() make —
/// cached inserts (the RCL's random pick and try_insert's best score),
/// replaces, 2-opt passes and shakes — checking every live entry after each.
void fuzz_cache(const Problem& p, std::uint64_t seed, const std::string& tag) {
    util::Rng rng(seed);
    InsertionCache cache(p);
    std::vector<std::size_t> tour{p.depot};
    auto in = mask_of(p, tour);
    cache.rebuild(tour, in);
    expect_cache_fresh(p, tour, in, cache, tag + " start");
    for (int step = 0; step < 60 && !::testing::Test::HasFailure(); ++step) {
        std::vector<std::size_t> live;
        for (std::size_t v = 0; v < p.size(); ++v) {
            if (!in[v] && p.prizes[v] > 0.0) live.push_back(v);
        }
        const double op = rng.uniform();
        std::string what;
        if (op < 0.6 && !live.empty()) {
            // Insert: a random live node (RCL pick) or the best prize per
            // delta (try_insert), at its cached position.
            std::size_t v = live[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(live.size()) - 1))];
            if (rng.bernoulli(0.5)) {
                double best = -1.0;
                for (std::size_t u : live) {
                    const double score =
                        p.prizes[u] / std::max(cache.get(u).delta, 1e-9);
                    if (score > best) {
                        best = score;
                        v = u;
                    }
                }
            }
            const std::size_t q = cache.get(v).position;
            tour.insert(tour.begin() + static_cast<std::ptrdiff_t>(q), v);
            in[v] = true;
            cache.on_insert(tour, q, in);
            what = "insert";
        } else if (op < 0.7 && tour.size() > 1) {
            // Replace a non-depot stop with any unvisited node.
            std::vector<std::size_t> out;
            for (std::size_t v = 0; v < p.size(); ++v) {
                if (!in[v]) out.push_back(v);
            }
            if (out.empty()) continue;
            const auto pos = static_cast<std::size_t>(rng.uniform_int(
                1, static_cast<std::int64_t>(tour.size()) - 1));
            const std::size_t u = out[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(out.size()) - 1))];
            in[tour[pos]] = false;
            in[u] = true;
            tour[pos] = u;
            cache.rebuild(tour, in);
            what = "replace";
        } else if (op < 0.85) {
            // 2-opt: the cache is rebuilt only when the tour moved.
            if (graph::two_opt(p.graph, tour) > 0.0) cache.rebuild(tour, in);
            what = "two_opt";
        } else {
            std::vector<std::size_t> keep{p.depot};
            for (std::size_t v : tour) {
                if (v != p.depot && !rng.bernoulli(0.3)) keep.push_back(v);
            }
            tour = std::move(keep);
            in = mask_of(p, tour);
            cache.rebuild(tour, in);
            what = "shake";
        }
        expect_cache_fresh(p, tour, in, cache,
                           tag + " step " + std::to_string(step) + " " + what);
    }
}

void expect_same_solution(const Solution& got, const Solution& want,
                          const std::string& tag) {
    EXPECT_EQ(got.tour, want.tour) << tag;
    EXPECT_TRUE(same_bits(got.cost, want.cost)) << tag;
    EXPECT_TRUE(same_bits(got.prize, want.prize)) << tag;
}

TEST(OrienteeringInsertionCache, TieHeavyFuzzMatchesFreshScan) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        fuzz_cache(tie_heavy_problem(seed), seed * 7919,
                   "seed " + std::to_string(seed));
        if (HasFailure()) break;
    }
}

TEST(OrienteeringInsertionCache, Alg1GraphFuzzMatchesFreshScan) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fuzz_cache(alg1_problem(seed, 40 + static_cast<int>(seed) * 10), seed,
                   "alg1 seed " + std::to_string(seed));
        if (HasFailure()) break;
    }
}

TEST(OrienteeringInsertionCache, SolversMatchScanOracle) {
    GraspConfig grasp;
    grasp.iterations = 3;
    IlsConfig ils;
    ils.iterations = 12;
    for (std::uint64_t seed = 1; seed <= 510; ++seed) {
        // Tie-heavy graphs, then the random points of the tests above.
        const Problem p =
            seed % 2 == 0 ? tie_heavy_problem(seed)
                          : random_problem(static_cast<int>(seed % 37) + 2,
                                           static_cast<double>(seed % 5) * 60.0,
                                           seed);
        grasp.seed = seed;
        ils.seed = seed;
        const std::string tag = "seed " + std::to_string(seed);
        expect_same_solution(solve_greedy(p), oracle::solve_greedy(p),
                             tag + " greedy");
        expect_same_solution(solve_grasp(p, grasp),
                             oracle::solve_grasp(p, grasp), tag + " grasp");
        expect_same_solution(solve_ils(p, ils), oracle::solve_ils(p, ils),
                             tag + " ils");
        if (HasFailure()) break;
    }
}

TEST(OrienteeringInsertionCache, Alg1PlansMatchScanOracle) {
    // Paper-preset instances at the service defaults (8 GRASP restarts).
    GraspConfig grasp;
    grasp.iterations = 8;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Problem p = alg1_problem(seed, 100 + static_cast<int>(seed) * 60);
        expect_same_solution(solve_grasp(p, grasp),
                             oracle::solve_grasp(p, grasp),
                             "alg1 seed " + std::to_string(seed));
    }
}

}  // namespace
}  // namespace uavdc::orienteering
