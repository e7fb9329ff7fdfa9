#include "uavdc/graph/matching.hpp"

#include <gtest/gtest.h>

#include "uavdc/util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "uavdc/util/rng.hpp"
#include "uavdc/util/thread_pool.hpp"

namespace uavdc::graph {
namespace {

DenseGraph random_euclidean(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    return DenseGraph::euclidean(pts);
}

void check_perfect(const Matching& m, const std::vector<std::size_t>& nodes) {
    std::set<std::size_t> seen;
    for (const auto& [u, v] : m) {
        EXPECT_NE(u, v);
        EXPECT_TRUE(seen.insert(u).second) << "node matched twice: " << u;
        EXPECT_TRUE(seen.insert(v).second) << "node matched twice: " << v;
    }
    EXPECT_EQ(seen.size(), nodes.size());
    for (std::size_t n : nodes) EXPECT_TRUE(seen.count(n));
}

TEST(Matching, EmptySet) {
    const DenseGraph g(4);
    EXPECT_TRUE(exact_min_matching(g, {}).empty());
    EXPECT_TRUE(greedy_min_matching(g, {}).empty());
}

TEST(Matching, OddSetThrows) {
    const DenseGraph g(5);
    EXPECT_THROW(exact_min_matching(g, {0, 1, 2}), util::ContractViolation);
    EXPECT_THROW(greedy_min_matching(g, {0, 1, 2}), util::ContractViolation);
    EXPECT_THROW(min_weight_matching(g, {0}), util::ContractViolation);
}

TEST(Matching, PairOfNodes) {
    DenseGraph g(2);
    g.set_weight(0, 1, 4.2);
    const auto m = exact_min_matching(g, {0, 1});
    ASSERT_EQ(m.size(), 1u);
    EXPECT_DOUBLE_EQ(matching_weight(g, m), 4.2);
}

TEST(Matching, ExactFindsOptimalOnKnownInstance) {
    // 4 points on a line at 0, 1, 10, 11: optimal pairs (0,1) and (10,11)
    // with weight 2; pairing across the gap costs >= 18.
    DenseGraph g(4);
    const double xs[] = {0.0, 1.0, 10.0, 11.0};
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = i + 1; j < 4; ++j) {
            g.set_weight(i, j, std::abs(xs[i] - xs[j]));
        }
    }
    const auto m = exact_min_matching(g, {0, 1, 2, 3});
    EXPECT_DOUBLE_EQ(matching_weight(g, m), 2.0);
    check_perfect(m, {0, 1, 2, 3});
}

TEST(Matching, ExactBeatsOrEqualsGreedyRandom) {
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        const DenseGraph g = random_euclidean(12, seed);
        std::vector<std::size_t> nodes(12);
        std::iota(nodes.begin(), nodes.end(), std::size_t{0});
        const auto exact = exact_min_matching(g, nodes);
        const auto greedy = greedy_min_matching(g, nodes);
        check_perfect(exact, nodes);
        check_perfect(greedy, nodes);
        EXPECT_LE(matching_weight(g, exact),
                  matching_weight(g, greedy) + 1e-9)
            << "seed " << seed;
    }
}

TEST(Matching, GreedyWithinFactorOfExactOnSmallRandom) {
    // Greedy + 2-swap should stay close to optimal on Euclidean instances.
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        const DenseGraph g = random_euclidean(14, seed);
        std::vector<std::size_t> nodes(14);
        std::iota(nodes.begin(), nodes.end(), std::size_t{0});
        const double we = matching_weight(g, exact_min_matching(g, nodes));
        const double wg = matching_weight(g, greedy_min_matching(g, nodes));
        EXPECT_LE(wg, 1.5 * we + 1e-9) << "seed " << seed;
    }
}

TEST(Matching, GreedyHandlesLargeSets) {
    const DenseGraph g = random_euclidean(200, 31);
    std::vector<std::size_t> nodes(200);
    std::iota(nodes.begin(), nodes.end(), std::size_t{0});
    const auto m = greedy_min_matching(g, nodes);
    check_perfect(m, nodes);
    EXPECT_GT(matching_weight(g, m), 0.0);
}

TEST(Matching, DispatchUsesExactBelowLimit) {
    const DenseGraph g = random_euclidean(10, 41);
    std::vector<std::size_t> nodes(10);
    std::iota(nodes.begin(), nodes.end(), std::size_t{0});
    const auto dispatched = min_weight_matching(g, nodes, 18);
    const auto exact = exact_min_matching(g, nodes);
    EXPECT_NEAR(matching_weight(g, dispatched), matching_weight(g, exact),
                1e-12);
}

TEST(Matching, DispatchHandlesSubsetsOfLargerGraph) {
    const DenseGraph g = random_euclidean(30, 51);
    const std::vector<std::size_t> nodes{3, 7, 12, 25};
    const auto m = min_weight_matching(g, nodes);
    check_perfect(m, nodes);
}

TEST(Matching, ExactTooLargeThrows) {
    const DenseGraph g(30);
    std::vector<std::size_t> nodes(24);
    std::iota(nodes.begin(), nodes.end(), std::size_t{0});
    EXPECT_THROW(exact_min_matching(g, nodes), util::ContractViolation);
}

// ---- Oracle: the full-table bitmask DP, frozen as a reference ----------

/// The full-table form of exact_min_matching's DP: fills dp/choice for
/// every mask in ascending order. The production function visits only the
/// reachable masks and is held to this one pair for pair. Assumes some
/// pairing weighs less than +inf.
Matching dense_reference_matching(const DenseGraph& g,
                                  const std::vector<std::size_t>& nodes) {
    const std::size_t k = nodes.size();
    Matching result;
    if (k == 0) return result;
    const std::size_t full = (std::size_t{1} << k) - 1;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dp(full + 1, kInf);
    std::vector<int> choice(full + 1, -1);
    dp[0] = 0.0;
    for (std::size_t mask = 1; mask <= full; ++mask) {
        const unsigned bits =
            static_cast<unsigned>(__builtin_popcountll(mask));
        if (bits % 2 != 0) continue;
        std::size_t i = 0;
        while (!(mask & (std::size_t{1} << i))) ++i;
        for (std::size_t j = i + 1; j < k; ++j) {
            if (!(mask & (std::size_t{1} << j))) continue;
            const std::size_t pm =
                mask ^ (std::size_t{1} << i) ^ (std::size_t{1} << j);
            if (dp[pm] == kInf) continue;
            const double cand = dp[pm] + g.weight(nodes[i], nodes[j]);
            if (cand < dp[mask]) {
                dp[mask] = cand;
                choice[mask] = static_cast<int>(j);
            }
        }
    }
    std::size_t mask = full;
    while (mask) {
        std::size_t i = 0;
        while (!(mask & (std::size_t{1} << i))) ++i;
        const auto j = static_cast<std::size_t>(choice[mask]);
        result.emplace_back(nodes[i], nodes[j]);
        mask ^= (std::size_t{1} << i) | (std::size_t{1} << j);
    }
    return result;
}

/// Minimum weight over every perfect matching of `nodes`, by enumeration
/// (the lowest unmatched node pairs with each other one in turn).
double brute_force_min_weight(const DenseGraph& g,
                              std::vector<std::size_t> nodes) {
    if (nodes.empty()) return 0.0;
    double best = std::numeric_limits<double>::infinity();
    const std::size_t a = nodes[0];
    for (std::size_t t = 1; t < nodes.size(); ++t) {
        std::vector<std::size_t> rest;
        for (std::size_t u = 1; u < nodes.size(); ++u) {
            if (u != t) rest.push_back(nodes[u]);
        }
        best = std::min(best, g.weight(a, nodes[t]) +
                                  brute_force_min_weight(g, rest));
    }
    return best;
}

/// One oracle case: a graph and the ordered node subset to match.
struct OracleCase {
    DenseGraph g;
    std::vector<std::size_t> nodes;
    std::string kind;
};

/// Case `index` of size k, cycling through four layouts: random Euclidean
/// points; integer-grid points (many equal weights, so ties decide);
/// duplicated points (zero weights); and a shuffled subset of a larger
/// graph's ids, so node ids are neither contiguous nor sorted.
OracleCase oracle_case(std::size_t k, std::uint64_t index) {
    util::Rng rng(1000003 * k + index);
    std::vector<geom::Vec2> pts;
    OracleCase c;
    switch (index % 4) {
        case 0:
            c.kind = "euclidean";
            for (std::size_t i = 0; i < k; ++i) {
                pts.push_back({rng.uniform(0.0, 100.0),
                               rng.uniform(0.0, 100.0)});
            }
            break;
        case 1:
            c.kind = "integer grid";
            for (std::size_t i = 0; i < k; ++i) {
                pts.push_back(
                    {static_cast<double>(rng.uniform_int(0, 4)),
                     static_cast<double>(rng.uniform_int(0, 4))});
            }
            break;
        case 2:
            c.kind = "duplicates";
            for (std::size_t i = 0; i < k / 2; ++i) {
                const geom::Vec2 p{rng.uniform(0.0, 100.0),
                                   rng.uniform(0.0, 100.0)};
                pts.push_back(p);
                pts.push_back(p);
            }
            std::shuffle(pts.begin(), pts.end(), rng);
            break;
        default: {
            c.kind = "subset";
            const std::size_t n = 2 * k + 7;
            for (std::size_t i = 0; i < n; ++i) {
                pts.push_back({rng.uniform(0.0, 100.0),
                               rng.uniform(0.0, 100.0)});
            }
            std::vector<std::size_t> ids(n);
            std::iota(ids.begin(), ids.end(), std::size_t{0});
            std::shuffle(ids.begin(), ids.end(), rng);
            ids.resize(k);
            c.g = DenseGraph::euclidean(pts);
            c.nodes = std::move(ids);
            return c;
        }
    }
    c.g = DenseGraph::euclidean(pts);
    c.nodes.resize(k);
    std::iota(c.nodes.begin(), c.nodes.end(), std::size_t{0});
    return c;
}

/// Cases per even k for the oracle sweep: many where the dense reference
/// is cheap, fewer where it fills 2^k entries.
std::uint64_t oracle_cases_for(std::size_t k) {
    if (k <= 12) return 72;
    if (k == 14) return 40;
    if (k == 16) return 24;
    return 12;
}

TEST(Matching, ExactEqualsDenseReferencePairForPair) {
    std::size_t cases = 0;
    for (std::size_t k = 2; k <= 18; k += 2) {
        for (std::uint64_t idx = 0; idx < oracle_cases_for(k); ++idx) {
            const OracleCase c = oracle_case(k, idx);
            const Matching want = dense_reference_matching(c.g, c.nodes);
            const Matching got = exact_min_matching(c.g, c.nodes);
            ASSERT_EQ(got, want) << "k=" << k << " case " << idx << " ("
                                 << c.kind << ")";
            if (k <= 10) {
                EXPECT_NEAR(matching_weight(c.g, got),
                            brute_force_min_weight(c.g, c.nodes), 1e-9)
                    << "k=" << k << " case " << idx << " (" << c.kind << ")";
            }
            ++cases;
        }
    }
    EXPECT_GE(cases, 500u);
}

TEST(Matching, ExactEqualsDenseReferenceAtLargeK) {
    for (const auto& [k, idx] :
         std::vector<std::pair<std::size_t, std::uint64_t>>{
             {20, 0}, {20, 1}, {22, 3}}) {
        const OracleCase c = oracle_case(k, idx);
        ASSERT_EQ(exact_min_matching(c.g, c.nodes),
                  dense_reference_matching(c.g, c.nodes))
            << "k=" << k << " (" << c.kind << ")";
    }
}

TEST(Matching, ExactNoFinitePairingThrows) {
    for (const double v : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
        DenseGraph g(4);
        for (std::size_t i = 0; i < 4; ++i) {
            for (std::size_t j = i + 1; j < 4; ++j) g.set_weight(i, j, v);
        }
        try {
            (void)exact_min_matching(g, {0, 1, 2, 3});
            ADD_FAILURE() << "no throw for weight " << v;
        } catch (const util::ContractViolation& e) {
            EXPECT_NE(e.message().find("k=4"), std::string::npos)
                << e.message();
        }
    }
    // The thread's scratch is still good for the next call.
    const DenseGraph g = random_euclidean(6, 61);
    const std::vector<std::size_t> nodes{0, 1, 2, 3, 4, 5};
    EXPECT_EQ(exact_min_matching(g, nodes),
              dense_reference_matching(g, nodes));
}

TEST(Matching, ConcurrentCallsAgree) {
    // Mixed k, so threads grow and reuse their scratch at different sizes.
    const DenseGraph g = random_euclidean(40, 71);
    std::vector<std::vector<std::size_t>> subsets;
    util::Rng rng(72);
    for (std::size_t t = 0; t < 48; ++t) {
        const std::size_t k = 2 * (1 + t % 9);  // 2..18
        std::vector<std::size_t> ids(g.size());
        std::iota(ids.begin(), ids.end(), std::size_t{0});
        std::shuffle(ids.begin(), ids.end(), rng);
        ids.resize(k);
        subsets.push_back(std::move(ids));
    }
    std::vector<Matching> serial;
    for (const auto& nodes : subsets) {
        serial.push_back(exact_min_matching(g, nodes));
    }
    util::ThreadPool pool(4);
    std::vector<std::future<Matching>> futures;
    for (const auto& nodes : subsets) {
        futures.push_back(
            pool.submit([&g, &nodes] { return exact_min_matching(g, nodes); }));
    }
    for (std::size_t t = 0; t < futures.size(); ++t) {
        EXPECT_EQ(futures[t].get(), serial[t]) << "subset " << t;
    }
}

}  // namespace
}  // namespace uavdc::graph
