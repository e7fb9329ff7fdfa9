#include "uavdc/graph/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "uavdc/util/rng.hpp"

namespace uavdc::graph {
namespace {

std::vector<geom::Vec2> random_points(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    return pts;
}

TEST(TwoOpt, FixesObviousCrossing) {
    // Square visited in crossing order 0-2-1-3.
    const std::vector<geom::Vec2> pts{
        {0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
    const DenseGraph g = DenseGraph::euclidean(pts);
    std::vector<std::size_t> tour{0, 2, 1, 3};
    const double before = g.tour_length(tour);
    const double gain = two_opt(g, tour);
    EXPECT_GT(gain, 0.0);
    EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-12);
    EXPECT_NEAR(g.tour_length(tour), 4.0, 1e-12);
}

TEST(TwoOpt, NeverLengthens) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        const auto pts = random_points(30, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        std::vector<std::size_t> tour(pts.size());
        std::iota(tour.begin(), tour.end(), std::size_t{0});
        const double before = g.tour_length(tour);
        const double gain = two_opt(g, tour);
        EXPECT_GE(gain, 0.0);
        EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-9);
    }
}

TEST(TwoOpt, PreservesNodeSet) {
    const auto pts = random_points(25, 9);
    const DenseGraph g = DenseGraph::euclidean(pts);
    std::vector<std::size_t> tour(pts.size());
    std::iota(tour.begin(), tour.end(), std::size_t{0});
    two_opt(g, tour);
    const std::set<std::size_t> s(tour.begin(), tour.end());
    EXPECT_EQ(s.size(), pts.size());
}

TEST(TwoOpt, SmallToursUntouched) {
    const DenseGraph g(3);
    std::vector<std::size_t> tour{0, 1, 2};
    EXPECT_EQ(two_opt(g, tour), 0.0);
    EXPECT_EQ(tour, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OrOpt, RelocatesProfitableSegment) {
    // Points on a line; tour visits 4 out of order: 0 1 2 4 3 5 -> or-opt
    // should recover the sweep order (or an equally short tour).
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 6; ++i) pts.push_back({static_cast<double>(i), 0.0});
    const DenseGraph g = DenseGraph::euclidean(pts);
    std::vector<std::size_t> tour{0, 1, 2, 4, 3, 5};
    const double before = g.tour_length(tour);
    or_opt(g, tour);
    EXPECT_LE(g.tour_length(tour), before);
    EXPECT_NEAR(g.tour_length(tour), 10.0, 1e-9);
}

TEST(OrOpt, NeverLengthensAndKeepsSet) {
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        const auto pts = random_points(20, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        std::vector<std::size_t> tour(pts.size());
        std::iota(tour.begin(), tour.end(), std::size_t{0});
        const double before = g.tour_length(tour);
        const double gain = or_opt(g, tour);
        EXPECT_GE(gain, 0.0);
        EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-9);
        const std::set<std::size_t> s(tour.begin(), tour.end());
        EXPECT_EQ(s.size(), pts.size());
        EXPECT_EQ(tour.front(), 0u);  // starting node preserved
    }
}

TEST(CheapestInsertion, EmptyAndSingleTour) {
    DenseGraph g(3);
    g.set_weight(0, 1, 2.0);
    g.set_weight(0, 2, 3.0);
    g.set_weight(1, 2, 4.0);
    const auto e = cheapest_insertion(g, {}, 1);
    EXPECT_EQ(e.position, 0u);
    EXPECT_DOUBLE_EQ(e.delta, 0.0);
    const auto s = cheapest_insertion(g, {0}, 2);
    EXPECT_DOUBLE_EQ(s.delta, 6.0);
}

TEST(CheapestInsertion, PicksBestEdge) {
    // Line 0---10, insert point at x=5: delta 0 on that edge.
    const std::vector<geom::Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {5.0, 0.0},
                                      {5.0, 10.0}};
    const DenseGraph g = DenseGraph::euclidean(pts);
    const std::vector<std::size_t> tour{0, 1};
    const auto ins = cheapest_insertion(g, tour, 2);
    EXPECT_NEAR(ins.delta, 0.0, 1e-12);
    // Point off the line costs the detour.
    const auto far = cheapest_insertion(g, tour, 3);
    EXPECT_GT(far.delta, 10.0);
}

TEST(NeighborLists, OrderedByWeightThenIndex) {
    const auto pts = random_points(40, 31);
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto nb = nearest_neighbor_lists(pts, 8);
    ASSERT_EQ(nb.size(), pts.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
        ASSERT_EQ(nb[i].size(), 8u);
        for (std::size_t t = 0; t < nb[i].size(); ++t) {
            EXPECT_NE(nb[i][t], i);
            if (t > 0) {
                const double prev = g.weight(i, nb[i][t - 1]);
                const double cur = g.weight(i, nb[i][t]);
                EXPECT_TRUE(prev < cur ||
                            (prev == cur && nb[i][t - 1] < nb[i][t]))
                    << "node " << i << " slot " << t;
            }
        }
        // The k-th list entry really is the k-th smallest weight overall.
        std::vector<double> all;
        for (std::size_t j = 0; j < pts.size(); ++j) {
            if (j != i) all.push_back(g.weight(i, j));
        }
        std::sort(all.begin(), all.end());
        EXPECT_EQ(g.weight(i, nb[i].back()), all[7]) << "node " << i;
    }
}

TEST(NeighborLists, KClampedToGraphSize) {
    const auto pts = random_points(5, 32);
    const auto nb = nearest_neighbor_lists(pts, 50);
    for (const auto& list : nb) EXPECT_EQ(list.size(), 4u);
}

TEST(NeighborLists, TieHeavyMatchesFullSort) {
    // Grid-aligned points with duplicates: many equal weights per row, so
    // the index tie-break decides most slots.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        util::Rng rng(seed);
        const int n = static_cast<int>(rng.uniform_int(2, 30));
        std::vector<geom::Vec2> pts;
        for (int i = 0; i < n; ++i) {
            if (i > 0 && rng.bernoulli(0.3)) {
                pts.push_back(pts[static_cast<std::size_t>(
                    rng.uniform_int(0, i - 1))]);
            } else {
                pts.push_back({static_cast<double>(rng.uniform_int(0, 3)),
                               static_cast<double>(rng.uniform_int(0, 3))});
            }
        }
        const DenseGraph g = DenseGraph::euclidean(pts);
        const auto un = static_cast<std::size_t>(n);
        for (std::size_t k = 1; k <= un + 2; ++k) {
            const auto nb = nearest_neighbor_lists(pts, k);
            ASSERT_EQ(nb.size(), un);
            for (std::size_t i = 0; i < un; ++i) {
                std::vector<std::pair<double, std::size_t>> row;
                for (std::size_t j = 0; j < un; ++j) {
                    if (j != i) row.emplace_back(g.weight(i, j), j);
                }
                std::sort(row.begin(), row.end());
                std::vector<std::size_t> want;
                for (std::size_t t = 0; t < std::min(k, un - 1); ++t) {
                    want.push_back(row[t].second);
                }
                EXPECT_EQ(nb[i], want)
                    << "seed " << seed << " k " << k << " node " << i;
            }
        }
    }
}

TEST(TwoOptNeighbors, FixesObviousCrossing) {
    const std::vector<geom::Vec2> pts{
        {0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto nb = nearest_neighbor_lists(pts, 3);
    std::vector<std::size_t> tour{0, 2, 1, 3};
    const double before = g.tour_length(tour);
    const double gain = two_opt_neighbors(g, tour, nb);
    EXPECT_GT(gain, 0.0);
    EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-12);
    EXPECT_NEAR(g.tour_length(tour), 4.0, 1e-12);
}

TEST(TwoOptNeighbors, NeverLengthensKeepsSetAndAnchor) {
    for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
        const auto pts = random_points(60, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        const auto nb = nearest_neighbor_lists(pts, 10);
        std::vector<std::size_t> tour(pts.size());
        std::iota(tour.begin(), tour.end(), std::size_t{0});
        const double before = g.tour_length(tour);
        const double gain = two_opt_neighbors(g, tour, nb);
        EXPECT_GE(gain, 0.0);
        EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-9);
        const std::set<std::size_t> s(tour.begin(), tour.end());
        EXPECT_EQ(s.size(), pts.size());
        EXPECT_EQ(tour.front(), 0u);
    }
}

TEST(TwoOptNeighbors, ComparableToFullTwoOpt) {
    // With generous neighbour lists the pruned search should land within a
    // few percent of the full O(n^2) pass on random instances.
    for (std::uint64_t seed : {51u, 52u}) {
        const auto pts = random_points(50, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        const auto nb = nearest_neighbor_lists(pts, 12);
        std::vector<std::size_t> full(pts.size());
        std::iota(full.begin(), full.end(), std::size_t{0});
        std::vector<std::size_t> pruned = full;
        two_opt(g, full);
        two_opt_neighbors(g, pruned, nb);
        EXPECT_LE(g.tour_length(pruned), 1.10 * g.tour_length(full));
    }
}

TEST(OrOptNeighbors, RelocatesProfitableSegment) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 6; ++i) pts.push_back({static_cast<double>(i), 0.0});
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto nb = nearest_neighbor_lists(pts, 5);
    std::vector<std::size_t> tour{0, 1, 2, 4, 3, 5};
    const double before = g.tour_length(tour);
    or_opt_neighbors(g, tour, nb);
    EXPECT_LE(g.tour_length(tour), before);
    EXPECT_NEAR(g.tour_length(tour), 10.0, 1e-9);
}

TEST(OrOptNeighbors, NeverLengthensKeepsSetAndAnchor) {
    for (std::uint64_t seed : {61u, 62u, 63u}) {
        const auto pts = random_points(45, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        const auto nb = nearest_neighbor_lists(pts, 10);
        std::vector<std::size_t> tour(pts.size());
        std::iota(tour.begin(), tour.end(), std::size_t{0});
        const double before = g.tour_length(tour);
        const double gain = or_opt_neighbors(g, tour, nb);
        EXPECT_GE(gain, 0.0);
        EXPECT_NEAR(g.tour_length(tour), before - gain, 1e-9);
        const std::set<std::size_t> s(tour.begin(), tour.end());
        EXPECT_EQ(s.size(), pts.size());
        EXPECT_EQ(tour.front(), 0u);
    }
}

}  // namespace
}  // namespace uavdc::graph
