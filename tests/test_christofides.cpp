#include "uavdc/graph/christofides.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "uavdc/graph/local_search.hpp"
#include "uavdc/graph/mst.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc::graph {
namespace {

std::vector<geom::Vec2> random_points(int n, std::uint64_t seed,
                                      double side = 100.0) {
    util::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    return pts;
}

void check_is_tour(const std::vector<std::size_t>& tour, std::size_t n,
                   std::size_t start) {
    ASSERT_EQ(tour.size(), n);
    EXPECT_EQ(tour.front(), start);
    std::set<std::size_t> seen(tour.begin(), tour.end());
    EXPECT_EQ(seen.size(), n) << "tour repeats a node";
}

/// Brute-force optimal tour for tiny n.
double brute_force_opt(const DenseGraph& g) {
    std::vector<std::size_t> perm(g.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    double best = 1e18;
    do {
        best = std::min(best, g.tour_length(perm));
    } while (std::next_permutation(perm.begin() + 1, perm.end()));
    return best;
}

TEST(Christofides, TrivialSizes) {
    EXPECT_TRUE(christofides_tour(DenseGraph(0)).empty());
    EXPECT_EQ(christofides_tour(DenseGraph(1)),
              std::vector<std::size_t>{0});
    DenseGraph g2(2);
    g2.set_weight(0, 1, 1.0);
    EXPECT_EQ(christofides_tour(g2, 0),
              (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(christofides_tour(g2, 1),
              (std::vector<std::size_t>{1, 0}));
}

TEST(Christofides, VisitsEveryNodeOnce) {
    const auto pts = random_points(40, 5);
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto tour = christofides_tour(g, 0);
    check_is_tour(tour, g.size(), 0);
}

TEST(Christofides, RespectsStartNode) {
    const auto pts = random_points(15, 6);
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto tour = christofides_tour(g, 7);
    check_is_tour(tour, g.size(), 7);
}

TEST(Christofides, AtMostTwiceMstLowerBound) {
    // MST weight is a lower bound on the optimal tour; Christofides (even
    // with greedy matching) stays within 2x MST on Euclidean instances.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        const auto pts = random_points(60, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        const double mst_w = total_weight(mst_prim(g));
        const double tour_w = g.tour_length(christofides_tour(g, 0));
        EXPECT_LE(tour_w, 2.0 * mst_w + 1e-9) << "seed " << seed;
        EXPECT_GE(tour_w, mst_w - 1e-9) << "seed " << seed;
    }
}

TEST(Christofides, NearOptimalOnTinyInstances) {
    for (std::uint64_t seed : {10u, 11u, 12u, 13u}) {
        const auto pts = random_points(8, seed);
        const DenseGraph g = DenseGraph::euclidean(pts);
        const double opt = brute_force_opt(g);
        const double got = g.tour_length(christofides_tour(g, 0));
        EXPECT_LE(got, 1.5 * opt + 1e-9) << "seed " << seed;
    }
}

TEST(Christofides, CollinearPoints) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto tour = christofides_tour(g, 0);
    check_is_tour(tour, 10, 0);
    // Optimal is 18 (sweep right and come back).
    EXPECT_NEAR(g.tour_length(tour), 18.0, 1e-9);
}

TEST(Christofides, CoincidentPoints) {
    const std::vector<geom::Vec2> pts{
        {0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}};
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto tour = christofides_tour(g, 0);
    check_is_tour(tour, 4, 0);
    EXPECT_NEAR(g.tour_length(tour), 2.0, 1e-9);
}

TEST(Christofides, PolishNeverLengthensTheShortcutTour) {
    const auto pts = random_points(30, 20);
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto rough = christofides_tour(g, 0);
    auto polished = rough;
    two_opt(g, polished);
    or_opt(g, polished);
    check_is_tour(rough, g.size(), 0);
    EXPECT_LE(g.tour_length(polished), g.tour_length(rough) + 1e-9);
}

TEST(EuclideanTourLength, MatchesGraph) {
    const auto pts = random_points(12, 44);
    const DenseGraph g = DenseGraph::euclidean(pts);
    const auto tour = christofides_tour(g, 0);
    EXPECT_NEAR(euclidean_tour_length(pts, tour), g.tour_length(tour), 1e-9);
}

}  // namespace
}  // namespace uavdc::graph
