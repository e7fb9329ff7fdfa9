#include "hull_oracle.hpp"

#include <gtest/gtest.h>

#include "uavdc/graph/christofides.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc::testing::hull_oracle {
namespace {

TEST(ConvexHull, Degenerate) {
    EXPECT_TRUE(convex_hull(std::vector<Vec2>{}).empty());
    EXPECT_EQ(convex_hull(std::vector<Vec2>{{1.0, 2.0}}).size(), 1u);
    const std::vector<Vec2> two{{0.0, 0.0}, {1.0, 1.0}};
    EXPECT_EQ(convex_hull(two).size(), 2u);
    // Duplicates collapse.
    const std::vector<Vec2> dup{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(convex_hull(dup).size(), 1u);
}

TEST(ConvexHull, Square) {
    const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0},
                                {0.0, 1.0}, {0.5, 0.5}};
    const auto hull = convex_hull(pts);
    EXPECT_EQ(hull.size(), 4u);
    EXPECT_NEAR(polygon_perimeter(hull), 4.0, 1e-12);
}

TEST(ConvexHull, CollinearPointsDropped) {
    const std::vector<Vec2> pts{
        {0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
    const auto hull = convex_hull(pts);
    EXPECT_EQ(hull.size(), 4u);  // (1,0) lies on an edge
}

TEST(ConvexHull, CounterClockwiseOrientation) {
    util::Rng rng(4);
    std::vector<Vec2> pts;
    for (int i = 0; i < 50; ++i) {
        pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    }
    const auto hull = convex_hull(pts);
    ASSERT_GE(hull.size(), 3u);
    double area2 = 0.0;
    for (std::size_t i = 0; i < hull.size(); ++i) {
        area2 += hull[i].cross(hull[(i + 1) % hull.size()]);
    }
    EXPECT_GT(area2, 0.0);  // CCW => positive signed area
}

TEST(ConvexHull, ContainsAllInputPoints) {
    util::Rng rng(5);
    std::vector<Vec2> pts;
    for (int i = 0; i < 80; ++i) {
        pts.push_back({rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)});
    }
    const auto hull = convex_hull(pts);
    ASSERT_GE(hull.size(), 3u);
    // Inside a CCW hull means left of (or on) every edge.
    for (const auto& p : pts) {
        for (std::size_t i = 0; i < hull.size(); ++i) {
            const Vec2& a = hull[i];
            const Vec2& b = hull[(i + 1) % hull.size()];
            EXPECT_GE((b - a).cross(p - a), -1e-9);
        }
    }
}

TEST(ConvexHull, TourLowerBoundProperty) {
    // Any closed tour through all points is at least the hull perimeter.
    for (std::uint64_t seed : {7u, 8u, 9u}) {
        util::Rng rng(seed);
        std::vector<Vec2> pts;
        for (int i = 0; i < 30; ++i) {
            pts.push_back({rng.uniform(0.0, 100.0),
                           rng.uniform(0.0, 100.0)});
        }
        const auto g = graph::DenseGraph::euclidean(pts);
        const auto tour = graph::christofides_tour(g, 0);
        const double tour_len = g.tour_length(tour);
        const double hull_len = polygon_perimeter(convex_hull(pts));
        EXPECT_GE(tour_len, hull_len - 1e-9) << "seed " << seed;
    }
}

}  // namespace
}  // namespace uavdc::testing::hull_oracle
