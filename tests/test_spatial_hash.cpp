#include "uavdc/geom/spatial_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "uavdc/util/rng.hpp"

namespace uavdc::geom {
namespace {

std::vector<Vec2> random_points(int n, double side, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<Vec2> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    return pts;
}

std::vector<int> brute_force_disk(const std::vector<Vec2>& pts, const Vec2& q,
                                  double r) {
    std::vector<int> out;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (distance(pts[i], q) <= r) out.push_back(static_cast<int>(i));
    }
    return out;
}

TEST(SpatialHash, EmptyIndex) {
    const SpatialHash h(std::vector<Vec2>{}, 10.0);
    EXPECT_EQ(h.size(), 0u);
    EXPECT_TRUE(h.query_disk({0.0, 0.0}, 100.0).empty());
    EXPECT_EQ(h.nearest({0.0, 0.0}), -1);
}

TEST(SpatialHash, RejectsBadCellSize) {
    const std::vector<Vec2> pts{{0.0, 0.0}};
    EXPECT_THROW(SpatialHash(pts, 0.0), std::invalid_argument);
    EXPECT_THROW(SpatialHash(pts, -3.0), std::invalid_argument);
}

TEST(SpatialHash, SinglePoint) {
    const std::vector<Vec2> pts{{5.0, 5.0}};
    const SpatialHash h(pts, 1.0);
    EXPECT_EQ(h.query_disk({5.0, 5.0}, 0.0), std::vector<int>{0});
    EXPECT_TRUE(h.query_disk({7.0, 5.0}, 1.0).empty());
    EXPECT_EQ(h.nearest({100.0, 100.0}), 0);
}

TEST(SpatialHash, DiskQueryMatchesBruteForce) {
    const auto pts = random_points(400, 1000.0, 42);
    const SpatialHash h(pts, 50.0);
    util::Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        const Vec2 q{rng.uniform(-100.0, 1100.0),
                     rng.uniform(-100.0, 1100.0)};
        const double r = rng.uniform(0.0, 200.0);
        EXPECT_EQ(h.query_disk(q, r), brute_force_disk(pts, q, r))
            << "trial " << trial;
    }
}

TEST(SpatialHash, DiskQuerySortedAscending) {
    const auto pts = random_points(200, 500.0, 3);
    const SpatialHash h(pts, 40.0);
    const auto res = h.query_disk({250.0, 250.0}, 120.0);
    EXPECT_TRUE(std::is_sorted(res.begin(), res.end()));
}

TEST(SpatialHash, NegativeRadiusIsEmpty) {
    const auto pts = random_points(10, 100.0, 5);
    const SpatialHash h(pts, 10.0);
    EXPECT_TRUE(h.query_disk({50.0, 50.0}, -1.0).empty());
}

TEST(SpatialHash, NearestMatchesBruteForce) {
    const auto pts = random_points(300, 800.0, 11);
    const SpatialHash h(pts, 60.0);
    util::Rng rng(123);
    for (int trial = 0; trial < 40; ++trial) {
        const Vec2 q{rng.uniform(-200.0, 1000.0),
                     rng.uniform(-200.0, 1000.0)};
        const int got = h.nearest(q);
        ASSERT_GE(got, 0);
        double best = 1e18;
        int want = -1;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const double d = distance(pts[i], q);
            if (d < best) {
                best = d;
                want = static_cast<int>(i);
            }
        }
        EXPECT_DOUBLE_EQ(distance(pts[static_cast<std::size_t>(got)], q),
                         distance(pts[static_cast<std::size_t>(want)], q))
            << "trial " << trial;
    }
}

TEST(SpatialHash, ForEachVisitsEachMatchOnce) {
    const auto pts = random_points(150, 300.0, 77);
    const SpatialHash h(pts, 30.0);
    std::vector<int> counts(pts.size(), 0);
    h.for_each_in_disk({150.0, 150.0}, 90.0, [&](int i) {
        ++counts[static_cast<std::size_t>(i)];
    });
    const auto expect = brute_force_disk(pts, {150.0, 150.0}, 90.0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const bool inside =
            std::find(expect.begin(), expect.end(), static_cast<int>(i)) !=
            expect.end();
        EXPECT_EQ(counts[i], inside ? 1 : 0);
    }
}

TEST(SpatialHash, CoincidentPoints) {
    const std::vector<Vec2> pts{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
    const SpatialHash h(pts, 5.0);
    EXPECT_EQ(h.query_disk({1.0, 1.0}, 0.0).size(), 3u);
}

}  // namespace
}  // namespace uavdc::geom
