#include "uavdc/geom/aabb.hpp"

#include <gtest/gtest.h>

namespace uavdc::geom {
namespace {

TEST(Aabb, OfSize) {
    const Aabb b = Aabb::of_size(10.0, 20.0);
    EXPECT_EQ(b.lo, Vec2(0.0, 0.0));
    EXPECT_EQ(b.hi, Vec2(10.0, 20.0));
    EXPECT_DOUBLE_EQ(b.width(), 10.0);
    EXPECT_DOUBLE_EQ(b.height(), 20.0);
    EXPECT_DOUBLE_EQ(b.area(), 200.0);
}

TEST(Aabb, Center) {
    const Aabb b{{2.0, 4.0}, {6.0, 8.0}};
    EXPECT_EQ(b.center(), Vec2(4.0, 6.0));
}

TEST(Aabb, ContainsClosedBoundary) {
    const Aabb b = Aabb::of_size(10.0, 10.0);
    EXPECT_TRUE(b.contains({0.0, 0.0}));
    EXPECT_TRUE(b.contains({10.0, 10.0}));
    EXPECT_TRUE(b.contains({5.0, 5.0}));
    EXPECT_FALSE(b.contains({10.0001, 5.0}));
    EXPECT_FALSE(b.contains({-0.0001, 5.0}));
}

TEST(Aabb, Clamp) {
    const Aabb b = Aabb::of_size(10.0, 10.0);
    EXPECT_EQ(b.clamp({-5.0, 5.0}), Vec2(0.0, 5.0));
    EXPECT_EQ(b.clamp({15.0, 20.0}), Vec2(10.0, 10.0));
    EXPECT_EQ(b.clamp({3.0, 4.0}), Vec2(3.0, 4.0));
}

TEST(Aabb, Expanded) {
    const Aabb b = Aabb::of_size(1.0, 1.0);
    const Aabb e = b.expanded({5.0, -2.0});
    EXPECT_EQ(e.lo, Vec2(0.0, -2.0));
    EXPECT_EQ(e.hi, Vec2(5.0, 1.0));
}

TEST(Aabb, DistanceTo) {
    const Aabb b = Aabb::of_size(10.0, 10.0);
    EXPECT_DOUBLE_EQ(b.distance_to({5.0, 5.0}), 0.0);
    EXPECT_DOUBLE_EQ(b.distance_to({13.0, 14.0}), 5.0);
    EXPECT_DOUBLE_EQ(b.distance_to({-3.0, 5.0}), 3.0);
}

TEST(Aabb, IntersectsDisk) {
    const Aabb b = Aabb::of_size(10.0, 10.0);
    EXPECT_TRUE(b.intersects_disk({5.0, 5.0}, 0.1));
    EXPECT_TRUE(b.intersects_disk({12.0, 5.0}, 2.0));
    EXPECT_FALSE(b.intersects_disk({13.0, 14.0}, 4.9));
    EXPECT_TRUE(b.intersects_disk({13.0, 14.0}, 5.0));
}

TEST(Aabb, Equality) {
    EXPECT_EQ(Aabb::of_size(1.0, 2.0), Aabb::of_size(1.0, 2.0));
    EXPECT_FALSE(Aabb::of_size(1.0, 2.0) == Aabb::of_size(2.0, 1.0));
}

}  // namespace
}  // namespace uavdc::geom
