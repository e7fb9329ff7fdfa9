#include "uavdc/geom/grid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace uavdc::geom {
namespace {

TEST(Grid, DimensionsExactFit) {
    const Grid g(Aabb::of_size(100.0, 50.0), 10.0);
    EXPECT_EQ(g.nx(), 10);
    EXPECT_EQ(g.ny(), 5);
    EXPECT_EQ(g.num_cells(), 50);
}

TEST(Grid, DimensionsRoundUp) {
    const Grid g(Aabb::of_size(101.0, 49.0), 10.0);
    EXPECT_EQ(g.nx(), 11);
    EXPECT_EQ(g.ny(), 5);
}

TEST(Grid, TinyRegionHasOneCell) {
    const Grid g(Aabb::of_size(1.0, 1.0), 10.0);
    EXPECT_EQ(g.num_cells(), 1);
    EXPECT_EQ(g.center(0), Vec2(5.0, 5.0));
}

TEST(Grid, RejectsNonPositiveDelta) {
    EXPECT_THROW(Grid(Aabb::of_size(10.0, 10.0), 0.0),
                 std::invalid_argument);
    EXPECT_THROW(Grid(Aabb::of_size(10.0, 10.0), -1.0),
                 std::invalid_argument);
}

TEST(Grid, CenterOfFirstAndLastCells) {
    const Grid g(Aabb::of_size(100.0, 100.0), 10.0);
    EXPECT_EQ(g.center(0), Vec2(5.0, 5.0));
    EXPECT_EQ(g.center(g.num_cells() - 1), Vec2(95.0, 95.0));
}

TEST(Grid, RowMajorIndexing) {
    const Grid g(Aabb::of_size(30.0, 20.0), 10.0);  // 3 x 2
    EXPECT_EQ(g.id_of(0, 0), 0);
    EXPECT_EQ(g.id_of(2, 0), 2);
    EXPECT_EQ(g.id_of(0, 1), 3);
    EXPECT_EQ(g.ix_of(5), 2);
    EXPECT_EQ(g.iy_of(5), 1);
}

TEST(Grid, CellOfRoundTrip) {
    const Grid g(Aabb::of_size(100.0, 100.0), 10.0);
    for (int id = 0; id < g.num_cells(); ++id) {
        EXPECT_EQ(g.cell_of(g.center(id)), id);
    }
}

TEST(Grid, CellOfClampsOutside) {
    const Grid g(Aabb::of_size(100.0, 100.0), 10.0);
    EXPECT_EQ(g.cell_of({-5.0, -5.0}), 0);
    EXPECT_EQ(g.cell_of({200.0, 200.0}), g.num_cells() - 1);
}

TEST(Grid, CellBoxContainsCenter) {
    const Grid g(Aabb::of_size(100.0, 100.0), 7.0);
    for (int id = 0; id < g.num_cells(); ++id) {
        EXPECT_TRUE(g.cell_box(id).contains(g.center(id)));
    }
}

TEST(Grid, CellsWithCenterInDiskMatchesBruteForce) {
    const Grid g(Aabb::of_size(100.0, 100.0), 5.0);
    const Vec2 q{37.0, 61.0};
    const double r = 17.5;
    const auto fast = g.cells_with_center_in_disk(q, r);
    std::vector<int> slow;
    for (int id = 0; id < g.num_cells(); ++id) {
        if (distance(g.center(id), q) <= r) slow.push_back(id);
    }
    EXPECT_EQ(fast, slow);
    EXPECT_FALSE(fast.empty());
}

TEST(Grid, CellsWithCenterInDiskEmptyForNegativeRadius) {
    const Grid g(Aabb::of_size(10.0, 10.0), 1.0);
    EXPECT_TRUE(g.cells_with_center_in_disk({5.0, 5.0}, -1.0).empty());
}

TEST(Grid, AllCentersCount) {
    const Grid g(Aabb::of_size(40.0, 30.0), 10.0);
    const auto centers = g.all_centers();
    ASSERT_EQ(centers.size(), static_cast<std::size_t>(g.num_cells()));
    EXPECT_EQ(centers[0], g.center(0));
    EXPECT_EQ(centers.back(), g.center(g.num_cells() - 1));
}

TEST(Grid, RejectsMoreCellsThanIntIdsAddress) {
    // 46340^2 fits in int; 46341^2 does not.
    const Grid fits(Aabb::of_size(46340.0, 46340.0), 1.0);
    EXPECT_EQ(fits.num_cells(), 46340 * 46340);
    EXPECT_THROW(Grid(Aabb::of_size(46341.0, 46341.0), 1.0),
                 std::invalid_argument);
    try {
        const Grid vast(Aabb::of_size(1.0e7, 1.0e7), 10.0);
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& ex) {
        EXPECT_NE(std::string(ex.what()).find("1000000000000 cells"),
                  std::string::npos)
            << ex.what();
    }
}

TEST(Grid, OffsetRegion) {
    const Grid g(Aabb{{100.0, 200.0}, {140.0, 240.0}}, 20.0);
    EXPECT_EQ(g.num_cells(), 4);
    EXPECT_EQ(g.center(0), Vec2(110.0, 210.0));
    EXPECT_EQ(g.cell_of({135.0, 235.0}), 3);
}

}  // namespace
}  // namespace uavdc::geom
