#pragma once

#include <cstdint>
#include <vector>

#include "uavdc/geom/aabb.hpp"
#include "uavdc/geom/vec2.hpp"

namespace uavdc::geom {

/// Uniform square partition of a monitoring region (Sec. III-B of the paper):
/// the region is split into squares of edge length delta, and the centre of
/// each square is a potential hovering location for the UAV.
///
/// Cells are indexed row-major: id = iy * nx + ix, with (ix, iy) counting
/// from the region's lower-left corner. The last row/column of cells may
/// extend slightly past the region when width/height is not a multiple of
/// delta; their centres are still used as hovering locations (the UAV may
/// hover anywhere, only the devices are confined to the region).
class Grid {
  public:
    /// Build a grid over `region` with square edge `delta` (> 0).
    Grid(Aabb region, double delta);

    [[nodiscard]] const Aabb& region() const { return region_; }
    [[nodiscard]] double delta() const { return delta_; }
    [[nodiscard]] int nx() const { return nx_; }
    [[nodiscard]] int ny() const { return ny_; }
    [[nodiscard]] int num_cells() const { return nx_ * ny_; }

    /// Centre of cell `id` (the hovering location).
    [[nodiscard]] Vec2 center(int id) const;
    /// Extent of cell `id`.
    [[nodiscard]] Aabb cell_box(int id) const;

    /// Cell id containing point p (clamped to the grid).
    [[nodiscard]] int cell_of(const Vec2& p) const;

    /// (ix, iy) -> id.
    [[nodiscard]] int id_of(int ix, int iy) const { return iy * nx_ + ix; }
    [[nodiscard]] int ix_of(int id) const { return id % nx_; }
    [[nodiscard]] int iy_of(int id) const { return id / nx_; }

    /// Index window of the cells whose centre may lie within distance r of
    /// p, clamped to the grid and widened by one cell on each side so that
    /// rounding in the window arithmetic can never hide a cell the exact
    /// distance test accepts. Empty (`cells() == 0`) for r < 0.
    struct Window {
        int ix_lo{0};
        int ix_hi{-1};
        int iy_lo{0};
        int iy_hi{-1};

        [[nodiscard]] std::uint64_t cells() const {
            if (ix_hi < ix_lo || iy_hi < iy_lo) return 0;
            return static_cast<std::uint64_t>(ix_hi - ix_lo + 1) *
                   static_cast<std::uint64_t>(iy_hi - iy_lo + 1);
        }
    };
    [[nodiscard]] Window disk_window(const Vec2& p, double r) const;

    /// Visit, in ascending id order, every cell whose *centre* c satisfies
    /// distance2(c, p) <= r * r — exactly the hovering locations that cover
    /// a device at p with coverage radius r.
    template <typename F>
    void for_each_cell_in_disk(const Vec2& p, double r, F&& f) const {
        const Window w = disk_window(p, r);
        const double r2 = r * r;
        for (int iy = w.iy_lo; iy <= w.iy_hi; ++iy) {
            for (int ix = w.ix_lo; ix <= w.ix_hi; ++ix) {
                if (distance2(center_of(ix, iy), p) <= r2) f(id_of(ix, iy));
            }
        }
    }

    /// Ids of all cells whose centre lies within distance r of p, ascending
    /// (`for_each_cell_in_disk` collected into a vector).
    [[nodiscard]] std::vector<int> cells_with_center_in_disk(const Vec2& p,
                                                             double r) const;

    /// Centres of every cell, indexed by cell id.
    [[nodiscard]] std::vector<Vec2> all_centers() const;

  private:
    [[nodiscard]] Vec2 center_of(int ix, int iy) const {
        return {region_.lo.x + (ix + 0.5) * delta_,
                region_.lo.y + (iy + 0.5) * delta_};
    }

    Aabb region_;
    double delta_;
    int nx_;
    int ny_;
};

}  // namespace uavdc::geom
