#include "uavdc/geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "uavdc/util/check.hpp"

namespace uavdc::geom {

namespace {

double cells_along(double extent, double delta) {
    // At least one cell; round up so the grid covers the whole region.
    return std::max(1.0, std::ceil(extent / delta));
}

}  // namespace

Grid::Grid(Aabb region, double delta)
    : region_(region),
      delta_(delta),
      nx_(0),
      ny_(0) {
    if (!(delta > 0.0)) {
        throw std::invalid_argument("Grid: delta must be positive");
    }
    // Cell ids are int: count in double so a vast region is refused with
    // its figure instead of wrapping nx * ny.
    const double nx = cells_along(region_.width(), delta_);
    const double ny = cells_along(region_.height(), delta_);
    constexpr int kMaxCells = std::numeric_limits<int>::max();
    if (!(nx * ny <= kMaxCells)) {
        std::ostringstream msg;
        msg.precision(15);
        msg << "Grid: " << nx << " x " << ny << " = " << nx * ny
            << " cells of " << delta_ << " m exceed the " << kMaxCells
            << " cell-id limit";
        throw std::invalid_argument(msg.str());
    }
    nx_ = static_cast<int>(nx);
    ny_ = static_cast<int>(ny);
}

Vec2 Grid::center(int id) const {
    UAVDC_DCHECK(id >= 0 && id < num_cells());
    return center_of(ix_of(id), iy_of(id));
}

Aabb Grid::cell_box(int id) const {
    UAVDC_DCHECK(id >= 0 && id < num_cells());
    const int ix = ix_of(id);
    const int iy = iy_of(id);
    const Vec2 lo{region_.lo.x + ix * delta_, region_.lo.y + iy * delta_};
    return Aabb{lo, lo + Vec2{delta_, delta_}};
}

int Grid::cell_of(const Vec2& p) const {
    auto clamp_idx = [](double v, int n) {
        const int i = static_cast<int>(std::floor(v));
        return std::clamp(i, 0, n - 1);
    };
    const int ix = clamp_idx((p.x - region_.lo.x) / delta_, nx_);
    const int iy = clamp_idx((p.y - region_.lo.y) / delta_, ny_);
    return id_of(ix, iy);
}

Grid::Window Grid::disk_window(const Vec2& p, double r) const {
    // Bounds are formed and clamped in double, so a far-off p or a vast r
    // cannot overflow int before the clamp; r < 0 or NaN leaves it empty.
    auto first = [&](double c, double lo) {
        return std::max(0.0, std::floor((c - r - lo) / delta_ - 0.5) - 1.0);
    };
    auto last = [&](double c, double lo, int n) {
        return std::min(n - 1.0, std::ceil((c + r - lo) / delta_ - 0.5) + 1.0);
    };
    const double x0 = first(p.x, region_.lo.x);
    const double x1 = last(p.x, region_.lo.x, nx_);
    const double y0 = first(p.y, region_.lo.y);
    const double y1 = last(p.y, region_.lo.y, ny_);
    if (!(r >= 0.0 && x0 <= x1 && y0 <= y1)) return {};
    return {static_cast<int>(x0), static_cast<int>(x1), static_cast<int>(y0),
            static_cast<int>(y1)};
}

std::vector<int> Grid::cells_with_center_in_disk(const Vec2& p,
                                                 double r) const {
    std::vector<int> out;
    for_each_cell_in_disk(p, r, [&](int id) { out.push_back(id); });
    return out;
}

std::vector<Vec2> Grid::all_centers() const {
    std::vector<Vec2> out;
    out.reserve(static_cast<std::size_t>(num_cells()));
    for (int id = 0; id < num_cells(); ++id) out.push_back(center(id));
    return out;
}

}  // namespace uavdc::geom
