#pragma once

// Test-only convex hull: a closed tour through a point set is at least as
// long as the set's hull perimeter, which gives the tour heuristics a
// lower-bound oracle.

#include <algorithm>
#include <span>
#include <vector>

#include "uavdc/geom/vec2.hpp"

namespace uavdc::testing::hull_oracle {

using geom::Vec2;

/// Convex hull (Andrew's monotone chain), counter-clockwise, without the
/// duplicated closing point. Collinear boundary points are dropped.
/// Degenerate inputs: < 3 distinct points return the distinct points.
inline std::vector<Vec2> convex_hull(std::span<const Vec2> pts) {
    std::vector<Vec2> p(pts.begin(), pts.end());
    std::sort(p.begin(), p.end(), [](const Vec2& a, const Vec2& b) {
        return a.x < b.x || (a.x == b.x && a.y < b.y);
    });
    p.erase(std::unique(p.begin(), p.end()), p.end());
    const std::size_t n = p.size();
    if (n <= 2) return p;

    auto cross3 = [](const Vec2& o, const Vec2& a, const Vec2& b) {
        return (a - o).cross(b - o);
    };
    std::vector<Vec2> hull(2 * n);
    std::size_t k = 0;
    // Lower hull.
    for (std::size_t i = 0; i < n; ++i) {
        while (k >= 2 && cross3(hull[k - 2], hull[k - 1], p[i]) <= 0.0) --k;
        hull[k++] = p[i];
    }
    // Upper hull.
    const std::size_t lower = k + 1;
    for (std::size_t i = n - 1; i-- > 0;) {
        while (k >= lower && cross3(hull[k - 2], hull[k - 1], p[i]) <= 0.0) {
            --k;
        }
        hull[k++] = p[i];
    }
    hull.resize(k - 1);  // last point repeats the first
    return hull;
}

/// Perimeter of the polygon through `pts` (closing edge included).
inline double polygon_perimeter(std::span<const Vec2> pts) {
    if (pts.size() < 2) return 0.0;
    double len = 0.0;
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
        len += distance(pts[i], pts[i + 1]);
    }
    len += distance(pts.back(), pts.front());
    return len;
}

}  // namespace uavdc::testing::hull_oracle
