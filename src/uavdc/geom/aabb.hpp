#pragma once

#include <algorithm>

#include "uavdc/geom/vec2.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::geom {

/// Axis-aligned bounding box. Used for the monitoring region (the paper's
/// 1000 x 1000 m field) and for grid-cell extents.
struct Aabb {
    Vec2 lo{0.0, 0.0};
    Vec2 hi{0.0, 0.0};

    constexpr Aabb() = default;
    constexpr Aabb(Vec2 lo_, Vec2 hi_) : lo(lo_), hi(hi_) {
        UAVDC_REQUIRE(lo.x <= hi.x && lo.y <= hi.y);
    }

    /// Box spanning [0,w] x [0,h].
    [[nodiscard]] static constexpr Aabb of_size(double w, double h) {
        return Aabb{{0.0, 0.0}, {w, h}};
    }

    [[nodiscard]] constexpr double width() const { return hi.x - lo.x; }
    [[nodiscard]] constexpr double height() const { return hi.y - lo.y; }
    [[nodiscard]] constexpr double area() const { return width() * height(); }
    [[nodiscard]] constexpr Vec2 center() const {
        return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0};
    }

    /// Closed containment test.
    [[nodiscard]] constexpr bool contains(const Vec2& p) const {
        return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
    }

    /// Clamp a point into the box.
    [[nodiscard]] constexpr Vec2 clamp(const Vec2& p) const {
        return {std::clamp(p.x, lo.x, hi.x), std::clamp(p.y, lo.y, hi.y)};
    }

    /// Smallest box containing this box and point p.
    [[nodiscard]] constexpr Aabb expanded(const Vec2& p) const {
        return Aabb{{std::min(lo.x, p.x), std::min(lo.y, p.y)},
                    {std::max(hi.x, p.x), std::max(hi.y, p.y)}};
    }

    /// Distance from p to the box (0 if inside).
    [[nodiscard]] double distance_to(const Vec2& p) const {
        return distance(p, clamp(p));
    }

    /// True if a disk of radius r centred at c intersects the box.
    [[nodiscard]] bool intersects_disk(const Vec2& c, double r) const {
        return distance_to(c) <= r;
    }

    friend constexpr bool operator==(const Aabb& a, const Aabb& b) {
        return a.lo == b.lo && a.hi == b.hi;
    }
};

}  // namespace uavdc::geom
