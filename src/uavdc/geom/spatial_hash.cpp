#include "uavdc/geom/spatial_hash.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace uavdc::geom {

SpatialHash::SpatialHash(std::span<const Vec2> points, double cell_size)
    : points_(points.begin(), points.end()), cell_size_(cell_size) {
    if (!(cell_size > 0.0)) {
        throw std::invalid_argument("SpatialHash: cell_size must be positive");
    }
    if (points_.empty()) {
        nbx_ = nby_ = 0;
        starts_.assign(1, 0);
        return;
    }
    Aabb box{points_[0], points_[0]};
    for (const auto& p : points_) box = box.expanded(p);
    origin_ = box.lo;
    nbx_ = std::max(1, static_cast<int>(
                           std::floor(box.width() / cell_size_)) +
                           1);
    nby_ = std::max(1, static_cast<int>(
                           std::floor(box.height() / cell_size_)) +
                           1);

    const std::size_t nb =
        static_cast<std::size_t>(nbx_) * static_cast<std::size_t>(nby_);
    std::vector<std::size_t> counts(nb, 0);
    auto bucket_of = [&](const Vec2& p) {
        const int bx = std::clamp(
            static_cast<int>(std::floor((p.x - origin_.x) / cell_size_)), 0,
            nbx_ - 1);
        const int by = std::clamp(
            static_cast<int>(std::floor((p.y - origin_.y) / cell_size_)), 0,
            nby_ - 1);
        return static_cast<std::size_t>(by) * static_cast<std::size_t>(nbx_) +
               static_cast<std::size_t>(bx);
    };
    for (const auto& p : points_) ++counts[bucket_of(p)];
    starts_.assign(nb + 1, 0);
    for (std::size_t b = 0; b < nb; ++b) starts_[b + 1] = starts_[b] + counts[b];
    order_.assign(points_.size(), 0);
    std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
    for (std::size_t i = 0; i < points_.size(); ++i) {
        order_[cursor[bucket_of(points_[i])]++] = static_cast<int>(i);
    }
    // Bucket-ordered SoA mirror for the chunked disk scans.
    xs_.resize(points_.size());
    ys_.resize(points_.size());
    for (std::size_t k = 0; k < points_.size(); ++k) {
        const auto idx = static_cast<std::size_t>(order_[k]);
        xs_[k] = points_[idx].x;
        ys_[k] = points_[idx].y;
    }
}

int SpatialHash::bucket_coord(double offset) const {
    return static_cast<int>(std::floor(offset / cell_size_));
}

std::vector<int> SpatialHash::query_disk(const Vec2& q, double r) const {
    std::vector<int> out;
    for_each_in_disk(q, r, [&](int idx) { out.push_back(idx); });
    std::sort(out.begin(), out.end());
    return out;
}

int SpatialHash::nearest(const Vec2& q) const {
    if (points_.empty()) return -1;
    // Expanding-ring search: start from the query's bucket ring and widen
    // until a hit is found, then verify one extra ring for correctness.
    int best = -1;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (double r = cell_size_;; r *= 2.0) {
        for_each_in_disk(q, r, [&](int idx) {
            const double d2 =
                distance2(points_[static_cast<std::size_t>(idx)], q);
            if (d2 < best_d2) {
                best_d2 = d2;
                best = idx;
            }
        });
        // Squared-form termination test: sqrt(best_d2) <= r iff
        // best_d2 <= r * r (both sides non-negative, sqrt monotone and
        // correctly rounded), and scanning an extra ring never changes the
        // final argmin — verdict-identical, no sqrt.
        if (best >= 0 && best_d2 <= r * r) return best;
        // Guard against pathological far-away point sets.
        if (r > 4.0 * (cell_size_ * (nbx_ + nby_ + 2) +
                       distance(q, origin_))) {
            break;
        }
    }
    // Fallback: linear scan (only reached for degenerate layouts).
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const double d2 = distance2(points_[i], q);
        if (d2 < best_d2) {
            best_d2 = d2;
            best = static_cast<int>(i);
        }
    }
    return best;
}

}  // namespace uavdc::geom
