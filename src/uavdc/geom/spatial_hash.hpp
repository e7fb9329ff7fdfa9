#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "uavdc/geom/aabb.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/util/aligned.hpp"

namespace uavdc::geom {

/// Bucketed point index for fixed-radius neighbour queries.
///
/// Points are hashed into square buckets of edge `cell_size`; a radius-r
/// query scans the O((r/cell_size + 2)^2) buckets overlapping the query disk.
/// With cell_size ~= R0 this makes coverage-set construction
/// O(devices-in-disk) per hovering location instead of O(|V|), which matters
/// when scoring tens of thousands of candidate cells.
class SpatialHash {
  public:
    /// Build an index over `points` with bucket edge `cell_size` (> 0).
    SpatialHash(std::span<const Vec2> points, double cell_size);

    [[nodiscard]] std::size_t size() const { return points_.size(); }
    [[nodiscard]] double cell_size() const { return cell_size_; }

    /// Indices (into the original span) of points within distance r of q,
    /// in ascending index order.
    [[nodiscard]] std::vector<int> query_disk(const Vec2& q, double r) const;

    /// Visit indices of points within distance r of q.
    ///
    /// The candidate distances of each bucket run are computed over the
    /// bucket-ordered SoA mirror (`xs_`/`ys_`) in fixed-size chunks — a
    /// plain elementwise loop the compiler vectorizes — then the callback
    /// fires for hits in the original scan order. Each lane evaluates the
    /// exact `distance2(points_[idx], q)` expression, so the visited set is
    /// bit-identical to the scalar scan this replaces. (geom may not depend
    /// on core, so the chunk loop lives here rather than in
    /// core/batch_kernels.)
    template <typename F>
    void for_each_in_disk(const Vec2& q, double r, F&& f) const {
        if (points_.empty() || r < 0.0) return;
        const double r2 = r * r;
        const int bx_lo = bucket_coord(q.x - r - origin_.x);
        const int bx_hi = bucket_coord(q.x + r - origin_.x);
        const int by_lo = bucket_coord(q.y - r - origin_.y);
        const int by_hi = bucket_coord(q.y + r - origin_.y);
        constexpr std::size_t kChunk = 64;
        double d2[kChunk];
        for (int by = std::max(0, by_lo); by <= std::min(nby_ - 1, by_hi);
             ++by) {
            for (int bx = std::max(0, bx_lo); bx <= std::min(nbx_ - 1, bx_hi);
                 ++bx) {
                const std::size_t b =
                    static_cast<std::size_t>(by) *
                        static_cast<std::size_t>(nbx_) +
                    static_cast<std::size_t>(bx);
                for (std::size_t k = starts_[b]; k < starts_[b + 1];) {
                    const std::size_t end =
                        std::min(starts_[b + 1], k + kChunk);
                    const std::size_t len = end - k;
                    for (std::size_t t = 0; t < len; ++t) {
                        const double dx = xs_[k + t] - q.x;
                        const double dy = ys_[k + t] - q.y;
                        d2[t] = dx * dx + dy * dy;
                    }
                    for (std::size_t t = 0; t < len; ++t) {
                        if (d2[t] <= r2) f(order_[k + t]);
                    }
                    k = end;
                }
            }
        }
    }

    /// Index of the nearest point to q, or -1 if the index is empty.
    [[nodiscard]] int nearest(const Vec2& q) const;

  private:
    [[nodiscard]] int bucket_coord(double offset) const;

    std::vector<Vec2> points_;
    double cell_size_;
    Vec2 origin_;
    int nbx_{0};
    int nby_{0};
    // CSR layout: order_ holds point indices grouped by bucket,
    // starts_[b]..starts_[b+1] delimit bucket b. xs_/ys_ mirror the point
    // coordinates in bucket order (xs_[k] == points_[order_[k]].x), so disk
    // queries stream contiguous memory instead of gathering through order_.
    std::vector<std::size_t> starts_;
    std::vector<int> order_;
    util::AlignedVector<double> xs_;
    util::AlignedVector<double> ys_;
};

}  // namespace uavdc::geom
