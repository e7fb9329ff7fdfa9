#include "uavdc/geom/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "uavdc/util/rng.hpp"

namespace uavdc::geom {

namespace {

constexpr int kMaxIterations = 50;  ///< Lloyd iterations at most
constexpr double kTol = 1e-6;  ///< stop when inertia improves less than this

/// k-means++ seeding: first centre weighted-uniform, then proportional to
/// squared distance from the nearest chosen centre.
std::vector<Vec2> seed_centroids(std::span<const Vec2> pts,
                                 std::span<const double> w, int k,
                                 util::Rng& rng) {
    std::vector<Vec2> centers;
    centers.reserve(static_cast<std::size_t>(k));
    const auto n = pts.size();
    auto weight = [&](std::size_t i) { return w.empty() ? 1.0 : w[i]; };

    // First centre: weighted-uniform draw.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += weight(i);
    double pick = rng.uniform(0.0, total);
    std::size_t first = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pick -= weight(i);
        if (pick <= 0.0) {
            first = i;
            break;
        }
    }
    centers.push_back(pts[first]);

    std::vector<double> d2(n);
    while (centers.size() < static_cast<std::size_t>(k)) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::infinity();
            for (const auto& c : centers) {
                best = std::min(best, distance2(pts[i], c));
            }
            d2[i] = best * weight(i);
            sum += d2[i];
        }
        if (sum <= 0.0) break;  // fewer distinct points than k
        double r = rng.uniform(0.0, sum);
        std::size_t chosen = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            r -= d2[i];
            if (r <= 0.0) {
                chosen = i;
                break;
            }
        }
        centers.push_back(pts[chosen]);
    }
    return centers;
}

}  // namespace

KMeansResult kmeans(std::span<const Vec2> points, int k,
                    std::span<const double> weights,
                    const KMeansConfig& cfg) {
    if (k < 1) throw std::invalid_argument("kmeans: k must be >= 1");
    if (!weights.empty() && weights.size() != points.size()) {
        throw std::invalid_argument("kmeans: weight/point size mismatch");
    }
    KMeansResult out;
    if (points.empty()) return out;

    util::Rng rng(cfg.seed);
    out.centroids = seed_centroids(points, weights, k, rng);
    const std::size_t kk = out.centroids.size();
    out.assignment.assign(points.size(), 0);
    auto weight = [&](std::size_t i) {
        return weights.empty() ? 1.0 : weights[i];
    };

    double prev_inertia = std::numeric_limits<double>::infinity();
    for (int it = 0; it < kMaxIterations; ++it) {
        ++out.iterations;
        // Assign.
        double inertia = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            double best = std::numeric_limits<double>::infinity();
            int best_c = 0;
            for (std::size_t c = 0; c < kk; ++c) {
                const double d = distance2(points[i], out.centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = static_cast<int>(c);
                }
            }
            out.assignment[i] = best_c;
            inertia += best * weight(i);
        }
        out.inertia = inertia;
        // Update.
        std::vector<Vec2> sums(kk, Vec2{});
        std::vector<double> mass(kk, 0.0);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto c = static_cast<std::size_t>(out.assignment[i]);
            sums[c] += points[i] * weight(i);
            mass[c] += weight(i);
        }
        for (std::size_t c = 0; c < kk; ++c) {
            if (mass[c] > 0.0) {
                out.centroids[c] = sums[c] / mass[c];
            } else {
                // Re-seed an empty cluster from the farthest point.
                double far = -1.0;
                std::size_t far_i = 0;
                for (std::size_t i = 0; i < points.size(); ++i) {
                    const auto a =
                        static_cast<std::size_t>(out.assignment[i]);
                    const double d = distance2(points[i], out.centroids[a]);
                    if (d > far) {
                        far = d;
                        far_i = i;
                    }
                }
                out.centroids[c] = points[far_i];
            }
        }
        if (prev_inertia - inertia < kTol) break;
        prev_inertia = inertia;
    }
    out.cluster_sizes.assign(kk, 0);
    for (int a : out.assignment) {
        ++out.cluster_sizes[static_cast<std::size_t>(a)];
    }
    return out;
}

}  // namespace uavdc::geom
