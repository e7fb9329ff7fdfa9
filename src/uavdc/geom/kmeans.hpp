#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "uavdc/geom/vec2.hpp"

namespace uavdc::geom {

/// K-means clustering result.
struct KMeansResult {
    std::vector<Vec2> centroids;      ///< k cluster centres
    std::vector<int> assignment;      ///< point index -> cluster id
    std::vector<int> cluster_sizes;   ///< points per cluster
    double inertia{0.0};              ///< sum of squared distances
    int iterations{0};                ///< Lloyd iterations executed
};

/// Options for Lloyd's algorithm.
struct KMeansConfig {
    std::uint64_t seed = 42;  ///< k-means++ seeding
};

/// Weighted k-means (Lloyd) with k-means++ seeding. `weights` may be empty
/// (uniform); otherwise it must match `points`. k is clamped to the number
/// of distinct points; empty clusters are re-seeded from the farthest
/// point. Runs at most 50 Lloyd iterations, stopping early once inertia
/// improves by less than 1e-6. Deterministic for a fixed config.
[[nodiscard]] KMeansResult kmeans(std::span<const Vec2> points, int k,
                                  std::span<const double> weights = {},
                                  const KMeansConfig& cfg = {});

}  // namespace uavdc::geom
