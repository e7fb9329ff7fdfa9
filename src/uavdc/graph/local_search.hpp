#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "uavdc/graph/dense_graph.hpp"

namespace uavdc::graph {

/// 2-opt improvement of a closed tour (in place): repeatedly reverse the
/// segment between two edges when it shortens the tour, until a local
/// optimum or `max_rounds` full sweeps. Returns total improvement (>= 0).
double two_opt(const DenseGraph& g, std::vector<std::size_t>& tour,
               int max_rounds = 40);

/// Or-opt improvement of a closed tour (in place): relocate segments of
/// length 1..3 to better positions. Returns total improvement (>= 0).
double or_opt(const DenseGraph& g, std::vector<std::size_t>& tour,
              int max_rounds = 20);

/// k-nearest-neighbour lists for every point: nb[i] holds the k points
/// closest to i (excluding i), ordered by (distance, index), the distance
/// being DenseGraph::euclidean(pts)'s weight bit for bit. The candidate-move
/// lists for the *_neighbors local searches below. Built through a bucket
/// grid: each row scans rings of cells around its own until no unscanned
/// point can enter its list.
[[nodiscard]] std::vector<std::vector<std::size_t>> nearest_neighbor_lists(
    std::span<const geom::Vec2> pts, std::size_t k);

/// Neighbor-list 2-opt: only moves that create an edge (a, c) with c among
/// a's k nearest neighbours and w(a, c) < w(a, b) are tried, turning each
/// sweep from O(n^2) into O(n * k). tour[0] is kept in front. Returns total
/// improvement (>= 0).
double two_opt_neighbors(const DenseGraph& g, std::vector<std::size_t>& tour,
                         const std::vector<std::vector<std::size_t>>& neighbors,
                         int max_rounds = 40);

/// Neighbor-list Or-opt: segments of length 1..3 are only re-inserted after
/// a node u among the segment head's k nearest neighbours (O(n * k) per
/// sweep). tour[0] is kept in front. Returns total improvement (>= 0).
double or_opt_neighbors(const DenseGraph& g, std::vector<std::size_t>& tour,
                        const std::vector<std::vector<std::size_t>>& neighbors,
                        int max_rounds = 20);

/// Cheapest-insertion position for `node` into closed tour `tour`:
/// returns {position, delta} where inserting before tour[position]
/// (cyclically) increases the tour length by delta. For an empty tour the
/// delta is 0; for a single-node tour it is 2 * w(tour[0], node).
struct Insertion {
    std::size_t position;
    double delta;
};
[[nodiscard]] Insertion cheapest_insertion(const DenseGraph& g,
                                           const std::vector<std::size_t>& tour,
                                           std::size_t node);

}  // namespace uavdc::graph
