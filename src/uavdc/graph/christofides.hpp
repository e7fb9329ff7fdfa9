#pragma once

#include <cstddef>
#include <vector>

#include "uavdc/graph/dense_graph.hpp"

namespace uavdc::graph {

/// Odd-degree sets up to this size use exact bitmask-DP matching; above
/// it a greedy matching with 2-swap improvement is used (substitution #2
/// in DESIGN.md — exact blossom is out of scope).
inline constexpr std::size_t kExactMatchingLimit = 18;

/// Christofides-style tour on a metric dense graph: MST + min-weight
/// matching of odd-degree nodes + Eulerian circuit + shortcut. Returns the
/// closed tour as a node order starting at node `start` (the closing edge
/// back to start is implicit), unpolished: callers run `two_opt` /
/// `or_opt` or their neighbour-list forms on it.
///
/// With exact matching this is the classic 1.5-approximation; with the
/// greedy fallback it is a high-quality heuristic (paper's Alg. 2/3 and
/// the benchmark planner only use it as a tour-construction subroutine).
[[nodiscard]] std::vector<std::size_t> christofides_tour(
    const DenseGraph& g, std::size_t start = 0);

/// Length of the closed tour that visits `pts` in the given order.
[[nodiscard]] double euclidean_tour_length(
    std::span<const geom::Vec2> pts, std::span<const std::size_t> order);

}  // namespace uavdc::graph
