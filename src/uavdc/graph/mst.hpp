#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "uavdc/graph/dense_graph.hpp"

namespace uavdc::graph {

/// Undirected edge (i < j by convention in MST output).
struct Edge {
    std::size_t u;
    std::size_t v;
    double w;
};

/// Prim's algorithm on a complete dense graph: O(n^2) time, O(n) space;
/// each step scans only the nodes not yet in the tree.
/// Returns the n-1 tree edges; an empty vector for n <= 1.
[[nodiscard]] std::vector<Edge> mst_prim(const DenseGraph& g);

/// Total weight of an edge list.
[[nodiscard]] double total_weight(const std::vector<Edge>& edges);

/// Degrees of each node implied by an edge list over n nodes.
[[nodiscard]] std::vector<int> degrees(std::size_t n,
                                       const std::vector<Edge>& edges);

}  // namespace uavdc::graph
