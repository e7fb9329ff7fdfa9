#include "uavdc/graph/christofides.hpp"

#include <algorithm>

#include "uavdc/graph/euler.hpp"
#include "uavdc/graph/matching.hpp"
#include "uavdc/graph/mst.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::graph {

std::vector<std::size_t> christofides_tour(const DenseGraph& g,
                                           std::size_t start) {
    const std::size_t n = g.size();
    UAVDC_REQUIRE(start < n || n == 0)
        << "christofides_tour: bad start node " << start;
    if (n == 0) return {};
    if (n == 1) return {0};
    if (n == 2) return {start, 1 - start};

    // 1. MST.
    std::vector<Edge> tree = mst_prim(g);

    // 2. Min-weight perfect matching on odd-degree nodes.
    const std::vector<int> deg = degrees(n, tree);
    std::vector<std::size_t> odd;
    for (std::size_t v = 0; v < n; ++v) {
        if (deg[v] % 2 != 0) odd.push_back(v);
    }
    const Matching match = min_weight_matching(g, odd, kExactMatchingLimit);

    // 3. Union multigraph: MST edges + matching edges.
    std::vector<Edge> multi = tree;
    multi.reserve(tree.size() + match.size());
    for (const auto& [u, v] : match) {
        multi.push_back({u, v, g.weight(u, v)});
    }

    // 4. Eulerian circuit, 5. shortcut.
    const std::vector<std::size_t> walk = eulerian_circuit(n, multi, start);
    return shortcut_walk(walk);
}

double euclidean_tour_length(std::span<const geom::Vec2> pts,
                             std::span<const std::size_t> order) {
    if (order.size() < 2) return 0.0;
    double len = 0.0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        len += geom::distance(pts[order[i]], pts[order[i + 1]]);
    }
    len += geom::distance(pts[order.back()], pts[order.front()]);
    return len;
}

}  // namespace uavdc::graph
