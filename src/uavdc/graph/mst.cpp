#include "uavdc/graph/mst.hpp"

#include <limits>

namespace uavdc::graph {

std::vector<Edge> mst_prim(const DenseGraph& g) {
    const std::size_t n = g.size();
    std::vector<Edge> tree;
    if (n <= 1) return tree;
    tree.reserve(n - 1);

    // The nodes not yet in the tree, in ascending index order, with their
    // best attachment weight and parent. Each pass drops the node added
    // last, relaxes the rest against it and takes the strict-< argmin in
    // that order, so ties resolve to the lowest index as a scan over all n
    // nodes would.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> rest(n - 1);
    std::vector<double> best(n - 1, kInf);
    std::vector<std::size_t> parent(n - 1, 0);
    for (std::size_t t = 0; t + 1 < n; ++t) rest[t] = t + 1;
    std::size_t live = n - 1;
    std::size_t drop = live;  // slot of the node added last, if any
    std::size_t u = 0;
    for (;;) {
        const auto row = g.row(u);
        std::size_t m = 0;
        std::size_t next = live;
        double bnext = kInf;
        for (std::size_t t = 0; t < live; ++t) {
            if (t == drop) continue;
            const std::size_t v = rest[t];
            double b = best[t];
            std::size_t par = parent[t];
            if (row[v] < b) {
                b = row[v];
                par = u;
            }
            rest[m] = v;
            best[m] = b;
            parent[m] = par;
            if (b < bnext) {
                bnext = b;
                next = m;
            }
            ++m;
        }
        live = m;
        if (next >= live) break;  // all in, or disconnected (+inf / NaN)
        u = rest[next];
        const std::size_t p = parent[next];
        tree.push_back({std::min(u, p), std::max(u, p), g.weight(u, p)});
        drop = next;
    }
    return tree;
}

double total_weight(const std::vector<Edge>& edges) {
    double s = 0.0;
    for (const auto& e : edges) s += e.w;
    return s;
}

std::vector<int> degrees(std::size_t n, const std::vector<Edge>& edges) {
    std::vector<int> deg(n, 0);
    for (const auto& e : edges) {
        ++deg[e.u];
        ++deg[e.v];
    }
    return deg;
}

}  // namespace uavdc::graph
