#pragma once

// Test-only frozen copy of the dense re-tour kernels: Prim's scan over all
// n nodes per step, the all-pairs sorted greedy matching (stable sort, so
// equal weights go in (w, a, b) order), the dense neighbour lists, and the
// Christofides + neighbour-list polish pass of TourBuilder::reoptimize()
// built on them. The kernels in graph/ and core/ must match them byte for
// byte.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "uavdc/core/tour_builder.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/graph/dense_graph.hpp"
#include "uavdc/graph/euler.hpp"
#include "uavdc/graph/local_search.hpp"
#include "uavdc/graph/matching.hpp"
#include "uavdc/graph/mst.hpp"

namespace uavdc::testing::christofides_oracle {

using graph::DenseGraph;
using graph::Edge;
using graph::Matching;

inline std::vector<Edge> mst_prim(const DenseGraph& g) {
    const std::size_t n = g.size();
    std::vector<Edge> tree;
    if (n <= 1) return tree;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> best(n, kInf);
    std::vector<std::size_t> parent(n, 0);
    std::vector<bool> in_tree(n, false);
    best[0] = 0.0;
    for (std::size_t iter = 0; iter < n; ++iter) {
        std::size_t u = n;
        double bu = kInf;
        for (std::size_t v = 0; v < n; ++v) {
            if (!in_tree[v] && best[v] < bu) {
                bu = best[v];
                u = v;
            }
        }
        if (u == n) break;
        in_tree[u] = true;
        if (u != 0) {
            const std::size_t p = parent[u];
            tree.push_back({std::min(u, p), std::max(u, p), g.weight(u, p)});
        }
        const auto row = g.row(u);
        for (std::size_t v = 0; v < n; ++v) {
            if (!in_tree[v] && row[v] < best[v]) {
                best[v] = row[v];
                parent[v] = u;
            }
        }
    }
    return tree;
}

inline Matching greedy_min_matching(const DenseGraph& g,
                                    const std::vector<std::size_t>& nodes) {
    const std::size_t k = nodes.size();
    Matching result;
    if (k == 0) return result;
    struct Pair {
        std::size_t a;
        std::size_t b;
        double w;
    };
    std::vector<Pair> pairs;
    for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b) {
            pairs.push_back({a, b, g.weight(nodes[a], nodes[b])});
        }
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair& x, const Pair& y) { return x.w < y.w; });
    std::vector<bool> used(k, false);
    std::vector<std::size_t> partner(k, k);
    for (const auto& p : pairs) {
        if (used[p.a] || used[p.b]) continue;
        used[p.a] = used[p.b] = true;
        partner[p.a] = p.b;
        partner[p.b] = p.a;
    }
    std::vector<std::size_t> reps;
    for (std::size_t a = 0; a < k; ++a) {
        if (a < partner[a]) reps.push_back(a);
    }
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t x = 0; x < reps.size(); ++x) {
            for (std::size_t y = x + 1; y < reps.size(); ++y) {
                const std::size_t a = reps[x], b = partner[a];
                const std::size_t c = reps[y], d = partner[c];
                const double cur =
                    g.weight(nodes[a], nodes[b]) + g.weight(nodes[c], nodes[d]);
                const double alt1 =
                    g.weight(nodes[a], nodes[c]) + g.weight(nodes[b], nodes[d]);
                const double alt2 =
                    g.weight(nodes[a], nodes[d]) + g.weight(nodes[b], nodes[c]);
                if (alt1 < cur - 1e-12 && alt1 <= alt2) {
                    partner[a] = c;
                    partner[c] = a;
                    partner[b] = d;
                    partner[d] = b;
                    improved = true;
                } else if (alt2 < cur - 1e-12) {
                    partner[a] = d;
                    partner[d] = a;
                    partner[b] = c;
                    partner[c] = b;
                    improved = true;
                }
                if (improved) break;
            }
            if (improved) break;
        }
        if (improved) {
            reps.clear();
            for (std::size_t a = 0; a < k; ++a) {
                if (a < partner[a]) reps.push_back(a);
            }
        }
    }
    for (std::size_t a = 0; a < k; ++a) {
        if (a < partner[a]) result.emplace_back(nodes[a], nodes[partner[a]]);
    }
    return result;
}

inline Matching min_weight_matching(const DenseGraph& g,
                                    const std::vector<std::size_t>& nodes,
                                    std::size_t exact_limit) {
    if (nodes.size() <= std::min<std::size_t>(exact_limit, 22)) {
        return graph::exact_min_matching(g, nodes);
    }
    return christofides_oracle::greedy_min_matching(g, nodes);
}

/// nb[i] = the k nodes closest to i in (weight, index) order, by a full
/// sort of each row.
inline std::vector<std::vector<std::size_t>> nearest_neighbor_lists(
    const DenseGraph& g, std::size_t k) {
    const std::size_t n = g.size();
    std::vector<std::vector<std::size_t>> nb(n);
    if (n <= 1 || k == 0) return nb;
    k = std::min(k, n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::pair<double, std::size_t>> row;
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i) row.emplace_back(g.weight(i, j), j);
        }
        std::sort(row.begin(), row.end());
        for (std::size_t t = 0; t < k; ++t) nb[i].push_back(row[t].second);
    }
    return nb;
}

/// The Christofides options as they stood when this oracle was frozen.
struct ChristofidesConfig {
    std::size_t exact_matching_limit = 18;
    bool improve_two_opt = true;
    bool improve_or_opt = true;
};

inline std::vector<std::size_t> christofides_tour(
    const DenseGraph& g, std::size_t start,
    const ChristofidesConfig& cfg = {}) {
    const std::size_t n = g.size();
    if (n == 0) return {};
    if (n == 1) return {0};
    if (n == 2) return {start, 1 - start};
    const std::vector<Edge> tree = christofides_oracle::mst_prim(g);
    const std::vector<int> deg = graph::degrees(n, tree);
    std::vector<std::size_t> odd;
    for (std::size_t v = 0; v < n; ++v) {
        if (deg[v] % 2 != 0) odd.push_back(v);
    }
    const Matching match = christofides_oracle::min_weight_matching(
        g, odd, cfg.exact_matching_limit);
    std::vector<Edge> multi = tree;
    for (const auto& [u, v] : match) multi.push_back({u, v, g.weight(u, v)});
    const auto walk = graph::eulerian_circuit(n, multi, start);
    std::vector<std::size_t> tour = graph::shortcut_walk(walk);
    if (cfg.improve_two_opt) graph::two_opt(g, tour);
    if (cfg.improve_or_opt) graph::or_opt(g, tour);
    return tour;
}

/// What TourBuilder::reoptimize() leaves behind.
struct Reopt {
    std::vector<geom::Vec2> stops;
    std::vector<int> keys;
    double length{0.0};
};

/// TourBuilder::reoptimize() over the frozen kernels (64 nodes and 12
/// neighbours are its large-tour switch and list length).
inline Reopt reoptimize(const core::TourBuilder& t) {
    Reopt r{t.stops(), t.keys(), t.length()};
    if (t.size() < 3) {
        r.length = t.recompute_length();
        return r;
    }
    std::vector<geom::Vec2> pts{t.depot()};
    pts.insert(pts.end(), t.stops().begin(), t.stops().end());
    const DenseGraph g = DenseGraph::euclidean(pts);
    std::vector<std::size_t> order;
    if (pts.size() < 64) {
        order = christofides_oracle::christofides_tour(g, 0);
    } else {
        ChristofidesConfig ccfg;
        ccfg.improve_two_opt = false;
        ccfg.improve_or_opt = false;
        order = christofides_oracle::christofides_tour(g, 0, ccfg);
        const auto nb = christofides_oracle::nearest_neighbor_lists(g, 12);
        graph::two_opt_neighbors(g, order, nb);
        graph::or_opt_neighbors(g, order, nb);
        graph::two_opt_neighbors(g, order, nb);
    }
    const double new_len = g.tour_length(order);
    if (new_len <= t.length()) {
        r.stops.clear();
        r.keys.clear();
        for (std::size_t i = 1; i < order.size(); ++i) {
            r.stops.push_back(t.stops()[order[i] - 1]);
            r.keys.push_back(t.keys()[order[i] - 1]);
        }
        r.length = new_len;
    } else {
        r.length = t.recompute_length();
    }
    return r;
}

}  // namespace uavdc::testing::christofides_oracle
