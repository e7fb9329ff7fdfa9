#include "uavdc/graph/local_search.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "uavdc/util/check.hpp"

namespace uavdc::graph {

namespace {
constexpr double kEps = 1e-10;
}

double two_opt(const DenseGraph& g, std::vector<std::size_t>& tour,
               int max_rounds) {
    const std::size_t n = tour.size();
    if (n < 4) return 0.0;
    double total_gain = 0.0;
    for (int round = 0; round < max_rounds; ++round) {
        bool improved = false;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const std::size_t a = tour[i];
            std::size_t b = tour[i + 1];
            // j+1 wraps; skip adjacent edges.
            for (std::size_t j = i + 2; j < n; ++j) {
                if (i == 0 && j == n - 1) continue;
                const std::size_t c = tour[j];
                const std::size_t d = tour[(j + 1) % n];
                const double gain = g.weight(a, b) + g.weight(c, d) -
                                    g.weight(a, c) - g.weight(b, d);
                if (gain > kEps) {
                    std::reverse(tour.begin() +
                                     static_cast<std::ptrdiff_t>(i + 1),
                                 tour.begin() +
                                     static_cast<std::ptrdiff_t>(j + 1));
                    total_gain += gain;
                    improved = true;
                    b = tour[i + 1];  // the reversal changed edge (i, i+1)
                }
            }
        }
        if (!improved) break;
    }
    return total_gain;
}

double or_opt(const DenseGraph& g, std::vector<std::size_t>& tour,
              int max_rounds) {
    const std::size_t n = tour.size();
    if (n < 5) return 0.0;
    double total_gain = 0.0;
    for (int round = 0; round < max_rounds; ++round) {
        bool improved = false;
        for (std::size_t seg_len = 1; seg_len <= 3 && seg_len + 2 <= n;
             ++seg_len) {
            for (std::size_t i = 0; i < n; ++i) {
                // Segment tour[i .. i+seg_len-1] (cyclic), bounded by
                // prev = tour[i-1] and next = tour[i+seg_len].
                const std::size_t prev = tour[(i + n - 1) % n];
                const std::size_t s0 = tour[i];
                const std::size_t s1 = tour[(i + seg_len - 1) % n];
                const std::size_t next = tour[(i + seg_len) % n];
                if (prev == s1 || next == s0) continue;
                const double remove_gain = g.weight(prev, s0) +
                                           g.weight(s1, next) -
                                           g.weight(prev, next);
                if (remove_gain <= kEps) continue;
                // Try to re-insert between every other edge (u, v).
                for (std::size_t k = 0; k < n; ++k) {
                    // Edge (tour[k], tour[k+1]) must not touch the segment:
                    // forbidden k are i-1 (prev -> s0) through i+seg_len-1
                    // (s1 -> next), cyclically.
                    bool inside = false;
                    for (std::size_t t = 0; t <= seg_len; ++t) {
                        if ((i + n - 1 + t) % n == k) {
                            inside = true;
                            break;
                        }
                    }
                    if (inside) continue;
                    const std::size_t u = tour[k];
                    const std::size_t v = tour[(k + 1) % n];
                    const double insert_cost = g.weight(u, s0) +
                                               g.weight(s1, v) -
                                               g.weight(u, v);
                    if (remove_gain - insert_cost > kEps) {
                        // Rebuild the tour with the segment moved.
                        std::vector<std::size_t> seg;
                        seg.reserve(seg_len);
                        for (std::size_t t = 0; t < seg_len; ++t) {
                            seg.push_back(tour[(i + t) % n]);
                        }
                        std::vector<std::size_t> rest;
                        rest.reserve(n - seg_len);
                        for (std::size_t t = 0; t < n - seg_len; ++t) {
                            rest.push_back(tour[(i + seg_len + t) % n]);
                        }
                        // Find u in rest and insert seg after it.
                        std::vector<std::size_t> next_tour;
                        next_tour.reserve(n);
                        for (std::size_t node : rest) {
                            next_tour.push_back(node);
                            if (node == u) {
                                next_tour.insert(next_tour.end(), seg.begin(),
                                                 seg.end());
                            }
                        }
                        UAVDC_DCHECK(next_tour.size() == n);
                        // Keep the original starting node in front.
                        const auto it = std::find(next_tour.begin(),
                                                  next_tour.end(), tour[0]);
                        std::rotate(next_tour.begin(), it, next_tour.end());
                        tour = std::move(next_tour);
                        total_gain += remove_gain - insert_cost;
                        improved = true;
                        break;
                    }
                }
                if (improved) break;
            }
            if (improved) break;
        }
        if (!improved) break;
    }
    return total_gain;
}

std::vector<std::vector<std::size_t>> nearest_neighbor_lists(
    const DenseGraph& g, std::size_t k) {
    const std::size_t n = g.size();
    std::vector<std::vector<std::size_t>> nb(n);
    if (n <= 1 || k == 0) return nb;
    k = std::min(k, n - 1);
    // Bounded top-k: a sorted k-slot list per row. Indices arrive in
    // increasing order, so a later node never beats an equal weight, and
    // (weight, index) order needs only a strict weight comparison.
    std::vector<double> top_w(k);
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = g.row(i);
        auto& list = nb[i];
        list.resize(k);
        // Insert (row[j], j) into the sorted slots [0, len], dropping slot len.
        const auto place = [&](std::size_t j, std::size_t len) {
            std::size_t t = len;
            for (; t > 0 && row[j] < top_w[t - 1]; --t) {
                top_w[t] = top_w[t - 1];
                list[t] = list[t - 1];
            }
            top_w[t] = row[j];
            list[t] = j;
        };
        std::size_t j = 0;
        for (std::size_t len = 0; len < k; ++j) {
            if (j != i) place(j, len++);
        }
        for (; j < n; ++j) {
            if (row[j] < top_w[k - 1] && j != i) place(j, k - 1);
        }
    }
    return nb;
}

double two_opt_neighbors(const DenseGraph& g, std::vector<std::size_t>& tour,
                         const std::vector<std::vector<std::size_t>>& neighbors,
                         int max_rounds) {
    const std::size_t n = tour.size();
    if (n < 4) return 0.0;
    UAVDC_DCHECK(neighbors.size() == g.size());
    std::vector<std::size_t> pos(g.size(), 0);
    for (std::size_t i = 0; i < n; ++i) pos[tour[i]] = i;
    double total_gain = 0.0;
    for (int round = 0; round < max_rounds; ++round) {
        bool improved = false;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t a = tour[i];
            const double w_ab = g.weight(a, tour[(i + 1) % n]);
            for (const std::size_t c : neighbors[a]) {
                // Lists are sorted by weight: once the new edge (a, c) is no
                // shorter than the removed edge (a, b), no later neighbour
                // can yield a move of this form.
                if (g.weight(a, c) >= w_ab) break;
                std::size_t lo = i;
                std::size_t hi = pos[c];
                if (lo > hi) std::swap(lo, hi);
                // Edges (lo, lo+1) and (hi, hi+1) must be disjoint.
                if (hi - lo < 2 || (lo == 0 && hi == n - 1)) continue;
                const std::size_t ea = tour[lo];
                const std::size_t eb = tour[lo + 1];
                const std::size_t ec = tour[hi];
                const std::size_t ed = tour[(hi + 1) % n];
                const double gain = g.weight(ea, eb) + g.weight(ec, ed) -
                                    g.weight(ea, ec) - g.weight(eb, ed);
                if (gain > kEps) {
                    std::reverse(
                        tour.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                        tour.begin() + static_cast<std::ptrdiff_t>(hi + 1));
                    for (std::size_t t = lo + 1; t <= hi; ++t) {
                        pos[tour[t]] = t;
                    }
                    total_gain += gain;
                    improved = true;
                    break;  // edge (i, i+1) changed; re-anchor at next i
                }
            }
        }
        if (!improved) break;
    }
    return total_gain;
}

double or_opt_neighbors(const DenseGraph& g, std::vector<std::size_t>& tour,
                        const std::vector<std::vector<std::size_t>>& neighbors,
                        int max_rounds) {
    const std::size_t n = tour.size();
    if (n < 5) return 0.0;
    UAVDC_DCHECK(neighbors.size() == g.size());
    std::vector<std::size_t> pos(g.size(), 0);
    for (std::size_t i = 0; i < n; ++i) pos[tour[i]] = i;
    double total_gain = 0.0;
    for (int round = 0; round < max_rounds; ++round) {
        bool improved = false;
        for (std::size_t seg_len = 1; seg_len <= 3 && seg_len + 2 <= n;
             ++seg_len) {
            for (std::size_t i = 0; i < n && !improved; ++i) {
                const std::size_t prev = tour[(i + n - 1) % n];
                const std::size_t s0 = tour[i];
                const std::size_t s1 = tour[(i + seg_len - 1) % n];
                const std::size_t next = tour[(i + seg_len) % n];
                if (prev == s1 || next == s0) continue;
                const double remove_gain = g.weight(prev, s0) +
                                           g.weight(s1, next) -
                                           g.weight(prev, next);
                if (remove_gain <= kEps) continue;
                // Only try re-insertion right after a near neighbour of the
                // segment head.
                for (const std::size_t u : neighbors[s0]) {
                    if (u == prev) continue;  // no-op position
                    const std::size_t ku = pos[u];
                    // u must lie outside the (cyclic) segment.
                    if ((ku + n - i) % n < seg_len) continue;
                    const std::size_t v = tour[(ku + 1) % n];
                    const double insert_cost = g.weight(u, s0) +
                                               g.weight(s1, v) -
                                               g.weight(u, v);
                    if (remove_gain - insert_cost <= kEps) continue;
                    // Rebuild the tour with the segment moved after u.
                    std::vector<std::size_t> seg;
                    seg.reserve(seg_len);
                    for (std::size_t t = 0; t < seg_len; ++t) {
                        seg.push_back(tour[(i + t) % n]);
                    }
                    std::vector<std::size_t> next_tour;
                    next_tour.reserve(n);
                    for (std::size_t t = 0; t < n - seg_len; ++t) {
                        const std::size_t node = tour[(i + seg_len + t) % n];
                        next_tour.push_back(node);
                        if (node == u) {
                            next_tour.insert(next_tour.end(), seg.begin(),
                                             seg.end());
                        }
                    }
                    UAVDC_DCHECK(next_tour.size() == n);
                    // Keep the original starting node in front.
                    const auto it = std::find(next_tour.begin(),
                                              next_tour.end(), tour[0]);
                    std::rotate(next_tour.begin(), it, next_tour.end());
                    tour = std::move(next_tour);
                    for (std::size_t t = 0; t < n; ++t) pos[tour[t]] = t;
                    total_gain += remove_gain - insert_cost;
                    improved = true;
                    break;
                }
            }
            if (improved) break;
        }
        if (!improved) break;
    }
    return total_gain;
}

Insertion cheapest_insertion(const DenseGraph& g,
                             const std::vector<std::size_t>& tour,
                             std::size_t node) {
    const std::size_t n = tour.size();
    if (n == 0) return {0, 0.0};
    if (n == 1) return {1, 2.0 * g.weight(tour[0], node)};
    Insertion best{0, std::numeric_limits<double>::infinity()};
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t u = tour[i];
        const std::size_t v = tour[(i + 1) % n];
        const double delta =
            g.weight(u, node) + g.weight(node, v) - g.weight(u, v);
        if (delta < best.delta) best = {(i + 1) % n == 0 ? n : i + 1, delta};
    }
    return best;
}

}  // namespace uavdc::graph
