#include "uavdc/orienteering/greedy.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "uavdc/graph/local_search.hpp"
#include "uavdc/orienteering/insertion_cache.hpp"

namespace uavdc::orienteering {

namespace {

constexpr double kEps = 1e-9;

std::vector<bool> visited_mask(const Problem& p, const Solution& s) {
    std::vector<bool> in(p.size(), false);
    for (std::size_t v : s.tour) in[v] = true;
    return in;
}

/// Apply one best "insert an unvisited node" move; returns true if applied.
bool try_insert(const Problem& p, Solution& s, std::vector<bool>& in,
                InsertionCache& cache) {
    double best_score = 0.0;
    std::size_t best_node = p.size();
    graph::Insertion best_ins{0, 0.0};
    for (std::size_t v = 0; v < p.size(); ++v) {
        if (in[v] || p.prizes[v] <= 0.0) continue;
        const graph::Insertion ins = cache.get(v);
        if (s.cost + ins.delta > p.budget + kEps) continue;
        const double score = p.prizes[v] / std::max(ins.delta, kEps);
        if (score > best_score) {
            best_score = score;
            best_node = v;
            best_ins = ins;
        }
    }
    if (best_node == p.size()) return false;
    s.tour.insert(s.tour.begin() +
                      static_cast<std::ptrdiff_t>(best_ins.position),
                  best_node);
    s.cost += best_ins.delta;
    s.prize += p.prizes[best_node];
    in[best_node] = true;
    cache.on_insert(s.tour, best_ins.position, in);
    return true;
}

/// Apply one best "replace a visited node with a higher-prize unvisited
/// node" move (replacement must stay feasible); returns true if applied.
/// The best is the largest gain, ties to the first (pos, u) in scan order;
/// walking u by descending prize, each pos stops at its first feasible u or
/// once the gain can no longer beat the best.
bool try_replace(const Problem& p, Solution& s, std::vector<bool>& in,
                 const std::vector<std::size_t>& by_prize) {
    const std::size_t n = s.tour.size();
    if (n < 2) return false;
    double best_gain = kEps;
    double best_cost_delta = 0.0;
    std::size_t best_pos = 0;
    std::size_t best_node = p.size();
    for (std::size_t pos = 0; pos < n; ++pos) {
        if (s.tour[pos] == p.depot) continue;
        const std::size_t prev = s.tour[(pos + n - 1) % n];
        const std::size_t cur = s.tour[pos];
        const std::size_t next = s.tour[(pos + 1) % n];
        const double base =
            p.graph.weight(prev, cur) + p.graph.weight(cur, next);
        for (const std::size_t u : by_prize) {
            const double gain = p.prizes[u] - p.prizes[cur];
            if (gain <= best_gain) break;
            if (in[u]) continue;
            const double cost_delta =
                p.graph.weight(prev, u) + p.graph.weight(u, next) - base;
            if (s.cost + cost_delta > p.budget + kEps) continue;
            best_gain = gain;
            best_cost_delta = cost_delta;
            best_pos = pos;
            best_node = u;
            break;
        }
    }
    if (best_node == p.size()) return false;
    in[s.tour[best_pos]] = false;
    s.prize += best_gain;
    s.cost += best_cost_delta;
    in[best_node] = true;
    s.tour[best_pos] = best_node;
    return true;
}

}  // namespace

int polish(const Problem& p, Solution& s, InsertionCache& cache) {
    auto in = visited_mask(p, s);
    int moves = 0;
    bool fresh = false;  // cache matches s.tour
    for (;;) {
        // Shorten the tour first — frees budget for insertions.
        const double gain = graph::two_opt(p.graph, s.tour);
        if (gain > 0.0) s.cost -= gain;
        if (gain > 0.0 || !fresh) cache.rebuild(s.tour, in);
        fresh = true;
        bool any = false;
        while (try_insert(p, s, in, cache)) {
            ++moves;
            any = true;
        }
        if (try_replace(p, s, in, cache.by_prize())) {
            ++moves;
            any = true;
            fresh = false;
        }
        if (!any) break;
    }
    // Normalise: depot first.
    const auto it = std::find(s.tour.begin(), s.tour.end(), p.depot);
    if (it != s.tour.end()) std::rotate(s.tour.begin(), it, s.tour.end());
    return moves;
}

int polish(const Problem& p, Solution& s) {
    InsertionCache cache(p);
    return polish(p, s, cache);
}

Solution solve_greedy(const Problem& p, InsertionCache& cache) {
    p.validate();
    Solution s;
    s.tour = {p.depot};
    s.cost = 0.0;
    s.prize = p.prizes[p.depot];
    auto in = visited_mask(p, s);
    cache.rebuild(s.tour, in);
    while (try_insert(p, s, in, cache)) {
    }
    polish(p, s, cache);
    return s;
}

Solution solve_greedy(const Problem& p) {
    InsertionCache cache(p);
    return solve_greedy(p, cache);
}

}  // namespace uavdc::orienteering
