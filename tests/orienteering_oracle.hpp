#pragma once

// Test-only frozen copy of the scan-based orienteering solvers: every step
// calls graph::cheapest_insertion for every unvisited node. The cached
// solvers in orienteering/ must return byte-identical Solutions.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "uavdc/graph/local_search.hpp"
#include "uavdc/orienteering/grasp.hpp"
#include "uavdc/orienteering/ils.hpp"
#include "uavdc/orienteering/problem.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc::testing::orienteering_oracle {

using orienteering::Problem;
using orienteering::Solution;

constexpr double kEps = 1e-9;

inline std::vector<bool> visited_mask(const Problem& p, const Solution& s) {
    std::vector<bool> in(p.size(), false);
    for (std::size_t v : s.tour) in[v] = true;
    return in;
}

inline bool try_insert(const Problem& p, Solution& s, std::vector<bool>& in) {
    double best_score = 0.0;
    std::size_t best_node = p.size();
    graph::Insertion best_ins{0, 0.0};
    for (std::size_t v = 0; v < p.size(); ++v) {
        if (in[v] || p.prizes[v] <= 0.0) continue;
        const auto ins = graph::cheapest_insertion(p.graph, s.tour, v);
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
    return true;
}

inline bool try_replace(const Problem& p, Solution& s, std::vector<bool>& in) {
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
        for (std::size_t u = 0; u < p.size(); ++u) {
            if (in[u]) continue;
            const double gain = p.prizes[u] - p.prizes[cur];
            if (gain <= best_gain) continue;
            const double cost_delta =
                p.graph.weight(prev, u) + p.graph.weight(u, next) - base;
            if (s.cost + cost_delta > p.budget + kEps) continue;
            best_gain = gain;
            best_cost_delta = cost_delta;
            best_pos = pos;
            best_node = u;
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

inline int polish(const Problem& p, Solution& s) {
    auto in = visited_mask(p, s);
    int moves = 0;
    for (;;) {
        const double gain = graph::two_opt(p.graph, s.tour);
        if (gain > 0.0) s.cost -= gain;
        bool any = false;
        while (try_insert(p, s, in)) {
            ++moves;
            any = true;
        }
        if (try_replace(p, s, in)) {
            ++moves;
            any = true;
        }
        if (!any) break;
    }
    const auto it = std::find(s.tour.begin(), s.tour.end(), p.depot);
    if (it != s.tour.end()) std::rotate(s.tour.begin(), it, s.tour.end());
    return moves;
}

inline Solution solve_greedy(const Problem& p) {
    Solution s;
    s.tour = {p.depot};
    s.cost = 0.0;
    s.prize = p.prizes[p.depot];
    auto in = visited_mask(p, s);
    while (try_insert(p, s, in)) {
    }
    polish(p, s);
    return s;
}

inline Solution construct(const Problem& p, double alpha, util::Rng& rng) {
    struct Candidate {
        std::size_t node;
        graph::Insertion ins;
        double score;
    };
    Solution s;
    s.tour = {p.depot};
    s.cost = 0.0;
    s.prize = p.prizes[p.depot];
    std::vector<bool> in(p.size(), false);
    in[p.depot] = true;

    std::vector<Candidate> cands;
    for (;;) {
        cands.clear();
        double best = 0.0;
        double worst = std::numeric_limits<double>::infinity();
        for (std::size_t v = 0; v < p.size(); ++v) {
            if (in[v] || p.prizes[v] <= 0.0) continue;
            const auto ins = graph::cheapest_insertion(p.graph, s.tour, v);
            if (s.cost + ins.delta > p.budget + kEps) continue;
            const double score = p.prizes[v] / std::max(ins.delta, kEps);
            cands.push_back({v, ins, score});
            best = std::max(best, score);
            worst = std::min(worst, score);
        }
        if (cands.empty()) break;
        const double cutoff = best - alpha * (best - worst);
        std::vector<std::size_t> rcl;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (cands[i].score >= cutoff - kEps) rcl.push_back(i);
        }
        const auto pick =
            rcl[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(rcl.size()) - 1))];
        const auto& c = cands[pick];
        s.tour.insert(
            s.tour.begin() + static_cast<std::ptrdiff_t>(c.ins.position),
            c.node);
        s.cost += c.ins.delta;
        s.prize += p.prizes[c.node];
        in[c.node] = true;
    }
    return s;
}

inline void shake(const Problem& p, Solution& s, double fraction,
                  util::Rng& rng) {
    if (s.tour.size() <= 2) return;
    std::vector<std::size_t> keep{p.depot};
    for (std::size_t i = 0; i < s.tour.size(); ++i) {
        const std::size_t v = s.tour[i];
        if (v == p.depot) continue;
        if (!rng.bernoulli(fraction)) keep.push_back(v);
    }
    s = orienteering::make_solution(p, std::move(keep));
}

// GRASP's and ILS's fixed tuning as it stood when this oracle was frozen.
constexpr double kRclAlpha = 0.35;
constexpr double kShakeFraction = 0.3;
constexpr int kShakesPerRestart = 2;
constexpr int kSegmentMin = 1;
constexpr int kSegmentMax = 4;

inline Solution solve_grasp(const Problem& p,
                            const orienteering::GraspConfig& cfg) {
    Solution best = solve_greedy(p);
    util::Rng root(cfg.seed);
    for (int it = 0; it < cfg.iterations; ++it) {
        util::Rng rng = root.split(static_cast<std::uint64_t>(it) + 1);
        Solution s = construct(p, kRclAlpha, rng);
        polish(p, s);
        if (s.feasible(p) &&
            (s.prize > best.prize + kEps ||
             (s.prize > best.prize - kEps && s.cost < best.cost - kEps))) {
            best = s;
        }
        Solution inc = best;
        for (int round = 0; round < kShakesPerRestart; ++round) {
            shake(p, inc, kShakeFraction, rng);
            polish(p, inc);
            if (inc.feasible(p) && inc.prize > best.prize + kEps) best = inc;
        }
    }
    return best;
}

inline void remove_segment(const Problem& p, Solution& s, int seg_min,
                           int seg_max, util::Rng& rng) {
    if (s.tour.size() <= 2) return;
    const auto removable = static_cast<std::int64_t>(s.tour.size()) - 1;
    const std::int64_t len = std::min<std::int64_t>(
        removable, rng.uniform_int(seg_min, std::max(seg_min, seg_max)));
    const std::int64_t start = rng.uniform_int(1, removable);
    std::vector<std::size_t> keep;
    keep.reserve(s.tour.size());
    for (std::size_t i = 0; i < s.tour.size(); ++i) {
        const auto pos = static_cast<std::int64_t>(i);
        bool drop = false;
        for (std::int64_t t = 0; t < len; ++t) {
            std::int64_t slot = start + t;
            if (slot > removable) slot -= removable;
            if (pos == slot) {
                drop = true;
                break;
            }
        }
        if (!drop) keep.push_back(s.tour[i]);
    }
    s = orienteering::make_solution(p, std::move(keep));
}

inline Solution solve_ils(const Problem& p,
                          const orienteering::IlsConfig& cfg) {
    Solution best = solve_greedy(p);
    util::Rng rng(cfg.seed);
    int stale = 0;
    for (int it = 0; it < cfg.iterations; ++it) {
        Solution cand = best;
        remove_segment(p, cand, kSegmentMin, kSegmentMax, rng);
        polish(p, cand);
        if (cand.feasible(p) &&
            (cand.prize > best.prize + kEps ||
             (cand.prize > best.prize - kEps &&
              cand.cost < best.cost - kEps))) {
            best = std::move(cand);
            stale = 0;
        } else if (cfg.patience > 0 && ++stale >= cfg.patience) {
            break;
        }
    }
    return best;
}

}  // namespace uavdc::testing::orienteering_oracle
