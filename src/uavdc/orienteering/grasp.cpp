#include "uavdc/orienteering/grasp.hpp"

#include <algorithm>
#include <vector>

#include "uavdc/graph/local_search.hpp"
#include "uavdc/orienteering/greedy.hpp"
#include "uavdc/orienteering/insertion_cache.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc::orienteering {

namespace {

constexpr double kEps = 1e-9;
/// Candidate-list greediness (0 = pure greedy, 1 = uniform random).
constexpr double kRclAlpha = 0.35;
/// Fraction of non-depot nodes dropped when perturbing the incumbent.
constexpr double kShakeFraction = 0.3;
/// Perturb+repolish rounds per restart.
constexpr int kShakesPerRestart = 2;

struct Candidate {
    std::size_t node;
    graph::Insertion ins;
    double score;
};

/// Randomized greedy construction with a restricted candidate list: at each
/// step gather feasible insertions, keep those with score within
/// [max - kRclAlpha * (max - min), max], and pick one uniformly at random.
Solution construct(const Problem& p, util::Rng& rng, InsertionCache& cache) {
    Solution s;
    s.tour = {p.depot};
    s.cost = 0.0;
    s.prize = p.prizes[p.depot];
    std::vector<bool> in(p.size(), false);
    in[p.depot] = true;
    cache.rebuild(s.tour, in);

    std::vector<Candidate> cands;
    std::vector<std::size_t> rcl;
    for (;;) {
        cands.clear();
        double best = 0.0;
        double worst = std::numeric_limits<double>::infinity();
        for (std::size_t v = 0; v < p.size(); ++v) {
            if (in[v] || p.prizes[v] <= 0.0) continue;
            const graph::Insertion ins = cache.get(v);
            if (s.cost + ins.delta > p.budget + kEps) continue;
            const double score = p.prizes[v] / std::max(ins.delta, kEps);
            cands.push_back({v, ins, score});
            best = std::max(best, score);
            worst = std::min(worst, score);
        }
        if (cands.empty()) break;
        const double cutoff = best - kRclAlpha * (best - worst);
        // Partition candidates into the RCL.
        rcl.clear();
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
        cache.on_insert(s.tour, c.ins.position, in);
    }
    return s;
}

/// Remove a random kShakeFraction of non-depot nodes from the tour.
void shake(const Problem& p, Solution& s, util::Rng& rng) {
    if (s.tour.size() <= 2) return;
    std::vector<std::size_t> keep{p.depot};
    for (std::size_t i = 0; i < s.tour.size(); ++i) {
        const std::size_t v = s.tour[i];
        if (v == p.depot) continue;
        if (!rng.bernoulli(kShakeFraction)) keep.push_back(v);
    }
    s = make_solution(p, std::move(keep));
}

}  // namespace

Solution solve_grasp(const Problem& p, const GraspConfig& cfg) {
    p.validate();
    InsertionCache cache(p);
    Solution best = solve_greedy(p, cache);
    util::Rng root(cfg.seed);
    for (int it = 0; it < cfg.iterations; ++it) {
        util::Rng rng = root.split(static_cast<std::uint64_t>(it) + 1);
        Solution s = construct(p, rng, cache);
        polish(p, s, cache);
        if (s.feasible(p) &&
            (s.prize > best.prize + kEps ||
             (s.prize > best.prize - kEps && s.cost < best.cost - kEps))) {
            best = s;
        }
        Solution inc = best;
        for (int round = 0; round < kShakesPerRestart; ++round) {
            shake(p, inc, rng);
            polish(p, inc, cache);
            if (inc.feasible(p) && inc.prize > best.prize + kEps) best = inc;
        }
    }
    return best;
}

}  // namespace uavdc::orienteering
