#include "uavdc/orienteering/ils.hpp"

#include <algorithm>

#include "uavdc/orienteering/greedy.hpp"
#include "uavdc/orienteering/insertion_cache.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc::orienteering {

namespace {

constexpr double kEps = 1e-9;
constexpr int kSegmentMin = 1;  ///< perturbation: smallest removed run
constexpr int kSegmentMax = 4;  ///< perturbation: largest removed run

/// Remove a random contiguous run of non-depot stops from the tour.
void remove_segment(const Problem& p, Solution& s, util::Rng& rng) {
    if (s.tour.size() <= 2) return;
    const auto removable = static_cast<std::int64_t>(s.tour.size()) - 1;
    const std::int64_t len = std::min<std::int64_t>(
        removable, rng.uniform_int(kSegmentMin, kSegmentMax));
    // Start somewhere among the non-depot positions [1, size-1].
    const std::int64_t start = rng.uniform_int(1, removable);
    std::vector<std::size_t> keep;
    keep.reserve(s.tour.size());
    for (std::size_t i = 0; i < s.tour.size(); ++i) {
        const auto pos = static_cast<std::int64_t>(i);
        // Cyclic run over non-depot slots: drop positions start..start+len-1
        // (wrapping within 1..removable).
        bool drop = false;
        for (std::int64_t t = 0; t < len; ++t) {
            std::int64_t slot = start + t;
            if (slot > removable) slot -= removable;  // wrap, skip depot
            if (pos == slot) {
                drop = true;
                break;
            }
        }
        if (!drop) keep.push_back(s.tour[i]);
    }
    s = make_solution(p, std::move(keep));
}

}  // namespace

Solution solve_ils(const Problem& p, const IlsConfig& cfg) {
    p.validate();
    InsertionCache cache(p);
    Solution best = solve_greedy(p, cache);
    util::Rng rng(cfg.seed);
    int stale = 0;
    for (int it = 0; it < cfg.iterations; ++it) {
        Solution cand = best;
        remove_segment(p, cand, rng);
        polish(p, cand, cache);
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

}  // namespace uavdc::orienteering
