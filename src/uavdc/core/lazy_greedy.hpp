#pragma once

// The lazy-greedy insertion loop behind Algorithms 2 and 3. Internal to
// core/algorithm2.cpp and core/partial_policy.hpp; each supplies its gain
// state as a policy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <utility>
#include <vector>

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/incremental_scorer.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core::lazy_greedy {

/// The plan built so far. `run` writes it; policies read it to score
/// candidates against the current tour and totals.
struct State {
    State(const CandidateView& view, geom::Vec2 depot,
          std::pmr::memory_resource* mr)
        : tour(depot),
          cache(tour, std::span(view.soa->pos.xs.data(), view.size()),
                std::span(view.soa->pos.ys.data(), view.size()), mr),
          in_tour(view.size(), 0, mr),
          dwell_of(view.size(), 0.0, mr) {}

    TourBuilder tour;
    /// Cheapest insertion of every live candidate not yet in the tour.
    InsertionCache cache;
    std::pmr::vector<char> in_tour;
    /// Dwell per candidate, summed over every time it was picked.
    std::pmr::vector<double> dwell_of;
    double hover_energy{0.0};
    double hover_seconds{0.0};
    double collected_mb{0.0};
};

/// What one selection collects, as the policy's `pick` reports it.
struct Take {
    double dwell_s{0.0};  ///< dwell added at the selected candidate
    double mb{0.0};       ///< volume that dwell collects
    bool insert{false};   ///< the candidate is a new stop of the tour
};

/// Greedy max-ratio insertion over `view` with lazy re-scoring, and the
/// plan it leaves. Each round pops the best candidate, books its `Take`,
/// inserts it when new, and re-keys only what moved: the candidates
/// covering a device whose state changed, and those whose cached
/// insertion changed. Every `cfg.retour_every` insertions the tour is
/// re-optimised and every live key is refreshed.
///
/// `Policy` is built as `Policy(ctx, view, cfg, state, mr, parallel)` and
/// holds the planner's gain state. It provides:
///  - `double key(j)`: the heap key of live candidate j, < 0 retires j. It
///    bounds j's exact ratio from above, and a j that `eval` finds
///    unselectable must stay so until its key is next set
///    (`LazyGreedyQueue::pop_best`);
///  - `std::pair<double, bool> eval(j)`: exact ratio and selectability;
///  - `Take pick(best)`: what selecting `best` collects;
///  - `bool drain(device)`: applies that pick to one device `best` covers,
///    true when the device's state moved (its candidates are then dirty);
///  - `void refresh(dirty, parallel)`: refreshes the dirty candidates' gain
///    state in one batch before their keys are recomputed.
template <typename Policy, typename Config>
[[nodiscard]] PlanResult run(const PlanningContext& ctx,
                             const CandidateView& view, const Config& cfg) {
    const std::size_t n = view.size();
    const double eta_h = ctx.instance().uav.hover_power_w;
    const bool parallel =
        cfg.parallel_threshold > 0 &&
        n >= static_cast<std::size_t>(cfg.parallel_threshold);

    // Per-plan scratch lives in the context's arena: back-to-back plans on
    // the same context reuse one warmed block (zero allocation).
    ArenaLease lease = ctx.acquire_arena();
    std::pmr::memory_resource* mr = lease.resource();
    State st(view, ctx.instance().depot, mr);
    Policy policy(ctx, view, cfg, std::as_const(st), mr, parallel);
    // Device -> covering-candidates inversion, prebuilt with the view
    // (context- or reduction-memoized; the warm-serve win).
    UAVDC_DCHECK(view.inverted != nullptr);
    const InvertedCoverageIndex& inverted = *view.inverted;
    LazyGreedyQueue queue(n);

    auto retire = [&](std::size_t j) {
        queue.deactivate(j);
        if (st.in_tour[j] == 0) st.cache.deactivate(j);
    };
    auto rekey = [&](std::size_t j) {
        if (!queue.active(j)) return;
        const double key = policy.key(j);
        if (key < 0.0) {
            retire(j);
        } else {
            queue.update(j, key);
        }
    };
    // Every live key at once, as a single O(n) heapify instead of n heap
    // pushes.
    std::pmr::vector<std::pair<std::size_t, double>> requeue(mr);
    auto rekey_all = [&] {
        requeue.clear();
        for (std::size_t j = 0; j < n; ++j) {
            if (!queue.active(j)) continue;
            const double key = policy.key(j);
            if (key < 0.0) {
                retire(j);
            } else {
                requeue.push_back({j, key});
            }
        }
        queue.rebuild(requeue);
    };

    st.cache.rebuild_all(parallel);
    rekey_all();

    int iterations = 0;
    int since_retour = 0;
    std::pmr::vector<std::size_t> dirty(mr);
    std::pmr::vector<char> dirty_mark(n, 0, mr);
    std::pmr::vector<std::size_t> ins_changed(mr);
    std::pmr::vector<int> kept_keys(mr);
    for (;;) {
        ++iterations;
        const auto found =
            queue.pop_best([&](std::size_t j) { return policy.eval(j); });
        if (!found.found) break;
        const std::size_t best = found.index;
        const Take take = policy.pick(best);
        st.dwell_of[best] += take.dwell_s;
        st.hover_energy += take.dwell_s * eta_h;
        st.hover_seconds += take.dwell_s;
        st.collected_mb += take.mb;

        // A device whose state moved dirties exactly the candidates that
        // cover it (the selected one included); nobody else's gain moved.
        dirty.clear();
        for (const std::int32_t v : view.set->covered(best)) {
            const auto dv = static_cast<std::size_t>(v);
            if (!policy.drain(dv)) continue;
            for (const std::int32_t j : inverted.covering(dv)) {
                const auto cj = static_cast<std::size_t>(j);
                if (!queue.active(cj) || dirty_mark[cj] != 0) continue;
                dirty_mark[cj] = 1;
                dirty.push_back(cj);
            }
        }

        bool retour = false;
        bool reordered = false;  // the re-tour changed the order
        ins_changed.clear();
        if (take.insert) {
            const TourBuilder::Insertion ins = st.cache.get(best);
            st.tour.insert(view.set->candidates[best].pos,
                           util::checked_cast<int>(best), ins);
            st.in_tour[best] = 1;
            st.cache.deactivate(best);
            retour = cfg.retour_every > 0 &&
                     ++since_retour >= cfg.retour_every;
            if (retour) {
                since_retour = 0;
                kept_keys.assign(st.tour.keys().begin(),
                                 st.tour.keys().end());
                st.tour.reoptimize();
                reordered = !std::ranges::equal(kept_keys, st.tour.keys());
            }
            if (reordered) {
                st.cache.invalidate_all();
                st.cache.rebuild_all(parallel);
            } else {
                // A re-tour that kept the order kept every stop and edge,
                // so the entries stay exact under the insertion alone.
                st.cache.on_insert(ins, ins_changed);
            }
        }

        policy.refresh(dirty, parallel);
        for (const std::size_t j : dirty) dirty_mark[j] = 0;
        if (retour) {
            // The length was recomputed (and, when reordered, every
            // insertion delta changed); feasibility may have loosened.
            rekey_all();
        } else {
            for (const std::size_t j : dirty) rekey(j);
            for (const std::size_t j : ins_changed) rekey(j);
        }
    }
    st.tour.reoptimize();

    return assemble_plan(ctx, view, st.tour, st.dwell_of, st.collected_mb,
                         st.hover_energy, iterations);
}

}  // namespace uavdc::core::lazy_greedy
