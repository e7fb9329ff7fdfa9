#include "uavdc/core/algorithm3.hpp"

#include <algorithm>
#include <memory_resource>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"

namespace uavdc::core {

namespace {

constexpr double kEps = 1e-9;
constexpr double kMinGainMb = 1e-6;

/// Best virtual-location choice for one real candidate this iteration.
struct Score {
    double new_mb{0.0};    ///< P'(s_{j,k}) under current residuals
    double extra_dwell_s{0.0};  ///< k * t'(s_j) / K
    TourBuilder::Insertion ins{};
    bool in_tour{false};
    bool feasible{false};
    double ratio{-1.0};
};

}  // namespace

PlanResult PartialCollectionPlanner::plan(const PlanningContext& ctx) {
    UAVDC_REQUIRE(cfg_.k >= 1)
        << "PartialCollectionPlanner: k must be >= 1, got " << cfg_.k;
    return plan_over_candidates(
        ctx, cfg_.reduction,
        [&](const CandidateView& view) { return plan_view(ctx, view); });
}

PlanResult PartialCollectionPlanner::plan_view(const PlanningContext& ctx,
                                               const CandidateView& view) {
    return cfg_.scoring == ScoringEngine::kReference
               ? plan_reference(ctx, view)
               : plan_incremental(ctx, view);
}

PlanResult PartialCollectionPlanner::plan_reference(
    const PlanningContext& ctx, const CandidateView& view) {
    const model::Instance& inst = ctx.instance();
    const auto& cands = view.set->candidates;

    const double bw = inst.uav.bandwidth_mbps;
    const double eta_h = inst.uav.hover_power_w;
    const double energy_cap = inst.uav.energy_j;
    const int k_max = cfg_.k;

    std::vector<double> residual(inst.devices.size());
    for (std::size_t v = 0; v < inst.devices.size(); ++v) {
        residual[v] = inst.devices[v].data_mb;
    }
    std::vector<double> dwell_of(cands.size(), 0.0);
    std::vector<char> in_tour(cands.size(), 0);
    TourBuilder tour(inst.depot);
    double hover_energy = 0.0;
    double hover_seconds = 0.0;
    double collected_mb = 0.0;
    const double deadline = cfg_.max_tour_time_s;

    std::vector<Score> scores(cands.size());
    const bool parallel =
        cfg_.parallel_threshold > 0 &&
        cands.size() >= static_cast<std::size_t>(cfg_.parallel_threshold);

    int iterations = 0;
    int since_retour = 0;
    for (;;) {
        ++iterations;
        auto score_one = [&](std::size_t j) {
            Score best{};
            const auto& c = cands[j];
            const auto cov = view.set->covered(j);
            // t'(s_j): max residual upload time over C(s_j) (Eq. 12 with
            // residual volumes, per Alg. 3 lines 11-12).
            double t_full = 0.0;
            for (const std::int32_t v : cov) {
                t_full = std::max(
                    t_full, residual[static_cast<std::size_t>(v)] / bw);
            }
            if (t_full > kEps) {
                const TourBuilder::Insertion ins =
                    in_tour[j] != 0 ? TourBuilder::Insertion{0, 0.0}
                                    : tour.cheapest_insertion(c.pos);
                const double travel_j_extra =
                    inst.uav.travel_energy(ins.delta_m);
                // Evaluate each virtual location s_{j,k}; keep the best
                // feasible ratio (the argmax in Alg. 3 line 6 ranges over
                // all virtual locations).
                for (int k = 1; k <= k_max; ++k) {
                    const double dt = static_cast<double>(k) * t_full /
                                      static_cast<double>(k_max);
                    double gain = 0.0;  // Eq. 4 under residual volumes
                    for (const std::int32_t v : cov) {
                        gain += std::min(
                            residual[static_cast<std::size_t>(v)], bw * dt);
                    }
                    if (gain <= kMinGainMb) continue;
                    const double extra_hover = dt * eta_h;
                    const double total =
                        hover_energy + extra_hover +
                        inst.uav.travel_energy(tour.length() + ins.delta_m);
                    if (total > energy_cap + kEps) continue;
                    if (deadline > 0.0) {
                        const double tour_time =
                            hover_seconds + dt +
                            inst.uav.travel_time(tour.length() +
                                                 ins.delta_m);
                        if (tour_time > deadline + kEps) continue;
                    }
                    const double ratio =
                        gain /
                        std::max(extra_hover + travel_j_extra, kEps);
                    if (ratio > best.ratio) {
                        best.new_mb = gain;
                        best.extra_dwell_s = dt;
                        best.ins = ins;
                        best.in_tour = in_tour[j] != 0;
                        best.feasible = true;
                        best.ratio = ratio;
                    }
                }
            }
            scores[j] = best;
        };
        util::maybe_parallel_for(parallel, 0, cands.size(), score_one, 32);

        // Deterministic argmax: (ratio desc, index asc), threshold > kEps.
        std::size_t best = cands.size();
        for (std::size_t j = 0; j < cands.size(); ++j) {
            if (scores[j].feasible && scores[j].ratio > kEps &&
                (best == cands.size() ||
                 scores[j].ratio > scores[best].ratio)) {
                best = j;
            }
        }
        if (best == cands.size()) break;

        const auto& c = cands[best];
        const Score& s = scores[best];
        if (!s.in_tour) {
            tour.insert(c.pos, util::checked_cast<int>(best), s.ins);
            in_tour[best] = 1;
            if (cfg_.retour_every > 0 &&
                ++since_retour >= cfg_.retour_every) {
                tour.reoptimize();
                since_retour = 0;
            }
        }
        dwell_of[best] += s.extra_dwell_s;
        hover_energy += s.extra_dwell_s * eta_h;
        hover_seconds += s.extra_dwell_s;
        collected_mb += s.new_mb;
        const double budget_mb = bw * s.extra_dwell_s;
        for (const std::int32_t v : view.set->covered(best)) {
            auto& r = residual[static_cast<std::size_t>(v)];
            r -= std::min(r, budget_mb);
        }
    }
    tour.reoptimize();

    return assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                         hover_energy, iterations);
}

PlanResult PartialCollectionPlanner::plan_incremental(
    const PlanningContext& ctx, const CandidateView& view) {
    const model::Instance& inst = ctx.instance();
    const auto& cands = view.set->candidates;
    const std::size_t n = cands.size();

    const double bw = inst.uav.bandwidth_mbps;
    const double eta_h = inst.uav.hover_power_w;
    const double energy_cap = inst.uav.energy_j;
    const int k_max = cfg_.k;
    const double deadline = cfg_.max_tour_time_s;
    const bool parallel =
        cfg_.parallel_threshold > 0 &&
        n >= static_cast<std::size_t>(cfg_.parallel_threshold);

    // Per-plan scratch lives in the context's arena: back-to-back plans on
    // the same context reuse one warmed block (zero allocation).
    ArenaLease lease = ctx.acquire_arena();
    std::pmr::memory_resource* mr = lease.resource();

    std::pmr::vector<double> residual(inst.devices.size(), 0.0, mr);
    for (std::size_t v = 0; v < inst.devices.size(); ++v) {
        residual[v] = inst.devices[v].data_mb;
    }
    std::pmr::vector<double> dwell_of(n, 0.0, mr);
    std::pmr::vector<char> in_tour(n, 0, mr);
    TourBuilder tour(inst.depot);
    double hover_energy = 0.0;
    double hover_seconds = 0.0;
    double collected_mb = 0.0;

    // SoA candidate plane (coords + forward CSR coverage) shared across
    // plans through the context. The gain loops below walk the CSR lists
    // with kernels whose accumulation order matches the reference engine
    // exactly (ordered) or reassociates into 8 fixed lanes (fast, opt-in
    // epsilon tier).
    const CandidateSoa& csoa = *view.soa;
    const bool fast = cfg_.scoring == ScoringEngine::kIncrementalFast;
    InsertionCache cache(tour, std::span(csoa.pos.xs.data(), n),
                         std::span(csoa.pos.ys.data(), n), mr);
    // Device -> covering-candidates inversion, prebuilt with the view
    // (context- or reduction-memoized; the warm-serve win).
    UAVDC_DCHECK(view.inverted != nullptr);
    const InvertedCoverageIndex& inverted = *view.inverted;
    LazyGreedyQueue queue(n);
    std::pmr::vector<Score> scores(n, Score{}, mr);  // read back on selection

    auto capped_sum = [&](std::span<const std::int32_t> cov, double cap) {
        return fast ? kernels::capped_sum_fast(cov.data(), cov.size(),
                                               residual.data(), cap)
                    : kernels::capped_sum_ordered(cov.data(), cov.size(),
                                                  residual.data(), cap);
    };

    // Upper-bound key: the best per-k ratio *ignoring feasibility*. Each
    // per-k value is computed with the exact expressions of score_one, so
    // the max over all k is >= the max over the feasible subset — a valid
    // bound with no floating-point slack. Returns -1 when the candidate is
    // permanently dead (residuals only shrink, so t'(s) <= eps or all-k
    // gains <= kMinGainMb can never revert).
    auto key_of = [&](std::size_t j) {
        const auto cov = view.set->covered(j);
        const double t_full = kernels::max_residual_time_ordered(
            cov.data(), cov.size(), residual.data(), bw);
        if (t_full <= kEps) return -1.0;
        const double travel_extra =
            in_tour[j] != 0 ? inst.uav.travel_energy(0.0)
                            : inst.uav.travel_energy(cache.get(j).delta_m);
        double ub = -1.0;
        for (int k = 1; k <= k_max; ++k) {
            const double dt = static_cast<double>(k) * t_full /
                              static_cast<double>(k_max);
            const double gain = capped_sum(cov, bw * dt);
            if (gain <= kMinGainMb) continue;
            const double extra_hover = dt * eta_h;
            ub = std::max(ub,
                          gain / std::max(extra_hover + travel_extra, kEps));
        }
        return ub;
    };

    // Exact evaluation: byte-for-byte the reference score_one, with the
    // cached insertion standing in for tour.cheapest_insertion.
    auto eval = [&](std::size_t j) -> std::pair<double, bool> {
        Score best{};
        const auto cov = view.set->covered(j);
        const double t_full = kernels::max_residual_time_ordered(
            cov.data(), cov.size(), residual.data(), bw);
        if (t_full > kEps) {
            const TourBuilder::Insertion ins =
                in_tour[j] != 0 ? TourBuilder::Insertion{0, 0.0}
                                : cache.get(j);
            const double travel_j_extra = inst.uav.travel_energy(ins.delta_m);
            for (int k = 1; k <= k_max; ++k) {
                const double dt = static_cast<double>(k) * t_full /
                                  static_cast<double>(k_max);
                const double gain = capped_sum(cov, bw * dt);
                if (gain <= kMinGainMb) continue;
                const double extra_hover = dt * eta_h;
                const double total =
                    hover_energy + extra_hover +
                    inst.uav.travel_energy(tour.length() + ins.delta_m);
                if (total > energy_cap + kEps) continue;
                if (deadline > 0.0) {
                    const double tour_time =
                        hover_seconds + dt +
                        inst.uav.travel_time(tour.length() + ins.delta_m);
                    if (tour_time > deadline + kEps) continue;
                }
                const double ratio =
                    gain / std::max(extra_hover + travel_j_extra, kEps);
                if (ratio > best.ratio) {
                    best.new_mb = gain;
                    best.extra_dwell_s = dt;
                    best.ins = ins;
                    best.in_tour = in_tour[j] != 0;
                    best.feasible = true;
                    best.ratio = ratio;
                }
            }
        }
        scores[j] = best;
        return {best.ratio, best.feasible && best.ratio > kEps};
    };

    cache.rebuild_all(parallel);
    for (std::size_t j = 0; j < n; ++j) {
        const double key = key_of(j);
        if (key < 0.0) {
            queue.deactivate(j);
            cache.deactivate(j);
        } else {
            queue.update(j, key);
        }
    }

    int iterations = 0;
    int since_retour = 0;
    std::pmr::vector<std::size_t> gain_dirty(mr);
    std::pmr::vector<std::pair<std::size_t, double>> requeue(mr);
    std::pmr::vector<char> dirty_mark(n, 0, mr);
    std::pmr::vector<std::size_t> ins_changed(mr);
    for (;;) {
        ++iterations;
        const auto pick = queue.pop_best(/*exact_keys=*/false, eval);
        if (!pick.found) break;
        const std::size_t best = pick.index;
        const auto& c = cands[best];
        const Score s = scores[best];

        const bool was_new = !s.in_tour;
        bool do_retour = false;
        if (was_new) {
            tour.insert(c.pos, util::checked_cast<int>(best), s.ins);
            in_tour[best] = 1;
            cache.deactivate(best);
            if (cfg_.retour_every > 0 &&
                ++since_retour >= cfg_.retour_every) {
                do_retour = true;
                since_retour = 0;
            }
        }
        dwell_of[best] += s.extra_dwell_s;
        hover_energy += s.extra_dwell_s * eta_h;
        hover_seconds += s.extra_dwell_s;
        collected_mb += s.new_mb;

        // Drain residuals; a device whose residual moved dirties exactly
        // the candidates covering it (the selected one included — it needs
        // a fresh key or retirement).
        const double budget_mb = bw * s.extra_dwell_s;
        gain_dirty.clear();
        for (const std::int32_t v : view.set->covered(best)) {
            const auto dv = static_cast<std::size_t>(v);
            auto& r = residual[dv];
            const double before = r;
            r -= std::min(r, budget_mb);
            if (r == before) continue;
            for (const std::int32_t j : inverted.covering(dv)) {
                const auto cj = static_cast<std::size_t>(j);
                if (!queue.active(cj) || dirty_mark[cj] != 0) continue;
                dirty_mark[cj] = 1;
                gain_dirty.push_back(cj);
            }
        }

        ins_changed.clear();
        if (do_retour) {
            tour.reoptimize();
            cache.invalidate_all();
            cache.rebuild_all(parallel);
        } else if (was_new) {
            cache.on_insert(s.ins, ins_changed);
        }

        auto refresh_key = [&](std::size_t j) {
            if (!queue.active(j)) return;
            const double key = key_of(j);
            if (key < 0.0) {
                queue.deactivate(j);
                if (in_tour[j] == 0) cache.deactivate(j);
            } else {
                queue.update(j, key);
            }
        };
        if (do_retour) {
            for (const std::size_t j : gain_dirty) dirty_mark[j] = 0;
            // Every insertion delta changed: refresh every live key, as a
            // single O(n) heapify instead of n heap pushes.
            requeue.clear();
            for (std::size_t j = 0; j < n; ++j) {
                if (!queue.active(j)) continue;
                const double key = key_of(j);
                if (key < 0.0) {
                    queue.deactivate(j);
                    if (in_tour[j] == 0) cache.deactivate(j);
                } else {
                    requeue.push_back({j, key});
                }
            }
            queue.rebuild(requeue);
        } else {
            for (const std::size_t j : gain_dirty) {
                dirty_mark[j] = 0;
                refresh_key(j);
            }
            for (const std::size_t j : ins_changed) refresh_key(j);
        }
    }
    tour.reoptimize();

    return assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                         hover_energy, iterations);
}

}  // namespace uavdc::core
