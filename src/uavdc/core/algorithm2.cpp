#include "uavdc/core/algorithm2.hpp"

#include <algorithm>
#include <memory_resource>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"

namespace uavdc::core {

std::string to_string(RatioRule rule) {
    switch (rule) {
        case RatioRule::kPaper:
            return "eq13";
        case RatioRule::kVolumeOnly:
            return "volume";
        case RatioRule::kPerHover:
            return "per-hover";
    }
    return "unknown";
}

namespace {

constexpr double kEps = 1e-9;

/// Per-candidate score computed each iteration (reference engine).
struct Score {
    double new_mb{0.0};       ///< P'(s): data from not-yet-covered devices
    double dwell_s{0.0};      ///< t'(s): max residual upload time
    double travel_delta_m{0.0};
    TourBuilder::Insertion ins{};
    bool feasible{false};
    double ratio{-1.0};
};

/// Residual prize P'(s) and dwell t'(s) of a candidate under the current
/// covered set (Eq. 11-12). Shared by both engines so their floating-point
/// results are bit-identical.
struct Gain {
    double new_mb{0.0};
    double dwell_s{0.0};
};

Gain residual_gain(const model::Instance& inst,
                   std::span<const std::int32_t> cov,
                   const std::vector<char>& covered, double bw) {
    Gain g;
    for (const std::int32_t v : cov) {
        if (covered[static_cast<std::size_t>(v)] != 0) continue;
        const auto& d = inst.devices[static_cast<std::size_t>(v)];
        if (d.data_mb <= 0.0) continue;
        g.new_mb += d.data_mb;
        g.dwell_s = std::max(g.dwell_s, d.upload_time(bw));
    }
    return g;
}

double rank_ratio(RatioRule rule, double new_mb, double extra_hover,
                  double extra_travel) {
    switch (rule) {
        case RatioRule::kPaper:
            return new_mb / std::max(extra_hover + extra_travel, kEps);
        case RatioRule::kVolumeOnly:
            return new_mb;
        case RatioRule::kPerHover:
            return new_mb / std::max(extra_hover, kEps);
    }
    return -1.0;
}

}  // namespace

PlanResult GreedyCoveragePlanner::plan(const PlanningContext& ctx) {
    return plan_over_candidates(
        ctx, cfg_.reduction,
        [&](const CandidateView& view) { return plan_view(ctx, view); });
}

PlanResult GreedyCoveragePlanner::plan_view(const PlanningContext& ctx,
                                            const CandidateView& view) {
    return cfg_.scoring == ScoringEngine::kReference
               ? plan_reference(ctx, view)
               : plan_incremental(ctx, view);
}

PlanResult GreedyCoveragePlanner::plan_reference(const PlanningContext& ctx,
                                                 const CandidateView& view) {
    const model::Instance& inst = ctx.instance();
    const auto& cands = view.set->candidates;

    const double bw = inst.uav.bandwidth_mbps;
    const double eta_h = inst.uav.hover_power_w;
    const double energy_cap = inst.uav.energy_j;

    std::vector<char> covered(inst.devices.size(), 0);
    std::vector<char> used(cands.size(), 0);
    std::vector<double> dwell_of(cands.size(), 0.0);  // dwell when inserted
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
        auto score_one = [&](std::size_t i) {
            Score s{};
            if (used[i] == 0) {
                const auto& c = cands[i];
                const Gain g =
                    residual_gain(inst, view.set->covered(i), covered, bw);
                s.new_mb = g.new_mb;
                s.dwell_s = g.dwell_s;
                if (s.new_mb > 0.0) {
                    if (cfg_.exact_ratio_tsp) {
                        // Literal Eq. 13: TSP(S_j) via Christofides over the
                        // current stops plus this candidate. Thread-local
                        // scratch: one allocation per thread, not one per
                        // candidate per iteration.
                        static thread_local std::vector<geom::Vec2> pts;
                        pts.clear();
                        pts.reserve(tour.size() + 2);
                        pts.push_back(inst.depot);
                        for (const auto& q : tour.stops()) pts.push_back(q);
                        pts.push_back(c.pos);
                        // The reference engine is the equivalence oracle and
                        // keeps the original per-candidate rebuild.
                        // NOLINTNEXTLINE(uavdc-no-dense-rebuild-in-loop): oracle
                        const auto g2 = graph::DenseGraph::euclidean(pts);
                        const auto order = graph::christofides_tour(g2, 0);
                        const double new_len = g2.tour_length(order);
                        s.travel_delta_m =
                            std::max(0.0, new_len - tour.length());
                        s.ins = tour.cheapest_insertion(c.pos);
                    } else {
                        s.ins = tour.cheapest_insertion(c.pos);
                        s.travel_delta_m = s.ins.delta_m;
                    }
                    const double extra_hover = s.dwell_s * eta_h;
                    const double extra_travel =
                        inst.uav.travel_energy(s.travel_delta_m);
                    const double total =
                        hover_energy + extra_hover +
                        inst.uav.travel_energy(tour.length() +
                                               s.travel_delta_m);
                    s.feasible = total <= energy_cap + kEps;
                    if (s.feasible && deadline > 0.0) {
                        const double tour_time =
                            hover_seconds + s.dwell_s +
                            inst.uav.travel_time(tour.length() +
                                                 s.travel_delta_m);
                        s.feasible = tour_time <= deadline + kEps;
                    }
                    if (s.feasible) {
                        s.ratio = rank_ratio(cfg_.ratio_rule, s.new_mb,
                                             extra_hover, extra_travel);
                    }
                }
            }
            scores[i] = s;
        };
        util::maybe_parallel_for(parallel, 0, cands.size(), score_one, 64);

        // Deterministic argmax: (ratio desc, index asc), threshold > kEps.
        std::size_t best = cands.size();
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (scores[i].feasible && scores[i].ratio > kEps &&
                (best == cands.size() ||
                 scores[i].ratio > scores[best].ratio)) {
                best = i;
            }
        }
        if (best == cands.size()) break;

        const auto& c = cands[best];
        const Score& s = scores[best];
        tour.insert(c.pos, util::checked_cast<int>(best), s.ins);
        used[best] = 1;
        dwell_of[best] = s.dwell_s;
        hover_energy += s.dwell_s * eta_h;
        hover_seconds += s.dwell_s;
        collected_mb += s.new_mb;
        for (const std::int32_t v : view.set->covered(best)) {
            covered[static_cast<std::size_t>(v)] = 1;
        }

        if (cfg_.retour_every > 0 && ++since_retour >= cfg_.retour_every) {
            tour.reoptimize();
            since_retour = 0;
        }
    }
    tour.reoptimize();

    return assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                         hover_energy, iterations);
}

PlanResult GreedyCoveragePlanner::plan_incremental(
    const PlanningContext& ctx, const CandidateView& view) {
    const model::Instance& inst = ctx.instance();
    const auto& cands = view.set->candidates;
    const std::size_t n = cands.size();

    const double eta_h = inst.uav.hover_power_w;
    const double energy_cap = inst.uav.energy_j;
    const double deadline = cfg_.max_tour_time_s;
    const bool tsp = cfg_.exact_ratio_tsp;
    const bool parallel =
        cfg_.parallel_threshold > 0 &&
        n >= static_cast<std::size_t>(cfg_.parallel_threshold);

    // Per-plan scratch lives in the context's arena: back-to-back plans on
    // the same context reuse one warmed block (zero allocation).
    ArenaLease lease = ctx.acquire_arena();
    std::pmr::memory_resource* mr = lease.resource();

    std::pmr::vector<char> covered(inst.devices.size(), 0, mr);
    std::pmr::vector<char> used(n, 0, mr);
    std::pmr::vector<double> dwell_of(n, 0.0, mr);
    TourBuilder tour(inst.depot);
    double hover_energy = 0.0;
    double hover_seconds = 0.0;
    double collected_mb = 0.0;

    // SoA planes shared across plans through the context (or the reduced
    // mirrors owned by the memoized ReducedCandidates).
    const DeviceSoa& dsoa = ctx.device_soa();
    const CandidateSoa& csoa = *view.soa;
    InsertionCache cache(tour, std::span(csoa.pos.xs.data(), n),
                         std::span(csoa.pos.ys.data(), n), mr);
    // Device -> covering-candidates inversion, prebuilt with the view
    // (context- or reduction-memoized; the warm-serve win).
    UAVDC_DCHECK(view.inverted != nullptr);
    const InvertedCoverageIndex& inverted = *view.inverted;
    LazyGreedyQueue queue(n);

    // Residual gains, refreshed only for candidates whose coverage
    // intersects newly covered devices. The ordered kernel walks the
    // forward CSR coverage list with the exact accumulation order of the
    // reference residual_gain (bit-identical); the opt-in fast kernel
    // reassociates the sum into 8 fixed lanes (epsilon tier).
    const bool fast = cfg_.scoring == ScoringEngine::kIncrementalFast;
    std::pmr::vector<double> gain_mb(n, 0.0, mr);
    std::pmr::vector<double> gain_dwell(n, 0.0, mr);
    auto refresh_gain = [&](std::size_t i) {
        const auto cov = view.set->covered(i);
        const kernels::GainAccum g =
            fast ? kernels::residual_gain_fast(cov.data(), cov.size(),
                                               dsoa.data_mb.data(),
                                               dsoa.upload_s.data(),
                                               covered.data())
                 : kernels::residual_gain_ordered(cov.data(), cov.size(),
                                                  dsoa.data_mb.data(),
                                                  dsoa.upload_s.data(),
                                                  covered.data());
        gain_mb[i] = g.sum_mb;
        gain_dwell[i] = g.max_s;
    };

    // Heap key. Default path: the exact (state-independent) ratio — policy
    // A. exact_ratio_tsp: an upper bound on the ratio (travel >= 0, so
    // dropping the travel term can only increase eq13/per-hover) — policy B.
    auto key_of = [&](std::size_t i) {
        const double extra_hover = gain_dwell[i] * eta_h;
        if (!tsp) {
            return rank_ratio(cfg_.ratio_rule, gain_mb[i], extra_hover,
                              inst.uav.travel_energy(cache.get(i).delta_m));
        }
        switch (cfg_.ratio_rule) {
            case RatioRule::kPaper:
            case RatioRule::kPerHover:
                return gain_mb[i] / std::max(extra_hover, kEps);
            case RatioRule::kVolumeOnly:
                return gain_mb[i];
        }
        return -1.0;
    };

    // TSP(S_j) - TSP(S_{j-1}) for the exact_ratio_tsp path, served from the
    // PlanningContext distance matrix (node 0 = depot, node j+1 = *original*
    // candidate j) instead of rebuilding Euclidean rows per candidate. The
    // context matrix covers the full set, so view-local indices are mapped
    // back through view.original().
    std::pmr::vector<std::size_t> nodes(mr);
    auto tsp_delta = [&](std::size_t i) {
        const std::size_t m = tour.size() + 2;
        nodes.clear();
        nodes.reserve(m);
        nodes.push_back(0);
        for (const int key : tour.keys()) {
            nodes.push_back(view.original(static_cast<std::size_t>(key)) + 1);
        }
        nodes.push_back(view.original(i) + 1);
        graph::DenseGraph g(m);
        ctx.fill_submatrix({nodes.data(), nodes.size()}, g);
        const auto order = graph::christofides_tour(g, 0);
        const double new_len = g.tour_length(order);
        return std::max(0.0, new_len - tour.length());
    };

    // Exact score + selectability, with the identical expressions (and
    // operand order) as the reference engine's score_one.
    auto eval = [&](std::size_t i) -> std::pair<double, bool> {
        const double travel_delta = tsp ? tsp_delta(i) : cache.get(i).delta_m;
        const double extra_hover = gain_dwell[i] * eta_h;
        const double extra_travel = inst.uav.travel_energy(travel_delta);
        const double total =
            hover_energy + extra_hover +
            inst.uav.travel_energy(tour.length() + travel_delta);
        bool feasible = total <= energy_cap + kEps;
        if (feasible && deadline > 0.0) {
            const double tour_time =
                hover_seconds + gain_dwell[i] +
                inst.uav.travel_time(tour.length() + travel_delta);
            feasible = tour_time <= deadline + kEps;
        }
        const double ratio = rank_ratio(cfg_.ratio_rule, gain_mb[i],
                                        extra_hover, extra_travel);
        return {ratio, feasible && ratio > kEps};
    };

    // Initial full scoring pass.
    cache.rebuild_all(parallel);
    util::maybe_parallel_for(parallel, 0, n, refresh_gain, 64);
    for (std::size_t i = 0; i < n; ++i) {
        if (gain_mb[i] <= 0.0) {
            // No residual prize now means none ever (coverage only grows).
            queue.deactivate(i);
            cache.deactivate(i);
        } else {
            queue.update(i, key_of(i));
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
        const auto pick = queue.pop_best(/*exact_keys=*/!tsp, eval);
        if (!pick.found) break;
        const std::size_t best = pick.index;
        const auto& c = cands[best];
        const TourBuilder::Insertion ins = cache.get(best);

        tour.insert(c.pos, util::checked_cast<int>(best), ins);
        used[best] = 1;
        queue.deactivate(best);
        cache.deactivate(best);
        dwell_of[best] = gain_dwell[best];
        hover_energy += gain_dwell[best] * eta_h;
        hover_seconds += gain_dwell[best];
        collected_mb += gain_mb[best];

        // Newly covered devices dirty exactly the candidates that share
        // them (inverted index) — nobody else's gain moved.
        gain_dirty.clear();
        for (const std::int32_t v : view.set->covered(best)) {
            const auto dv = static_cast<std::size_t>(v);
            if (covered[dv] != 0) continue;
            covered[dv] = 1;
            for (const std::int32_t j : inverted.covering(dv)) {
                const auto cj = static_cast<std::size_t>(j);
                if (cj == best || used[cj] != 0 || !queue.active(cj) ||
                    dirty_mark[cj] != 0) {
                    continue;
                }
                dirty_mark[cj] = 1;
                gain_dirty.push_back(cj);
            }
        }

        ins_changed.clear();
        const bool do_retour =
            cfg_.retour_every > 0 && ++since_retour >= cfg_.retour_every;
        if (do_retour) {
            since_retour = 0;
            tour.reoptimize();
            cache.invalidate_all();
            cache.rebuild_all(parallel);
        } else {
            cache.on_insert(ins, ins_changed);
        }

        util::maybe_parallel_for(
            parallel && gain_dirty.size() >= 256, 0, gain_dirty.size(),
            [&](std::size_t t) { refresh_gain(gain_dirty[t]); }, 64);
        for (const std::size_t j : gain_dirty) {
            dirty_mark[j] = 0;
            if (gain_mb[j] <= 0.0) {
                queue.deactivate(j);
                cache.deactivate(j);
            }
        }

        if (do_retour) {
            // Every insertion delta changed and feasibility may have
            // loosened (shorter tour): refresh every live key, as a single
            // O(n) heapify instead of n heap pushes.
            requeue.clear();
            for (std::size_t j = 0; j < n; ++j) {
                if (used[j] == 0 && queue.active(j)) {
                    requeue.push_back({j, key_of(j)});
                }
            }
            queue.rebuild(requeue);
        } else {
            for (const std::size_t j : gain_dirty) {
                if (queue.active(j)) queue.update(j, key_of(j));
            }
            for (const std::size_t j : ins_changed) {
                if (queue.active(j)) queue.update(j, key_of(j));
            }
        }
    }
    tour.reoptimize();

    return assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                         hover_energy, iterations);
}

}  // namespace uavdc::core
