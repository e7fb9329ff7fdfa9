#include "uavdc/core/algorithm3.hpp"

#include <algorithm>
#include <memory_resource>
#include <span>
#include <utility>

#include "uavdc/core/lazy_greedy.hpp"
#include "uavdc/core/partial_policy.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"

namespace uavdc::core {

namespace {

using partial::kEps;
using partial::kMinGainMb;
using partial::PartialPolicy;
using partial::Score;

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
               : lazy_greedy::run<PartialPolicy>(ctx, view, cfg_);
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

}  // namespace uavdc::core
