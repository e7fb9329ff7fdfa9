#pragma once

// Test-only frozen copy of the from-scratch greedy engines: every round of
// Algorithms 2 and 3 rescores every candidate against the current tour and
// takes the (ratio desc, index asc) argmax, and the benchmark heuristic
// rescans every stop's removal ratio per prune. The served lazy-greedy
// engine (core/lazy_greedy.hpp) and the cached prune loop must match them
// byte for byte. Alg. 2's oracle also keeps the paper's literal Eq. 13
// rule, a Christofides re-tour TSP(S_j) per candidate per round, which the
// library replaces by the cheapest-insertion delta (DESIGN.md
// substitution #3).
//
// Each oracle has the served planner's shape: `plan(ctx)` runs
// `plan_view` through the library's `plan_over_candidates`, so reduced and
// refine views are checked too.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "uavdc/core/algorithm2.hpp"
#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/benchmark_planner.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/graph/dense_graph.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::testing::greedy_oracle {

using core::CandidateView;
using core::PlanningContext;
using core::PlanResult;
using core::RatioRule;
using core::TourBuilder;

constexpr double kEps = 1e-9;
constexpr double kMinGainMb = 1e-6;

inline double rank_ratio(RatioRule rule, double new_mb, double extra_hover,
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

/// Residual prize P'(s) and dwell t'(s) of a candidate under the current
/// covered set (Eq. 11-12).
struct Gain {
    double new_mb{0.0};
    double dwell_s{0.0};
};

inline Gain residual_gain(const model::Instance& inst,
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

/// Algorithm 2, rescanning every candidate per round. With
/// `exact_ratio_tsp` a candidate's travel term is the literal Eq. 13
/// TSP(S_j) - TSP(S_{j-1}), a Christofides tour over the current stops plus
/// the candidate; the stop is still inserted at its cheapest position.
class GreedyCoverageOracle {
  public:
    explicit GreedyCoverageOracle(core::Algorithm2Config cfg,
                                  bool exact_ratio_tsp = false)
        : cfg_(std::move(cfg)), exact_ratio_tsp_(exact_ratio_tsp) {}

    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) const {
        return core::plan_over_candidates(
            ctx, cfg_.reduction,
            [&](const CandidateView& view) { return plan_view(ctx, view); });
    }

    [[nodiscard]] PlanResult plan_view(const PlanningContext& ctx,
                                       const CandidateView& view) const {
        /// Per-candidate score computed each iteration.
        struct Score {
            double new_mb{0.0};   ///< P'(s): data from not-yet-covered devices
            double dwell_s{0.0};  ///< t'(s): max residual upload time
            double travel_delta_m{0.0};
            TourBuilder::Insertion ins{};
            bool feasible{false};
            double ratio{-1.0};
        };

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
                        if (exact_ratio_tsp_) {
                            // Literal Eq. 13: TSP(S_j) via Christofides over
                            // the current stops plus this candidate.
                            // Thread-local scratch: one allocation per
                            // thread, not one per candidate per iteration.
                            static thread_local std::vector<geom::Vec2> pts;
                            pts.clear();
                            pts.reserve(tour.size() + 2);
                            pts.push_back(inst.depot);
                            for (const auto& q : tour.stops()) pts.push_back(q);
                            pts.push_back(c.pos);
                            // The oracle keeps the original per-candidate
                            // rebuild.
                            // NOLINTNEXTLINE(uavdc-no-dense-rebuild-in-loop)
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

            if (cfg_.retour_every > 0 &&
                ++since_retour >= cfg_.retour_every) {
                tour.reoptimize();
                since_retour = 0;
            }
        }
        tour.reoptimize();

        return core::assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                                   hover_energy, iterations);
    }

  private:
    core::Algorithm2Config cfg_;
    bool exact_ratio_tsp_;
};

/// Algorithm 3, rescanning every candidate's K virtual locations per round.
class PartialCollectionOracle {
  public:
    explicit PartialCollectionOracle(core::Algorithm3Config cfg)
        : cfg_(std::move(cfg)) {}

    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) const {
        UAVDC_REQUIRE(cfg_.k >= 1)
            << "PartialCollectionOracle: k must be >= 1, got " << cfg_.k;
        return core::plan_over_candidates(
            ctx, cfg_.reduction,
            [&](const CandidateView& view) { return plan_view(ctx, view); });
    }

    [[nodiscard]] PlanResult plan_view(const PlanningContext& ctx,
                                       const CandidateView& view) const {
        /// Best virtual-location choice for one real candidate this round.
        struct Score {
            double new_mb{0.0};         ///< P'(s_{j,k}) under current residuals
            double extra_dwell_s{0.0};  ///< k * t'(s_j) / K
            TourBuilder::Insertion ins{};
            bool in_tour{false};
            bool feasible{false};
            double ratio{-1.0};
        };

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
                    // feasible ratio (the argmax in Alg. 3 line 6 ranges
                    // over all virtual locations).
                    for (int k = 1; k <= k_max; ++k) {
                        const double dt = static_cast<double>(k) * t_full /
                                          static_cast<double>(k_max);
                        double gain = 0.0;  // Eq. 4 under residual volumes
                        for (const std::int32_t v : cov) {
                            gain += std::min(
                                residual[static_cast<std::size_t>(v)],
                                bw * dt);
                        }
                        if (gain <= kMinGainMb) continue;
                        const double extra_hover = dt * eta_h;
                        const double total =
                            hover_energy + extra_hover +
                            inst.uav.travel_energy(tour.length() +
                                                   ins.delta_m);
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

        return core::assemble_plan(ctx, view, tour, dwell_of, collected_mb,
                                   hover_energy, iterations);
    }

  private:
    core::Algorithm3Config cfg_;
};

/// The paper's benchmark heuristic, rescanning every stop's removal ratio
/// per prune.
class PruneTspOracle {
  public:
    explicit PruneTspOracle(core::BenchmarkPlannerConfig cfg = {})
        : cfg_(cfg) {}

    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) const {
        util::Timer timer;
        PlanResult out;
        const model::Instance& inst = ctx.instance();
        out.stats.candidates = util::checked_cast<int>(inst.devices.size());
        if (inst.devices.empty()) {
            out.stats.runtime_s = timer.seconds();
            return out;
        }

        const double bw = inst.uav.bandwidth_mbps;
        const double eta_h = inst.uav.hover_power_w;

        // Initial tour over every device (cheapest insertion, then a
        // Christofides + 2-opt pass).
        TourBuilder tour(inst.depot);
        double hover_energy = 0.0;
        double collected_mb = 0.0;
        for (const auto& d : inst.devices) {
            tour.insert(d.pos, d.id, tour.cheapest_insertion(d.pos));
            hover_energy += d.upload_time(bw) * eta_h;
            collected_mb += d.data_mb;
        }
        tour.reoptimize();

        auto prune_ratio = [&](std::size_t i) {
            const auto& d =
                inst.devices[static_cast<std::size_t>(tour.keys()[i])];
            const double saved =
                d.upload_time(bw) * eta_h +
                inst.uav.travel_energy(-tour.removal_delta(i));
            return d.data_mb / std::max(saved, kEps);
        };

        // Prune until the tour fits the battery.
        int iterations = 0;
        while (tour.size() > 0) {
            const double total =
                hover_energy + inst.uav.travel_energy(tour.length());
            if (total <= inst.uav.energy_j + kEps) break;
            ++iterations;
            std::size_t worst = 0;
            double worst_ratio = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < tour.size(); ++i) {
                const double r = prune_ratio(i);
                if (r < worst_ratio) {
                    worst_ratio = r;
                    worst = i;
                }
            }
            const auto& d =
                inst.devices[static_cast<std::size_t>(tour.keys()[worst])];
            hover_energy -= d.upload_time(bw) * eta_h;
            collected_mb -= d.data_mb;
            tour.remove(worst);
        }
        if (cfg_.reoptimize_after_prune) tour.reoptimize();

        for (std::size_t i = 0; i < tour.size(); ++i) {
            const auto& d =
                inst.devices[static_cast<std::size_t>(tour.keys()[i])];
            out.plan.stops.push_back({tour.stops()[i], d.upload_time(bw), -1});
        }
        out.stats.planned_mb = std::max(0.0, collected_mb);
        out.stats.planned_energy_j =
            hover_energy + inst.uav.travel_energy(tour.length());
        out.stats.iterations = iterations;
        out.stats.runtime_s = timer.seconds();
        return out;
    }

  private:
    core::BenchmarkPlannerConfig cfg_;
};

}  // namespace uavdc::testing::greedy_oracle
