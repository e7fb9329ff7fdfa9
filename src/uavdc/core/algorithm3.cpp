#include "uavdc/core/algorithm3.hpp"

#include <algorithm>
#include <memory_resource>
#include <span>
#include <utility>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/lazy_greedy.hpp"
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

/// Algorithm 3's gain state for the shared lazy-greedy loop: each device's
/// residual volume and the best virtual location s_{j,k} found by the last
/// `eval` of each candidate. The gain loops walk the forward CSR coverage
/// lists with kernels whose accumulation order matches the reference engine
/// exactly (ordered) or reassociates into 8 fixed lanes (fast, opt-in
/// epsilon tier). A candidate already in the tour stays live: picking it
/// again extends its dwell (Lemma 2's replacement rule).
class PartialPolicy {
  public:
    PartialPolicy(const PlanningContext& ctx, const CandidateView& view,
                  const Algorithm3Config& cfg, const lazy_greedy::State& st,
                  std::pmr::memory_resource* mr, bool /*parallel*/)
        : inst_(ctx.instance()),
          view_(view),
          cfg_(cfg),
          st_(st),
          residual_(inst_.devices.size(), 0.0, mr),
          scores_(view.size(), Score{}, mr) {
        for (std::size_t v = 0; v < inst_.devices.size(); ++v) {
            residual_[v] = inst_.devices[v].data_mb;
        }
    }

    /// Keys are upper bounds (policy B).
    static constexpr bool exact_keys = false;

    /// Upper-bound key: the best per-k ratio *ignoring feasibility*, so the
    /// max over all k is >= the max over the feasible subset — a valid
    /// bound with no floating-point slack. -1 when the candidate is
    /// permanently dead (residuals only shrink, so t'(s) <= eps or all-k
    /// gains <= kMinGainMb can never revert).
    [[nodiscard]] double key(std::size_t j) const {
        return best_location(j, /*feasible_only=*/false).ratio;
    }

    [[nodiscard]] std::pair<double, bool> eval(std::size_t j) {
        const Score& best = scores_[j] = best_location(j, true);
        return {best.ratio, best.feasible && best.ratio > kEps};
    }

    /// The virtual location the selecting eval chose.
    [[nodiscard]] lazy_greedy::Take pick(std::size_t best) {
        const Score& s = scores_[best];
        budget_mb_ = inst_.uav.bandwidth_mbps * s.extra_dwell_s;
        return {s.extra_dwell_s, s.new_mb, !s.in_tour};
    }

    /// Drains the picked dwell's budget from the device's residual.
    bool drain(std::size_t device) {
        auto& r = residual_[device];
        const double before = r;
        r -= std::min(r, budget_mb_);
        return r != before;
    }

    /// Keys read the residuals directly: nothing to batch.
    void refresh(std::span<const std::size_t> /*dirty*/,
                 bool /*parallel*/) {}

  private:
    /// Byte-for-byte the reference score_one, with the cached insertion
    /// standing in for tour.cheapest_insertion. Without `feasible_only`
    /// the energy and deadline tests are skipped (the key).
    [[nodiscard]] Score best_location(std::size_t j,
                                      bool feasible_only) const {
        const double bw = inst_.uav.bandwidth_mbps;
        const double eta_h = inst_.uav.hover_power_w;
        const double deadline = cfg_.max_tour_time_s;
        Score best{};
        const auto cov = view_.set->covered(j);
        const double t_full = kernels::max_residual_time_ordered(
            cov.data(), cov.size(), residual_.data(), bw);
        if (t_full > kEps) {
            const TourBuilder::Insertion ins =
                st_.in_tour[j] != 0 ? TourBuilder::Insertion{0, 0.0}
                                    : st_.cache.get(j);
            const double travel_j_extra = inst_.uav.travel_energy(ins.delta_m);
            for (int k = 1; k <= cfg_.k; ++k) {
                const double dt = static_cast<double>(k) * t_full /
                                  static_cast<double>(cfg_.k);
                const double gain = capped_sum(cov, bw * dt);
                if (gain <= kMinGainMb) continue;
                const double extra_hover = dt * eta_h;
                if (feasible_only) {
                    const double total = st_.hover_energy + extra_hover +
                                         inst_.uav.travel_energy(
                                             st_.tour.length() + ins.delta_m);
                    if (total > inst_.uav.energy_j + kEps) continue;
                    if (deadline > 0.0) {
                        const double tour_time =
                            st_.hover_seconds + dt +
                            inst_.uav.travel_time(st_.tour.length() +
                                                  ins.delta_m);
                        if (tour_time > deadline + kEps) continue;
                    }
                }
                const double ratio =
                    gain / std::max(extra_hover + travel_j_extra, kEps);
                if (ratio > best.ratio) {
                    best.new_mb = gain;
                    best.extra_dwell_s = dt;
                    best.in_tour = st_.in_tour[j] != 0;
                    best.feasible = true;
                    best.ratio = ratio;
                }
            }
        }
        return best;
    }

    [[nodiscard]] double capped_sum(std::span<const std::int32_t> cov,
                                    double cap) const {
        return cfg_.scoring == ScoringEngine::kIncrementalFast
                   ? kernels::capped_sum_fast(cov.data(), cov.size(),
                                              residual_.data(), cap)
                   : kernels::capped_sum_ordered(cov.data(), cov.size(),
                                                 residual_.data(), cap);
    }

    const model::Instance& inst_;
    const CandidateView& view_;
    const Algorithm3Config& cfg_;
    const lazy_greedy::State& st_;
    std::pmr::vector<double> residual_;
    std::pmr::vector<Score> scores_;  ///< read back by pick
    double budget_mb_{0.0};           ///< bandwidth x the picked dwell
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
