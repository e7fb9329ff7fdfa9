#pragma once

// Algorithm 3's gain state for the lazy-greedy loop (core/lazy_greedy.hpp).
// Internal to core/algorithm3.cpp; tests include it to replay the loop
// under the other re-enqueue policy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <utility>

#include "uavdc/core/algorithm3.hpp"
#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/lazy_greedy.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/tour_builder.hpp"

namespace uavdc::core::partial {

inline constexpr double kEps = 1e-9;
inline constexpr double kMinGainMb = 1e-6;

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

    /// Policy A: an unselectable pop leaves the queue until its key is next
    /// updated. The keys are upper bounds, but between two updates of j's
    /// key its residuals and cached insertion stand still while the hover
    /// energy, hover time and tour length only grow, so its feasible
    /// virtual locations only shrink and it stays unselectable
    /// (`IncrementalEquivalence.Algorithm3UnselectableUntilRekeyed`).
    static constexpr bool exact_keys = true;

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

}  // namespace uavdc::core::partial
