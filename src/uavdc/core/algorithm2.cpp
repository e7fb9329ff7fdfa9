#include "uavdc/core/algorithm2.hpp"

#include <algorithm>
#include <memory_resource>
#include <span>
#include <utility>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/lazy_greedy.hpp"
#include "uavdc/core/planning_context.hpp"
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

/// Algorithm 2's gain state for the shared lazy-greedy loop: the covered set
/// and each candidate's residual prize P'(s) and dwell t'(s) (Eq. 11-12),
/// rescanned only for candidates whose coverage meets a newly covered
/// device. The ordered kernel walks the forward CSR coverage list with the
/// exact accumulation order of the oracle's residual_gain (bit-identical).
/// A selected candidate covers nothing new afterwards, so its key drops
/// below zero and the loop retires it.
class CoveragePolicy {
  public:
    CoveragePolicy(const PlanningContext& ctx, const CandidateView& view,
                   const Algorithm2Config& cfg, const lazy_greedy::State& st,
                   std::pmr::memory_resource* mr, bool parallel)
        : inst_(ctx.instance()),
          view_(view),
          cfg_(cfg),
          st_(st),
          dsoa_(ctx.device_soa()),
          covered_(inst_.devices.size(), 0, mr),
          gain_mb_(view.size(), 0.0, mr),
          gain_dwell_(view.size(), 0.0, mr) {
        util::maybe_parallel_for(
            parallel, 0, view.size(),
            [this](std::size_t i) { refresh_gain(i); }, 64);
    }

    /// The exact ratio: it depends only on the candidate's gain and cached
    /// insertion, so it moves only when the loop re-keys it. No residual
    /// prize now means none ever (coverage only grows): -1 retires the
    /// candidate.
    [[nodiscard]] double key(std::size_t i) const {
        if (gain_mb_[i] <= 0.0) return -1.0;
        return rank_ratio(cfg_.ratio_rule, gain_mb_[i],
                          gain_dwell_[i] * inst_.uav.hover_power_w,
                          inst_.uav.travel_energy(st_.cache.get(i).delta_m));
    }

    /// Exact score + selectability, with the identical expressions (and
    /// operand order) as the oracle's score_one.
    [[nodiscard]] std::pair<double, bool> eval(std::size_t i) const {
        const double travel_delta = st_.cache.get(i).delta_m;
        const double extra_hover = gain_dwell_[i] * inst_.uav.hover_power_w;
        const double extra_travel = inst_.uav.travel_energy(travel_delta);
        const double total =
            st_.hover_energy + extra_hover +
            inst_.uav.travel_energy(st_.tour.length() + travel_delta);
        bool feasible = total <= inst_.uav.energy_j + kEps;
        if (feasible && cfg_.max_tour_time_s > 0.0) {
            const double tour_time =
                st_.hover_seconds + gain_dwell_[i] +
                inst_.uav.travel_time(st_.tour.length() + travel_delta);
            feasible = tour_time <= cfg_.max_tour_time_s + kEps;
        }
        const double ratio = rank_ratio(cfg_.ratio_rule, gain_mb_[i],
                                        extra_hover, extra_travel);
        return {ratio, feasible && ratio > kEps};
    }

    [[nodiscard]] lazy_greedy::Take pick(std::size_t best) const {
        return {gain_dwell_[best], gain_mb_[best], true};
    }

    bool drain(std::size_t device) {
        if (covered_[device] != 0) return false;
        covered_[device] = 1;
        return true;
    }

    void refresh(std::span<const std::size_t> dirty, bool parallel) {
        util::maybe_parallel_for(
            parallel && dirty.size() >= 256, 0, dirty.size(),
            [&](std::size_t t) { refresh_gain(dirty[t]); }, 64);
    }

  private:
    void refresh_gain(std::size_t i) {
        const auto cov = view_.set->covered(i);
        const kernels::GainAccum g = kernels::residual_gain_ordered(
            cov.data(), cov.size(), dsoa_.data_mb.data(),
            dsoa_.upload_s.data(), covered_.data());
        gain_mb_[i] = g.sum_mb;
        gain_dwell_[i] = g.max_s;
    }

    const model::Instance& inst_;
    const CandidateView& view_;
    const Algorithm2Config& cfg_;
    const lazy_greedy::State& st_;
    const DeviceSoa& dsoa_;
    std::pmr::vector<char> covered_;
    std::pmr::vector<double> gain_mb_;
    std::pmr::vector<double> gain_dwell_;
};

}  // namespace

PlanResult GreedyCoveragePlanner::plan(const PlanningContext& ctx) {
    return plan_over_candidates(
        ctx, cfg_.reduction,
        [&](const CandidateView& view) { return plan_view(ctx, view); });
}

PlanResult GreedyCoveragePlanner::plan_view(const PlanningContext& ctx,
                                            const CandidateView& view) {
    return lazy_greedy::run<CoveragePolicy>(ctx, view, cfg_);
}

}  // namespace uavdc::core
