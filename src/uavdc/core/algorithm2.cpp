#include "uavdc/core/algorithm2.hpp"

#include <algorithm>
#include <memory_resource>
#include <span>
#include <utility>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/lazy_greedy.hpp"
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

/// Algorithm 2's gain state for the shared lazy-greedy loop: the covered set
/// and each candidate's residual prize P'(s) and dwell t'(s) (Eq. 11-12),
/// rescanned only for candidates whose coverage meets a newly covered
/// device. The ordered kernel walks the forward CSR coverage list with the
/// exact accumulation order of the reference residual_gain (bit-identical);
/// the opt-in fast kernel reassociates the sum into 8 fixed lanes (epsilon
/// tier). A selected candidate covers nothing new afterwards, so its key
/// drops below zero and the loop retires it.
class CoveragePolicy {
  public:
    CoveragePolicy(const PlanningContext& ctx, const CandidateView& view,
                   const Algorithm2Config& cfg, const lazy_greedy::State& st,
                   std::pmr::memory_resource* mr, bool parallel)
        : exact_keys(!cfg.exact_ratio_tsp),
          ctx_(ctx),
          inst_(ctx.instance()),
          view_(view),
          cfg_(cfg),
          st_(st),
          dsoa_(ctx.device_soa()),
          covered_(inst_.devices.size(), 0, mr),
          gain_mb_(view.size(), 0.0, mr),
          gain_dwell_(view.size(), 0.0, mr),
          nodes_(mr) {
        util::maybe_parallel_for(
            parallel, 0, view.size(),
            [this](std::size_t i) { refresh_gain(i); }, 64);
    }

    /// Policy A on the default path: keys are exact ratios. Policy B under
    /// exact_ratio_tsp: keys are upper bounds.
    const bool exact_keys;

    /// The exact (state-independent) ratio, or under exact_ratio_tsp an
    /// upper bound on it: travel >= 0, so pricing it at zero can only
    /// increase eq13/per-hover. No residual prize now means none ever
    /// (coverage only grows): -1 retires the candidate.
    [[nodiscard]] double key(std::size_t i) const {
        if (gain_mb_[i] <= 0.0) return -1.0;
        const double extra_travel =
            cfg_.exact_ratio_tsp
                ? 0.0
                : inst_.uav.travel_energy(st_.cache.get(i).delta_m);
        return rank_ratio(cfg_.ratio_rule, gain_mb_[i],
                          gain_dwell_[i] * inst_.uav.hover_power_w,
                          extra_travel);
    }

    /// Exact score + selectability, with the identical expressions (and
    /// operand order) as the reference engine's score_one.
    [[nodiscard]] std::pair<double, bool> eval(std::size_t i) {
        const double travel_delta = cfg_.exact_ratio_tsp
                                        ? tsp_delta(i)
                                        : st_.cache.get(i).delta_m;
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
        const kernels::GainAccum g =
            cfg_.scoring == ScoringEngine::kIncrementalFast
                ? kernels::residual_gain_fast(
                      cov.data(), cov.size(), dsoa_.data_mb.data(),
                      dsoa_.upload_s.data(), covered_.data())
                : kernels::residual_gain_ordered(
                      cov.data(), cov.size(), dsoa_.data_mb.data(),
                      dsoa_.upload_s.data(), covered_.data());
        gain_mb_[i] = g.sum_mb;
        gain_dwell_[i] = g.max_s;
    }

    /// TSP(S_j) - TSP(S_{j-1}) for the exact_ratio_tsp path, served from
    /// the PlanningContext distance matrix (node 0 = depot, node j+1 =
    /// *original* candidate j) instead of rebuilding Euclidean rows per
    /// candidate. The context matrix covers the full set, so view-local
    /// indices are mapped back through view.original().
    double tsp_delta(std::size_t i) {
        const std::size_t m = st_.tour.size() + 2;
        nodes_.clear();
        nodes_.reserve(m);
        nodes_.push_back(0);
        for (const int key : st_.tour.keys()) {
            nodes_.push_back(view_.original(static_cast<std::size_t>(key)) +
                             1);
        }
        nodes_.push_back(view_.original(i) + 1);
        graph::DenseGraph g(m);
        ctx_.fill_submatrix({nodes_.data(), nodes_.size()}, g);
        const auto order = graph::christofides_tour(g, 0);
        const double new_len = g.tour_length(order);
        return std::max(0.0, new_len - st_.tour.length());
    }

    const PlanningContext& ctx_;
    const model::Instance& inst_;
    const CandidateView& view_;
    const Algorithm2Config& cfg_;
    const lazy_greedy::State& st_;
    const DeviceSoa& dsoa_;
    std::pmr::vector<char> covered_;
    std::pmr::vector<double> gain_mb_;
    std::pmr::vector<double> gain_dwell_;
    std::pmr::vector<std::size_t> nodes_;  ///< tsp_delta scratch
};

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
               : lazy_greedy::run<CoveragePolicy>(ctx, view, cfg_);
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

}  // namespace uavdc::core
