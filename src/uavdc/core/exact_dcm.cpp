#include "uavdc/core/exact_dcm.hpp"

#include "uavdc/graph/held_karp.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

ExactDcmResult solve_exact_dcm(const model::Instance& inst,
                               const ExactDcmConfig& cfg) {
    const auto ctx = PlanningContext::obtain(inst, cfg.candidates);
    return solve_exact_dcm(*ctx, cfg);
}

ExactDcmResult solve_exact_dcm(const PlanningContext& ctx,
                               const ExactDcmConfig& cfg) {
    ExactDcmResult out;
    const model::Instance& inst = ctx.instance();
    const HoverCandidateSet& set = ctx.candidates();
    const auto& cands = set.candidates;
    const std::size_t m = cands.size();
    UAVDC_REQUIRE(m <= static_cast<std::size_t>(cfg.max_candidates_for_exact))
        << "solve_exact_dcm: candidate set too large (" << m << " > "
        << cfg.max_candidates_for_exact << ")";
    if (m == 0) return out;

    const model::EnergyView& energy = ctx.energy();
    const std::size_t nmask = std::size_t{1} << m;
    for (std::size_t mask = 1; mask < nmask; ++mask) {
        ++out.subsets_checked;
        // Union coverage volume and hover energy of the subset.
        std::vector<bool> covered(inst.devices.size(), false);
        double volume = 0.0;
        double hover_s = 0.0;
        std::vector<std::size_t> nodes{0};  // depot
        for (std::size_t c = 0; c < m; ++c) {
            if (!(mask & (std::size_t{1} << c))) continue;
            nodes.push_back(c + 1);
            hover_s += cands[c].dwell_s;
            for (const std::int32_t v : set.covered(c)) {
                const auto d = static_cast<std::size_t>(v);
                if (!covered[d]) {
                    covered[d] = true;
                    volume += inst.devices[d].data_mb;
                }
            }
        }
        if (volume <= out.collected_mb) continue;  // cannot improve
        // Optimal tour over depot + chosen candidates, distances served
        // from the context's lazily-filled pair cache.
        graph::DenseGraph sub(nodes.size());
        ctx.fill_submatrix(nodes, sub);
        const auto order = graph::held_karp_tour(sub, 0);
        const double tour_m = sub.tour_length(order);
        const double energy_j = energy.tour_cost(tour_m, hover_s);
        if (energy_j > energy.budget_j() + 1e-9) continue;
        // New best: materialise the plan in tour order.
        out.collected_mb = volume;
        out.energy_j = energy_j;
        out.plan.stops.clear();
        for (std::size_t i = 1; i < order.size(); ++i) {
            const auto c = nodes[order[i]] - 1;
            out.plan.stops.push_back(
                {cands[c].pos, cands[c].dwell_s, cands[c].cell_id});
        }
    }
    return out;
}

}  // namespace uavdc::core
