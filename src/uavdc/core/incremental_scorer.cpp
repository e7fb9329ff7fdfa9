#include "uavdc/core/incremental_scorer.hpp"

#include "uavdc/util/check.hpp"

namespace uavdc::core {

std::string to_string(ScoringEngine engine) {
    switch (engine) {
        case ScoringEngine::kIncremental:
            return "incremental";
        case ScoringEngine::kReference:
            return "reference";
        case ScoringEngine::kIncrementalFast:
            return "incremental-fast";
    }
    return "unknown";
}

InvertedCoverageIndex::InvertedCoverageIndex(const HoverCandidateSet& cands,
                                             std::size_t num_devices) {
    starts_.assign(num_devices + 1, 0);
    for (const std::int32_t v : cands.cov) {
        const auto dv = static_cast<std::size_t>(v);
        UAVDC_DCHECK(dv < num_devices);
        ++starts_[dv + 1];
    }
    for (std::size_t v = 0; v < num_devices; ++v) {
        starts_[v + 1] += starts_[v];
    }
    cand_.resize(starts_[num_devices]);
    std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
    // Candidates are visited in ascending index order, so each device's
    // covering list comes out sorted.
    for (std::size_t j = 0; j < cands.size(); ++j) {
        const auto cj = util::checked_cast<std::int32_t>(j);
        for (const std::int32_t v : cands.covered(j)) {
            cand_[cursor[static_cast<std::size_t>(v)]++] = cj;
        }
    }
}

}  // namespace uavdc::core
