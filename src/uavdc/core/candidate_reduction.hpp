#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/geom/vec2.hpp"

namespace uavdc::core {

class InvertedCoverageIndex;

/// Candidate-space reduction options, applied between hover-candidate
/// generation and planning (DESIGN.md "Candidate-space reduction"). All
/// stages are deterministic, preserve the original candidate order among
/// survivors, and never synthesize hovering positions — every surviving
/// candidate is one of the generator's, with its exact Eq. 6-8 award /
/// dwell / coverage, so planning a reduced set needs no re-scoring.
struct CandidateReductionConfig {
    /// Stage 1 — dominance filtering: drop candidate j when a candidate k
    /// within 2x the generating grid's delta covers a superset of j's
    /// devices with no smaller award and no cheaper dwell. Visiting k
    /// instead of j then collects at least as much data for the same hover
    /// cost and a detour of at most two cells.
    bool dominance = false;
    /// Stage 2 — grid coarsening: >= 2 keeps only the best candidate
    /// (award desc, dwell asc, index asc) per coarse cell of edge
    /// `coarsen_factor * delta`. 1 disables.
    int coarsen_factor = 1;
    /// Refinement band: > 0 makes the planner re-plan once over the reduced
    /// set plus every original candidate within this distance of the
    /// incumbent tour polyline, keeping the better plan. Recovers the
    /// local detail coarsening discarded, but only where the tour goes.
    /// Read by `plan_over_candidates`, never by `reduce_candidates`.
    double refine_band_m = 0.0;
    /// Stage 3 — k-means consolidation: > 0 clusters the surviving
    /// candidates (award-weighted) into at most this many groups and keeps
    /// the member nearest each centroid. 0 disables.
    int consolidate_to = 0;

    [[nodiscard]] bool enabled() const {
        return dominance || coarsen_factor > 1 || consolidate_to > 0;
    }
    bool operator==(const CandidateReductionConfig&) const = default;
};

/// Per-stage drop counts of one reduction run.
struct CandidateReductionStats {
    int original{0};      ///< candidates entering the pipeline
    int dominated{0};     ///< dropped by stage 1
    int coarsened{0};     ///< dropped by stage 2
    int consolidated{0};  ///< dropped by stage 3
    int reinstated{0};    ///< put back by the coverage-safety pass
    int kept{0};          ///< candidates leaving the pipeline
};

/// A planner-facing view of a candidate set: the set, its SoA mirror, its
/// coverage index and (for reduced sets) the mapping back to the
/// generator's candidate indices. `original_index` empty means the identity
/// view over the full set (`PlanningContext::full_view()`). Views are made
/// only by `full_view()` and `ReducedCandidates::view()`, so every field is
/// set.
struct CandidateView {
    const HoverCandidateSet* set{nullptr};
    const CandidateSoa* soa{nullptr};
    std::span<const std::int32_t> original_index{};
    /// Device -> covering-candidates index over `set` (view-local
    /// candidate ids).
    const InvertedCoverageIndex* inverted{nullptr};

    [[nodiscard]] std::size_t size() const { return set->size(); }
    /// Map a view-local candidate index to the full set's index (identity
    /// when this view is the full set).
    [[nodiscard]] std::size_t original(std::size_t i) const {
        return original_index.empty()
                   ? i
                   : static_cast<std::size_t>(original_index[i]);
    }
};

/// A reduced candidate set: survivors in original relative order, with a
/// fresh SoA mirror, its coverage index and the map back to full-set
/// indices. `reduce_candidates` makes the ones `PlanningContext` memoizes;
/// `refine_near_tour` makes the per-plan refine sets.
struct ReducedCandidates {
    HoverCandidateSet set;
    CandidateSoa soa;
    std::vector<std::int32_t> original_index;  ///< reduced idx -> full idx
    CandidateReductionStats stats;
    /// Device -> covering-candidates index over `set` (reduced ids), built
    /// with the SoA mirror. shared_ptr keeps the struct copyable.
    std::shared_ptr<const InvertedCoverageIndex> inverted;

    [[nodiscard]] CandidateView view() const {
        return {&set, &soa,
                std::span<const std::int32_t>(original_index.data(),
                                              original_index.size()),
                inverted.get()};
    }
};

/// Run the configured reduction stages over `full`, then reinstate dropped
/// candidates until every device covered by the full set has at least one
/// surviving coverer (the safety invariant dominance preserves by
/// construction and coarsening/consolidation may break). Deterministic:
/// output depends only on (`full`, `num_devices`, `cfg`).
[[nodiscard]] ReducedCandidates reduce_candidates(
    const HoverCandidateSet& full, std::size_t num_devices,
    const CandidateReductionConfig& cfg);

/// Refinement step: the reduced set plus every full-set candidate within
/// `band_m` of the closed tour polyline depot -> stops -> depot. Survivors
/// keep original relative order; the result's stats are `reduced.stats`
/// with `kept` updated.
[[nodiscard]] ReducedCandidates refine_near_tour(
    const HoverCandidateSet& full, const ReducedCandidates& reduced,
    std::span<const geom::Vec2> tour_stops, const geom::Vec2& depot,
    double band_m, std::size_t num_devices);

}  // namespace uavdc::core
