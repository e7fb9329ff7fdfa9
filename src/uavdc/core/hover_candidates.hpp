#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uavdc/geom/grid.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/model/instance.hpp"

namespace uavdc::core {

struct DeviceSoa;

/// Candidate-generation options (Sec. III-B / IV-A grid discretisation).
struct HoverCandidateConfig {
    double delta_m = 10.0;  ///< grid edge length delta
    /// Upper bound on the candidate count after dedup (0 = unlimited).
    /// When exceeded, a greedy set-cover pass keeps at least one candidate
    /// per coverable device, then the remaining slots go to the
    /// highest-award candidates (DESIGN.md substitution #5).
    int max_candidates = 4000;
};

/// One candidate hovering location s_j with its precomputed quantities
/// from Sec. III-B: award p(s_j) (Eq. 6), dwell t(s_j) (Eq. 7), hover
/// energy w1(s_j) (Eq. 8). Its coverage set C(s_j) lives in the owning
/// HoverCandidateSet's CSR (`HoverCandidateSet::covered`).
struct HoverCandidate {
    geom::Vec2 pos;             ///< cell centre (projected to ground)
    int cell_id{-1};            ///< id in the generating grid
    double award_mb{0.0};       ///< p(s_j) = sum of covered D_v
    double dwell_s{0.0};        ///< t(s_j) = max covered D_v / B
    double hover_energy_j{0.0}; ///< w1(s_j) = t(s_j) * eta_h
};

/// The generated candidate set plus provenance. Coverage is one forward
/// CSR: candidate j covers the ascending device ids
/// cov[cov_starts[j] .. cov_starts[j + 1]).
struct HoverCandidateSet {
    std::vector<HoverCandidate> candidates;
    std::vector<std::size_t> cov_starts{0};  ///< size() + 1 offsets
    std::vector<std::int32_t> cov;           ///< covered device ids
    int grid_cells{0};        ///< total cells in the grid before filtering
    int nonzero_cells{0};     ///< cells covering at least one device
    int after_dedupe{0};      ///< candidates left after coverage dedup
    double delta_m{0.0};

    [[nodiscard]] std::size_t size() const { return candidates.size(); }
    /// C(s_j): the device ids candidate j covers, ascending.
    [[nodiscard]] std::span<const std::int32_t> covered(std::size_t j) const {
        return {cov.data() + cov_starts[j], cov_starts[j + 1] - cov_starts[j]};
    }
    /// Append candidate `c` covering `devices` (ascending ids).
    void add(const HoverCandidate& c, std::span<const std::int32_t> devices);
    /// The candidates `picks` (indices into this set, in the order given)
    /// with their coverage and this set's provenance fields.
    [[nodiscard]] HoverCandidateSet subset(
        std::span<const std::size_t> picks) const;
};

/// Upper bound on the candidate build's work, counted before anything is
/// allocated as the sum over devices of the grid cells in each device's
/// disk window (`geom::Grid::disk_window`). Every (cell, device) coverage
/// pair and every candidate comes from one such window cell, so this caps
/// the build's memory and time (DESIGN.md "Shared planning context").
inline constexpr std::uint64_t kMaxCandidateWindowCells = 100'000'000;

/// Upper bound on the `sweep` baseline's serpentine route, counted as rows
/// x columns before the route is allocated. A one-device plan just under
/// the bound peaks near 400 MB and takes 0.7 s through `uavdc serve`.
inline constexpr std::uint64_t kMaxSweepWaypoints = 10'000'000;

/// Build candidate hovering locations for `inst`: partition the region into
/// delta-squares, keep cells covering >= 1 device, drop every candidate
/// whose covered-device set is identical to another's (keeping the one
/// closest to its coverage centroid), compute Eq. 6-8 quantities and cap
/// per `cfg`. Only the cells within R0 of some
/// device are visited, so the cost is O(coverage pairs), not O(cells).
/// Throws std::invalid_argument, naming the figure, when the grid has more
/// cells than int ids address or the devices' disk windows sum past
/// kMaxCandidateWindowCells. When the caller already holds the instance's
/// SoA device plane (PlanningContext builds it eagerly), passing it via
/// `device_soa` skips the redundant rebuild; it must mirror `inst`.
[[nodiscard]] HoverCandidateSet build_hover_candidates(
    const model::Instance& inst, const HoverCandidateConfig& cfg,
    const DeviceSoa* device_soa = nullptr);

}  // namespace uavdc::core
