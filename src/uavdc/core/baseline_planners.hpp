#pragma once

#include "uavdc/core/planner.hpp"

namespace uavdc::core {

/// Related-work baseline after Mozaffari et al. [10] (the paper's Sec. II):
/// cluster the devices with data-weighted k-means and hover at the
/// cluster centroids. Devices outside R0 of their centroid are simply
/// missed — the citation's clusters are radio cells, not coverage-aware
/// disks, which is exactly the weakness the paper's grid candidates fix.
/// k is chosen by decreasing k from 64 until the Christofides tour over
/// the centroids fits the energy budget.
class ClusterPlanner final : public Planner {
  public:
    using Planner::plan;
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    [[nodiscard]] std::string name() const override { return "kmeans"; }
};

/// Classic survey baseline: a boustrophedon (lawn-mower) sweep over a
/// square lattice of hover points, pausing at each point that still covers
/// residual data. A lattice with spacing s is fully covered by disks of
/// radius R0 iff s <= sqrt(2) * R0 (worst case is the cell centre), so the
/// sweep uses 0.95 * sqrt(2) * R0. The sweep is truncated when the energy
/// budget runs out. No workload awareness at all — the "what if we just
/// fly the whole field" strawman.
class SweepPlanner final : public Planner {
  public:
    using Planner::plan;
    [[nodiscard]] PlanResult plan(const PlanningContext& ctx) override;
    [[nodiscard]] std::string name() const override { return "sweep"; }
};

}  // namespace uavdc::core
