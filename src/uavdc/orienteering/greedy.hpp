#pragma once

#include "uavdc/orienteering/insertion_cache.hpp"
#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// Greedy cheapest-insertion construction: starting from the depot-only
/// tour, repeatedly insert the unvisited node maximising
/// prize / insertion-cost among budget-feasible insertions, at its cheapest
/// position; stop when nothing fits. Each insertion reads the per-node
/// InsertionCache, O(n) plus an O(|tour|) rescan per straddler, instead of
/// scanning every tour edge for every node.
[[nodiscard]] Solution solve_greedy(const Problem& p);
/// As above, reusing a cache sized for `p` (one per solve).
[[nodiscard]] Solution solve_greedy(const Problem& p, InsertionCache& cache);

/// Local-search polish shared by the greedy and GRASP solvers (in place):
/// 2-opt on the current tour, then alternate "insert best-fitting node" and
/// "replace a visited node with a better unvisited one" moves until no move
/// improves the prize (ties broken toward lower cost). Budget-feasibility is
/// preserved. Returns the number of improving moves applied. The cache is
/// rebuilt on entry and whenever 2-opt or a replace changed the tour; its
/// prior contents are ignored.
int polish(const Problem& p, Solution& s, InsertionCache& cache);
int polish(const Problem& p, Solution& s);

}  // namespace uavdc::orienteering
