#pragma once

#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// Exact orienteering by Held-Karp-style bitmask DP: for every subset of
/// nodes containing the depot and every end node, keep the minimum-cost
/// simple path; a subset is achievable if some path plus the closing edge
/// fits the budget. Maximises prize over achievable subsets.
///
/// O(2^n * n^2) time, O(2^n * n) memory — intended for n <= ~20.
/// Throws std::invalid_argument for larger instances.
///
/// Used as ground truth in tests and for small auxiliary graphs; the
/// paper's Bansal et al. 3-approximation is substituted by this plus the
/// heuristics in greedy.hpp / grasp.hpp (DESIGN.md substitution #1).
[[nodiscard]] Solution solve_exact(const Problem& p);

}  // namespace uavdc::orienteering
