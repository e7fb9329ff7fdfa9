#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "uavdc/graph/dense_graph.hpp"

namespace uavdc::graph {

/// A perfect matching over an even-sized node subset: list of (u, v) pairs.
using Matching = std::vector<std::pair<std::size_t, std::size_t>>;

/// Exact minimum-weight perfect matching by bitmask DP over `nodes`
/// (indices into g), k = |nodes| <= 22. The DP always matches a mask's
/// lowest node, so it visits only the Fibonacci(k + 1) masks that recursion
/// reaches (4,181 at k = 18, 30,510 transitions), not all 2^k. Those masks
/// and transitions depend on k alone and are built once per k, shared by
/// all threads (155 KB at k = 18). The per-thread scratch holds one cost
/// and one choice per reached mask plus the k x k weights; it grows to the
/// largest k seen and is reused, so a warm call allocates only its result.
/// `nodes.size()` must be even, and some perfect matching must weigh
/// less than +inf (NaN weights never do); util::ContractViolation otherwise.
[[nodiscard]] Matching exact_min_matching(const DenseGraph& g,
                                          std::vector<std::size_t> nodes);

/// Greedy minimum matching (repeatedly pair the globally closest unmatched
/// nodes) followed by pairwise 2-swap improvement until a local optimum.
/// Tie rule: pairs are taken in ascending (w, a, b) order, a < b being
/// positions in `nodes`, as a stable sort of all pairs by weight orders
/// them. The greedy phase keeps a heap of each free node's best free
/// partner, fed from short per-node candidate lists that are refilled from
/// the node's row when they run out; the 2-swap loop is O(k^3) worst case.
/// `nodes.size()` must be even.
[[nodiscard]] Matching greedy_min_matching(const DenseGraph& g,
                                           std::vector<std::size_t> nodes);

/// Dispatch: exact DP when |nodes| <= exact_limit, greedy+swap otherwise.
[[nodiscard]] Matching min_weight_matching(const DenseGraph& g,
                                           std::vector<std::size_t> nodes,
                                           std::size_t exact_limit = 18);

/// Sum of matched-pair weights.
[[nodiscard]] double matching_weight(const DenseGraph& g, const Matching& m);

}  // namespace uavdc::graph
