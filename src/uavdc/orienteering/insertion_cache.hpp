#pragma once

#include <cstddef>
#include <vector>

#include "uavdc/graph/local_search.hpp"
#include "uavdc/orienteering/problem.hpp"

namespace uavdc::orienteering {

/// Per-node cheapest-insertion cache for the orienteering constructions and
/// polish (the DenseGraph counterpart of core::InsertionCache).
///
/// Invariant (after rebuild, kept by on_insert): for every live node v —
/// not in the tour and with a positive prize — get(v) is bit-identical to
/// graph::cheapest_insertion(p.graph, tour, v) (finite weights): the lex-min of
/// (delta, position) over the tour edges (u, x), with
/// delta = w(u, v) + w(v, x) - w(u, x).
///
/// Inserting a node at position q removes one edge and creates two; every
/// other edge keeps its delta, and positions after q shift by one. So a live
/// entry only checks the two new edges, unless its cached edge was the
/// removed one (a "straddler"). For those the entry keeps the runner-up
/// edge, exact while `second_ok`: the new best is the lex-min of the
/// runner-up and the two new edges. Only a straddler without a runner-up
/// takes a fresh O(|tour|) scan. Tours of three nodes or fewer are rebuilt
/// outright. Any other tour change (2-opt, a replace, a shake) needs
/// rebuild(). Scans read w(u, v) as w(v, u) from v's row, which DenseGraph's
/// symmetric storage makes the same double.
class InsertionCache {
  public:
    /// Sized for `p` once; `p` must outlive the cache.
    explicit InsertionCache(const Problem& p);

    /// Fresh scan of every live node against `tour`.
    void rebuild(const std::vector<std::size_t>& tour,
                 const std::vector<bool>& in);

    /// `tour[q]` was just inserted (and marked in `in`).
    void on_insert(const std::vector<std::size_t>& tour, std::size_t q,
                   const std::vector<bool>& in);

    /// Cached cheapest insertion of live node v.
    [[nodiscard]] const graph::Insertion& get(std::size_t v) const {
        return entries_[v].best;
    }

    /// The positive-prize nodes by descending prize, ties by index (the
    /// replace move's scan order).
    [[nodiscard]] const std::vector<std::size_t>& by_prize() const {
        return by_prize_;
    }

  private:
    /// Lex-least and, when second_ok, lex-second (delta, position) edges.
    struct Entry {
        graph::Insertion best{0, 0.0};
        graph::Insertion second{0, 0.0};
        bool second_ok{false};
    };

    void scan(const std::vector<std::size_t>& tour, std::size_t v);

    const Problem* p_;
    std::vector<Entry> entries_;
    /// The live nodes, in no particular order.
    std::vector<std::size_t> live_;
    /// edge_w_[i] = w(tour[i], tour[i + 1]), cyclically.
    std::vector<double> edge_w_;
    std::vector<std::size_t> by_prize_;
};

}  // namespace uavdc::orienteering
