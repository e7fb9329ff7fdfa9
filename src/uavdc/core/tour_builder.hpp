#pragma once

#include <cstddef>
#include <memory_resource>
#include <span>
#include <vector>

#include "uavdc/geom/vec2.hpp"
#include "uavdc/util/aligned.hpp"

namespace uavdc::core {

/// Incrementally maintained closed tour over the depot plus a growing set
/// of hovering locations, shared by Algorithms 2/3 and the benchmark
/// planner. Supports cheapest-insertion deltas (the TSP(S_j) - TSP(S_{j-1})
/// surrogate of Eq. 13), actual insertion/removal, and a Christofides +
/// 2-opt re-optimisation pass.
///
/// Hot-path layout: stop coordinates are mirrored into SoA arrays
/// (`stop_xs`/`stop_ys`) and the current edge lengths are maintained
/// incrementally in both metric (`edge_len`) and squared (`edge_len2`)
/// form. The cheapest-insertion scans run as one batched *squared*-distance
/// kernel over the stops plus a scalar bound-then-verify pass: each edge is
/// first tested against the current best delta entirely in squared space
/// (no sqrt), and only the few surviving edges resolve their exact delta
/// with scalar sqrts of the already-computed squared distances. Survivor
/// deltas use the identical expressions (and operand order) as the
/// pre-deferral full-sqrt scan, and the prune bound is strict-worse-only,
/// so scan verdicts — including position ties — are bit-identical. All
/// mirrors are bit-identical to a fresh recomputation (maintenance uses the
/// same geom::distance/distance2 expressions; see edge_len()/edge_len2()).
class TourBuilder {
  public:
    explicit TourBuilder(geom::Vec2 depot) : depot_(depot) {}

    [[nodiscard]] const geom::Vec2& depot() const { return depot_; }
    /// Number of non-depot stops.
    [[nodiscard]] std::size_t size() const { return stops_.size(); }
    [[nodiscard]] bool empty() const { return stops_.empty(); }
    /// Stop positions in tour order (depot excluded).
    [[nodiscard]] const std::vector<geom::Vec2>& stops() const {
        return stops_;
    }
    /// SoA mirrors of stops() (same order, same values).
    [[nodiscard]] std::span<const double> stop_xs() const { return sx_; }
    [[nodiscard]] std::span<const double> stop_ys() const { return sy_; }
    /// Caller keys in tour order (parallel to stops()).
    [[nodiscard]] const std::vector<int>& keys() const { return keys_; }
    /// Current closed-tour length (metres), maintained incrementally.
    [[nodiscard]] double length() const { return length_; }

    /// Maintained edge lengths in position order (size() + 1 entries; empty
    /// for an empty tour). Invariant: bit-identical to edge_lengths() —
    /// every maintenance step stores a fresh geom::distance over the same
    /// operands a recomputation would use.
    [[nodiscard]] std::span<const double> edge_len() const {
        return edge_len_;
    }

    /// Squared companion of edge_len(), maintained in lockstep. Invariant:
    /// edge_len()[i] == std::sqrt(edge_len2()[i]) exactly — both mirrors are
    /// derived from ONE geom::distance2 evaluation per edge (the sqrt of
    /// which is the geom::distance value, same expression, same TU), so the
    /// squared form is usable as an exact prune bound against edge_len().
    [[nodiscard]] std::span<const double> edge_len2() const {
        return edge_len2_;
    }

    /// Cheapest-insertion result: inserting at `position` (index into
    /// stops(), 0..size()) lengthens the tour by `delta_m` metres.
    struct Insertion {
        std::size_t position{0};
        double delta_m{0.0};
    };
    [[nodiscard]] Insertion cheapest_insertion(const geom::Vec2& p) const;

    /// Cheapest insertion plus the runner-up edge (the insertion that a
    /// fresh scan would pick if the best edge were excluded). `has_second`
    /// is false when the tour has fewer than two insertion edges (i.e. it
    /// is empty). Same tie-break as cheapest_insertion: strictly smaller
    /// delta wins; equal deltas resolve to the smaller position.
    struct Insertion2 {
        Insertion best;
        Insertion second;
        bool has_second{false};
    };
    [[nodiscard]] Insertion2 cheapest_insertion2(const geom::Vec2& p) const;

    /// Fresh O(n) recomputation of the current edge lengths (edge i runs
    /// prev(i) -> next(i)); the oracle for the maintained edge_len() span.
    [[nodiscard]] std::vector<double> edge_lengths() const;

    /// Fresh O(n) recomputation of the squared edge lengths; the oracle for
    /// the maintained edge_len2() span.
    [[nodiscard]] std::vector<double> edge_lengths2() const;

    /// Insert stop `p` (with caller key `key`) at `ins.position`.
    void insert(const geom::Vec2& p, int key, const Insertion& ins);

    /// Length change (metres, <= 0 for metric inputs) from removing the
    /// stop at `pos`.
    [[nodiscard]] double removal_delta(std::size_t pos) const;

    /// Remove the stop at index `pos`.
    void remove(std::size_t pos);

    /// Re-optimise the visiting order (Christofides over depot + stops,
    /// then 2-opt/Or-opt). Returns the new length. No-op below 3 stops.
    double reoptimize();

    /// Exact recomputation of the closed-tour length (O(n)); used to guard
    /// against incremental drift.
    [[nodiscard]] double recompute_length() const;

  private:
    /// Batched scan core: *squared* distances from every stop to p into a
    /// thread-local buffer, then a scalar bound-then-verify pass. `bound()`
    /// returns the caller's current prune threshold (a delta in metres; +inf
    /// or non-positive disables pruning); edges whose squared lower bound
    /// proves delta strictly above it are skipped, every other edge resolves
    /// its exact delta (sqrt of the buffered squared values, original
    /// operand order) and is fed to `consider` in ascending position order.
    template <typename Threshold, typename Consider>
    void scan_edges(const geom::Vec2& p, Threshold&& bound,
                    Consider&& consider) const;

    geom::Vec2 depot_;
    std::vector<geom::Vec2> stops_;
    std::vector<int> keys_;
    /// SoA mirrors of stops_ for the batched insertion scans.
    util::AlignedVector<double> sx_;
    util::AlignedVector<double> sy_;
    /// Maintained edge lengths (stops_.size() + 1 when non-empty) plus the
    /// squared companion (see edge_len2()).
    std::vector<double> edge_len_;
    std::vector<double> edge_len2_;
    double length_{0.0};
};

/// Edge-local cheapest-insertion cache: maintains, for a fixed set of
/// candidate points, each point's current `TourBuilder::cheapest_insertion`
/// result as the tour grows — without rescanning every tour edge per
/// candidate per iteration.
///
/// Invariant (when not dirty()): for every active candidate i, get(i) is
/// bit-identical to tour.cheapest_insertion(points[i]).
///
/// Maintained under `on_insert` in O(1) per candidate: inserting p at
/// position q removes one tour edge and creates two. A candidate's best
/// insertion can only *improve* via the two new edges (checked directly) and
/// can only *worsen* if its cached best edge was the removed one (cached
/// position == q). For those "straddlers" the cache keeps the runner-up
/// edge: the new best is the lex-min of the runner-up and the two new edges.
/// A full O(tour) rescan is needed only when the runner-up itself was
/// consumed by an earlier straddle (tracked per candidate), which is rare —
/// straddlers sit near the new stop, so a new edge usually wins. Any other
/// cached entry stays optimal, with positions > q shifted by one.
///
/// Layout: active candidates live in a dense SoA pool (`xs_`/`ys_` parallel
/// to the dense-id list), compacted by swap-remove on deactivate, so the
/// on_insert pass is one call to kernels::squared_insertion_lower_bounds
/// over a contiguous array; only candidates whose squared bound fails to
/// prove the new edges strictly worse than their tracked entries resolve
/// exact deltas (kernels::insertion_edge_deltas, n = 1 per survivor). Per-candidate state (cached best, runner-up) stays
/// indexed by the ORIGINAL candidate id. All per-plan buffers draw from the
/// std::pmr resource passed at construction (PlanningContext's ScratchArena
/// on the planner hot path), so repeated plans on a warm arena allocate
/// nothing.
///
/// A `reoptimize()` that changes the stop order invalidates every entry (the
/// whole edge set changes); callers mark the cache dirty with
/// `invalidate_all` and restore the invariant with `rebuild_all` — the
/// dirty-bit fallback to full recompute. One that keeps the order keeps
/// every stop and edge, so the entries stay exact.
class InsertionCache {
  public:
    /// Snapshot of `points` scored against `tour`; starts dirty — call
    /// rebuild_all() before the first get(). `tour` must outlive the cache;
    /// `mr` must outlive it too.
    InsertionCache(const TourBuilder& tour, std::span<const geom::Vec2> points,
                   std::pmr::memory_resource* mr =
                       std::pmr::get_default_resource());

    /// As above with the candidate coordinates already in SoA form
    /// (xs.size() == ys.size() == candidate count).
    InsertionCache(const TourBuilder& tour, std::span<const double> xs,
                   std::span<const double> ys,
                   std::pmr::memory_resource* mr =
                       std::pmr::get_default_resource());

    [[nodiscard]] std::size_t size() const { return cached_.size(); }
    [[nodiscard]] bool dirty() const { return dirty_; }
    [[nodiscard]] bool active(std::size_t i) const { return slot_[i] >= 0; }

    /// Stop maintaining candidate i (inserted into the tour, or provably
    /// never needed again). Swap-removes i from the dense pool.
    void deactivate(std::size_t i);

    /// Cached cheapest insertion for active candidate i. Requires a clean
    /// cache (rebuild_all after any invalidate_all).
    [[nodiscard]] const TourBuilder::Insertion& get(std::size_t i) const;

    /// Account for `tour.insert(p, key, ins)` — call immediately *after* the
    /// insertion. Appends to `changed` every active candidate whose cached
    /// delta may have changed (improved via a new edge, or straddled the
    /// removed one). Order of appended ids is unspecified.
    void on_insert(const TourBuilder::Insertion& ins,
                   std::pmr::vector<std::size_t>& changed);

    /// Mark every entry stale (after TourBuilder::reoptimize()).
    void invalidate_all() { dirty_ = true; }

    /// Recompute every active entry from scratch (on the global thread pool
    /// when `parallel`) and clear the dirty bit.
    void rebuild_all(bool parallel);

  private:
    [[nodiscard]] geom::Vec2 point(std::size_t dense) const {
        return {xs_[dense], ys_[dense]};
    }

    const TourBuilder* tour_;
    /// Dense active pool: ids_[k] is the original id at dense slot k;
    /// xs_/ys_ are parallel to ids_. slot_[orig] is the dense slot or -1.
    std::pmr::vector<std::size_t> ids_;
    std::pmr::vector<std::ptrdiff_t> slot_;
    std::pmr::vector<double> xs_;
    std::pmr::vector<double> ys_;
    /// Original-indexed per-candidate state.
    std::pmr::vector<TourBuilder::Insertion> cached_;
    /// Runner-up edge per candidate; exact only where second_ok_[i] != 0.
    std::pmr::vector<TourBuilder::Insertion> second_;
    std::pmr::vector<char> second_ok_;
    /// Batched squared-bound outputs (on_insert prune pass), parallel to
    /// the dense pool.
    std::pmr::vector<double> n1_;
    std::pmr::vector<double> n2_;
    bool dirty_{true};
};

}  // namespace uavdc::core
