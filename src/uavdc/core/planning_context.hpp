#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <vector>

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/incremental_scorer.hpp"
#include "uavdc/model/energy_view.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planner.hpp"
#include "uavdc/core/scratch_arena.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/model/instance.hpp"

namespace uavdc::graph {
class DenseGraph;
}

namespace uavdc::core {

class PlanningContext;
class TourBuilder;

/// RAII loan of a ScratchArena from a PlanningContext's pool. On
/// destruction the arena is reset (rewound, capacity kept) and returned, so
/// the next plan() on the same context reuses the warmed block instead of
/// reallocating per-plan scratch.
class ArenaLease {
  public:
    ArenaLease(const PlanningContext* owner,
               std::unique_ptr<ScratchArena> arena)
        : owner_(owner), arena_(std::move(arena)) {}
    ArenaLease(ArenaLease&&) noexcept = default;
    ArenaLease& operator=(ArenaLease&&) = delete;
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    ~ArenaLease();

    [[nodiscard]] ScratchArena& arena() { return *arena_; }
    [[nodiscard]] std::pmr::memory_resource* resource() {
        return arena_.get();
    }

  private:
    const PlanningContext* owner_;
    std::unique_ptr<ScratchArena> arena_;
};

/// Counters for the process-wide context cache (see
/// `PlanningContextCache::stats`). `candidate_builds` / `build_time_s`
/// aggregate over *all* contexts in the process, cached or not, so tests and
/// benches can assert "candidates were built exactly once".
struct ContextCacheStats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t evictions{0};
    std::uint64_t candidate_builds{0};
    double candidate_build_time_s{0.0};
};

/// Immutable, shareable bundle of per-instance planning precompute
/// (Sec. III-B): the problem instance itself, the grid hover-candidate set
/// (Eq. 6-8 awards/dwells, built lazily on first use from the devices'
/// coverage disks), a lazily-filled candidate-pair distance cache, and the
/// `EnergyView`. Build one per instance — directly with `build()`, or
/// memoized through `obtain()` — and hand the same context to every planner
/// so a `compare_planners` or sweep run pays the precompute once instead of
/// once per planner.
///
/// Thread-safe: all lazy fills are guarded, and every accessor is const, so
/// one context may serve concurrent planners.
class PlanningContext {
  public:
    /// Owns a copy of `inst`; candidate construction is deferred until
    /// `candidates()` is first called.
    explicit PlanningContext(model::Instance inst,
                             HoverCandidateConfig cfg = {});

    PlanningContext(const PlanningContext&) = delete;
    PlanningContext& operator=(const PlanningContext&) = delete;

    [[nodiscard]] const model::Instance& instance() const { return inst_; }
    [[nodiscard]] const HoverCandidateConfig& candidate_config() const {
        return cfg_;
    }
    [[nodiscard]] const model::EnergyView& energy() const { return energy_; }

    /// The Sec. III-B candidate set; built on first call (thread-safe).
    /// Throws std::invalid_argument, on every call, when the instance's
    /// delta-grid has more cells than int cell ids address or its coverage
    /// windows exceed kMaxCandidateWindowCells.
    [[nodiscard]] const HoverCandidateSet& candidates() const;
    /// True once `candidates()` has run (for laziness/caching tests).
    [[nodiscard]] bool candidates_built() const;

    /// SoA view of the instance's devices (positions, data volumes,
    /// precomputed upload times); built eagerly at construction (O(devices))
    /// and shared by every planner on this context.
    [[nodiscard]] const DeviceSoa& device_soa() const { return device_soa_; }

    /// SoA view of the hover-candidate set plus its forward CSR coverage
    /// lists; built once on first call (thread-safe), after candidates().
    [[nodiscard]] const CandidateSoa& candidate_soa() const;

    /// Device -> covering-candidates index over the FULL candidate set;
    /// built once on first call (thread-safe). Warm PlanService traffic and
    /// repeat plans on a shared context reuse it instead of rebuilding the
    /// inversion per plan() call.
    [[nodiscard]] const InvertedCoverageIndex& inverted_coverage() const;

    /// The identity view over `candidates()`, with `candidate_soa()` and
    /// `inverted_coverage()` (each built on first call).
    [[nodiscard]] CandidateView full_view() const {
        return {&candidates(), &candidate_soa(), {}, &inverted_coverage()};
    }

    /// Reduced candidate set for `cfg`, memoized next to the SoA mirrors
    /// (thread-safe; stable address for the context's lifetime). The memo
    /// keys on the stage fields `reduce_candidates` reads, compared by
    /// value; `refine_band_m` is not one of them, so configs that differ
    /// only in band share one entry. Planners sharing a context therefore
    /// pay each reduction once per distinct stage config, exactly like the
    /// candidate build itself.
    [[nodiscard]] const ReducedCandidates& reduced_candidates(
        const CandidateReductionConfig& cfg) const;

    /// Borrow a per-plan scratch arena from the context's pool (thread-safe;
    /// concurrent planners each get their own arena). The lease returns the
    /// arena, reset but with capacity kept, so back-to-back plans on the
    /// same context hit a warm block and allocate nothing.
    [[nodiscard]] ArenaLease acquire_arena() const;

    /// Arenas currently parked in the pool (for reuse tests).
    [[nodiscard]] std::size_t arena_pool_size() const;

    /// Distance between tour nodes, where node 0 is the depot and node
    /// j >= 1 is candidate j-1. Below the size threshold the full distance
    /// matrix is precomputed once (on first call, via std::call_once) into a
    /// flat lower-triangular array, making every subsequent read lock-free
    /// and contention-free; larger sets compute distances on the fly.
    [[nodiscard]] double node_distance(std::size_t i, std::size_t j) const;

    /// True when node_distance is served from the precomputed triangular
    /// matrix (candidate set below the size threshold).
    [[nodiscard]] bool has_distance_matrix() const;

    /// Fill the dense graph `g` (size nodes.size()) with the pairwise
    /// node_distance of every pair in `nodes` — the shared induced-submatrix
    /// path of the exact oracles (exact_dcm, exact_ratio_tsp).
    void fill_submatrix(std::span<const std::size_t> nodes,
                        graph::DenseGraph& g) const;

    /// Cache key: FNV-1a over every instance field (region, depot, devices,
    /// all UAV parameters) combined with the candidate-config fields.
    [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
    [[nodiscard]] static std::uint64_t instance_fingerprint(
        const model::Instance& inst);
    [[nodiscard]] static std::uint64_t config_fingerprint(
        const HoverCandidateConfig& cfg);

    /// Process-wide count of candidate-set builds (every context counts its
    /// first `candidates()` call here). The cross-planner caching invariant
    /// — "one build per instance per sweep" — is asserted against deltas of
    /// this counter.
    [[nodiscard]] static std::uint64_t total_candidate_builds();
    /// Process-wide seconds spent building candidate sets.
    [[nodiscard]] static double total_candidate_build_time_s();

    /// Build a fresh, uncached context.
    [[nodiscard]] static std::shared_ptr<const PlanningContext> build(
        model::Instance inst, HoverCandidateConfig cfg = {});
    /// Memoized build through the global `PlanningContextCache`.
    [[nodiscard]] static std::shared_ptr<const PlanningContext> obtain(
        const model::Instance& inst, const HoverCandidateConfig& cfg = {});

  private:
    geom::Vec2 node_pos(std::size_t i) const;

    model::Instance inst_;
    HoverCandidateConfig cfg_;
    model::EnergyView energy_;
    DeviceSoa device_soa_;
    std::uint64_t fingerprint_{0};

    mutable std::once_flag cand_once_;
    mutable HoverCandidateSet cands_;
    mutable std::exception_ptr cand_error_;  // set when the build refused
    mutable std::atomic<bool> cands_built_{false};

    mutable std::once_flag soa_once_;
    mutable CandidateSoa cand_soa_;

    mutable std::once_flag inv_once_;
    mutable std::unique_ptr<InvertedCoverageIndex> inverted_;

    // Reduced-set memo: (stage config, band zeroed -> reduction), built
    // under the mutex, unique_ptr for address stability across growth.
    mutable std::mutex reduction_mutex_;
    mutable std::vector<std::pair<CandidateReductionConfig,
                                  std::unique_ptr<ReducedCandidates>>>
        reductions_;

    friend class ArenaLease;
    mutable std::mutex arena_mutex_;
    mutable std::vector<std::unique_ptr<ScratchArena>> arena_pool_;

    void ensure_distance_matrix() const;

    // Flat lower-triangular distance matrix over depot + candidates
    // (tri_[r * (r + 1) / 2 + c] = distance(node r, node c) for c <= r),
    // built once under dist_once_; readers then index it without any lock.
    // Left empty (dist_matrix_ == false) above the size threshold.
    mutable std::once_flag dist_once_;
    mutable std::vector<double> tri_;
    mutable bool dist_matrix_{false};
};

/// One greedy engine run over one non-empty candidate view.
using ViewPlanner = std::function<PlanResult(const CandidateView&)>;

/// Plans `ctx`'s instance with `run` over the candidates `reduction`
/// selects (DESIGN.md "Candidate-space reduction"). With reduction off,
/// `run` sees the full set. Otherwise it sees the memoized reduced set;
/// with `refine_band_m > 0` it then sees the reduced set plus the
/// originals within the band of that tour, and the plan with more volume
/// is kept; a plan still empty is replanned over the full set. An empty
/// view yields an empty plan without calling `run`. `iterations` sums
/// over the runs, `candidates` is the kept run's view size, and
/// `runtime_s` covers the reduction and every run.
[[nodiscard]] PlanResult plan_over_candidates(
    const PlanningContext& ctx, const CandidateReductionConfig& reduction,
    const ViewPlanner& run);

/// The plan a greedy engine leaves: `tour`'s stops in visiting order (its
/// keys are indices into `view`) with their dwell and grid cell, and the
/// volume, energy and iteration totals. `plan_over_candidates` sets
/// `candidates` and `runtime_s`.
[[nodiscard]] PlanResult assemble_plan(const PlanningContext& ctx,
                                       const CandidateView& view,
                                       const TourBuilder& tour,
                                       std::span<const double> dwell_of,
                                       double collected_mb,
                                       double hover_energy_j, int iterations);

/// Bounded LRU memo of `PlanningContext`s keyed on (instance fingerprint,
/// candidate-config fingerprint). `compare_planners`, `analyze_sensitivity`,
/// the CLI, and the `Planner::plan(Instance)` adapter all share the global
/// instance, which is what turns an N-planner sweep into a single candidate
/// build per instance.
class PlanningContextCache {
  public:
    explicit PlanningContextCache(std::size_t capacity = 64);

    /// Find-or-build. Never returns null.
    [[nodiscard]] std::shared_ptr<const PlanningContext> obtain(
        const model::Instance& inst, const HoverCandidateConfig& cfg);

    [[nodiscard]] ContextCacheStats stats() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    /// Drop every entry and zero the hit/miss/eviction counters (the
    /// process-wide build counters are monotone and unaffected).
    void clear();

    /// The process-global cache used by `PlanningContext::obtain`.
    [[nodiscard]] static PlanningContextCache& global();

  private:
    struct Entry {
        std::uint64_t key;
        std::shared_ptr<const PlanningContext> ctx;
    };

    std::size_t capacity_;
    mutable std::mutex mutex_;
    // Most-recently-used first; linear scan is fine at cache sizes ~64.
    std::vector<Entry> entries_;
    std::uint64_t hits_{0};
    std::uint64_t misses_{0};
    std::uint64_t evictions_{0};
};

}  // namespace uavdc::core
