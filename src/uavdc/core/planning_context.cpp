#include "uavdc/core/planning_context.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <stdexcept>
#include <type_traits>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/graph/dense_graph.hpp"
#include "uavdc/model/planning_content.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::core {

namespace {

// Node counts above this skip the precomputed triangular distance matrix
// (O(n^2 / 2) doubles) and compute distances on demand.
constexpr std::size_t kMaxCachedDistanceNodes = 4097;  // depot + 4096

std::atomic<std::uint64_t> g_candidate_builds{0};
std::atomic<std::uint64_t> g_candidate_build_ns{0};

/// Mix a double's bits, with -0.0 as 0.0 so that numerically identical
/// instances hash identically.
void fnv_real(std::uint64_t& h, double v) {
    if (v == 0.0) v = 0.0;
    model::fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

PlanningContext::PlanningContext(model::Instance inst,
                                 HoverCandidateConfig cfg)
    : inst_(std::move(inst)),
      cfg_(std::move(cfg)),
      energy_(inst_.uav),
      device_soa_(build_device_soa(inst_)) {
    std::uint64_t h = instance_fingerprint(inst_);
    model::fnv_u64(h, config_fingerprint(cfg_));
    fingerprint_ = h;
}

std::uint64_t PlanningContext::instance_fingerprint(
    const model::Instance& inst) {
    std::uint64_t h = model::kFnvOffset;
    model::walk_planning_content(
        [&h](auto v) {
            if constexpr (std::is_same_v<decltype(v), double>) {
                fnv_real(h, v);
            } else {
                model::fnv_u64(h, static_cast<std::uint64_t>(v));
            }
            return true;
        },
        inst);
    return h;
}

std::uint64_t PlanningContext::config_fingerprint(
    const HoverCandidateConfig& cfg) {
    std::uint64_t h = model::kFnvOffset;
    fnv_real(h, cfg.delta_m);
    // The since-folded coverage dedupe (always on) and region inflation
    // (always off) switches, and a since-removed position predicate's
    // "has one" bit, as the constants they were, so fingerprints keep
    // their values.
    model::fnv_u64(h, 1);
    model::fnv_u64(h, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(cfg.max_candidates)));
    model::fnv_u64(h, 0);
    model::fnv_u64(h, 0);
    return h;
}

const HoverCandidateSet& PlanningContext::candidates() const {
    std::call_once(cand_once_, [this] {
        util::Timer timer;
        try {
            cands_ = build_hover_candidates(inst_, cfg_, &device_soa_);
        } catch (const std::invalid_argument&) {
            // A refused instance (a grid too large for int cell ids, or
            // over the candidate work bound) stays refused. Rethrow outside
            // call_once: an exception escaping it hangs under
            // ThreadSanitizer's pthread_once.
            cand_error_ = std::current_exception();
            return;
        }
        g_candidate_build_ns.fetch_add(
            static_cast<std::uint64_t>(timer.seconds() * 1e9),
            std::memory_order_relaxed);
        g_candidate_builds.fetch_add(1, std::memory_order_relaxed);
        cands_built_ = true;
    });
    if (cand_error_) std::rethrow_exception(cand_error_);
    return cands_;
}

bool PlanningContext::candidates_built() const { return cands_built_; }

const CandidateSoa& PlanningContext::candidate_soa() const {
    const HoverCandidateSet& cands = candidates();  // may throw: not in once
    std::call_once(soa_once_, [&] {
        cand_soa_ = build_candidate_soa(cands, inst_.devices.size());
    });
    return cand_soa_;
}

const InvertedCoverageIndex& PlanningContext::inverted_coverage() const {
    const HoverCandidateSet& cands = candidates();  // may throw: not in once
    std::call_once(inv_once_, [&] {
        inverted_ = std::make_unique<InvertedCoverageIndex>(
            cands, inst_.devices.size());
    });
    return *inverted_;
}

const ReducedCandidates& PlanningContext::reduced_candidates(
    const CandidateReductionConfig& cfg) const {
    CandidateReductionConfig stages = cfg;
    stages.refine_band_m = 0.0;  // read by plan_over_candidates only
    // Ensure the candidate build (its own call_once) happens outside the
    // reduction lock, so a concurrent candidates() caller never waits on a
    // reduction in progress.
    const HoverCandidateSet& full = candidates();
    std::lock_guard<std::mutex> lock(reduction_mutex_);
    for (const auto& [key, red] : reductions_) {
        if (key == stages) return *red;
    }
    reductions_.emplace_back(
        stages, std::make_unique<ReducedCandidates>(
                    reduce_candidates(full, inst_.devices.size(), stages)));
    return *reductions_.back().second;
}

ArenaLease PlanningContext::acquire_arena() const {
    {
        std::lock_guard<std::mutex> lock(arena_mutex_);
        if (!arena_pool_.empty()) {
            auto a = std::move(arena_pool_.back());
            arena_pool_.pop_back();
            return ArenaLease(this, std::move(a));
        }
    }
    return ArenaLease(this, std::make_unique<ScratchArena>());
}

std::size_t PlanningContext::arena_pool_size() const {
    std::lock_guard<std::mutex> lock(arena_mutex_);
    return arena_pool_.size();
}

ArenaLease::~ArenaLease() {
    if (!arena_ || owner_ == nullptr) return;
    arena_->reset();
    std::lock_guard<std::mutex> lock(owner_->arena_mutex_);
    owner_->arena_pool_.push_back(std::move(arena_));
}

geom::Vec2 PlanningContext::node_pos(std::size_t i) const {
    return i == 0 ? inst_.depot : cands_.candidates[i - 1].pos;
}

void PlanningContext::ensure_distance_matrix() const {
    std::call_once(dist_once_, [this] {
        const std::size_t n = candidates().size() + 1;
        if (n > kMaxCachedDistanceNodes) return;  // dist_matrix_ stays false
        tri_.resize(n * (n + 1) / 2);
        // Node coordinate plane: node 0 = depot, node j >= 1 = candidate
        // j-1, copied once so the fill is a pure SoA sweep.
        const CandidateSoa& soa = candidate_soa();
        util::AlignedVector<double> nx(n);
        util::AlignedVector<double> ny(n);
        nx[0] = inst_.depot.x;
        ny[0] = inst_.depot.y;
        std::copy_n(soa.pos.xs.begin(), n - 1, nx.begin() + 1);
        std::copy_n(soa.pos.ys.begin(), n - 1, ny.begin() + 1);
        // Cache-blocked batched fill: blocks of kRowBlock rows walk the
        // column plane in kColTile-wide tiles, so one tile of nx/ny stays
        // hot in L1 across the whole row block. Row blocks are independent
        // (parallel); tile rows write disjoint tri_ segments. Each segment
        // is bit-identical to the scalar geom::distance(p, node_pos(c))
        // expression it replaces. Safe on a worker thread: parallel_for
        // runs inline there.
        constexpr std::size_t kRowBlock = 8;
        constexpr std::size_t kColTile = 1024;
        const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
        util::parallel_for(
            0, blocks,
            [&](std::size_t bi) {
                const std::size_t r0 = bi * kRowBlock;
                const std::size_t r1 = std::min(r0 + kRowBlock, n);
                for (std::size_t c0 = 0; c0 < r1; c0 += kColTile) {
                    const std::size_t c1 = std::min(c0 + kColTile, r1);
                    for (std::size_t r = std::max(r0, c0); r < r1; ++r) {
                        const std::size_t ce = std::min(c1, r + 1);
                        kernels::fill_distance_tile(
                            nx.data(), ny.data(), c0, ce, nx[r], ny[r],
                            tri_.data() + r * (r + 1) / 2);
                    }
                }
            },
            8);
        dist_matrix_ = true;
    });
}

double PlanningContext::node_distance(std::size_t i, std::size_t j) const {
    if (i == j) return 0.0;
    ensure_distance_matrix();
    if (!dist_matrix_) {
        return geom::distance(node_pos(i), node_pos(j));
    }
    const std::size_t r = std::max(i, j);
    const std::size_t c = std::min(i, j);
    return tri_[r * (r + 1) / 2 + c];
}

void PlanningContext::fill_submatrix(std::span<const std::size_t> nodes,
                                     graph::DenseGraph& g) const {
    const std::size_t m = nodes.size();
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = r + 1; c < m; ++c) {
            g.set_weight(r, c, node_distance(nodes[r], nodes[c]));
        }
    }
}

std::uint64_t PlanningContext::total_candidate_builds() {
    return g_candidate_builds.load(std::memory_order_relaxed);
}

double PlanningContext::total_candidate_build_time_s() {
    return static_cast<double>(
               g_candidate_build_ns.load(std::memory_order_relaxed)) *
           1e-9;
}

std::shared_ptr<const PlanningContext> PlanningContext::build(
    model::Instance inst, HoverCandidateConfig cfg) {
    return std::make_shared<const PlanningContext>(std::move(inst),
                                                   std::move(cfg));
}

std::shared_ptr<const PlanningContext> PlanningContext::obtain(
    const model::Instance& inst, const HoverCandidateConfig& cfg) {
    return PlanningContextCache::global().obtain(inst, cfg);
}

namespace {

PlanResult run_view(const ViewPlanner& run, const CandidateView& view) {
    PlanResult res;
    if (view.size() > 0) res = run(view);
    res.stats.candidates = util::checked_cast<int>(view.size());
    return res;
}

/// Counts `alt`'s iterations and keeps it when it collects more volume.
void keep_fuller(PlanResult& out, PlanResult alt, int& iterations) {
    iterations += alt.stats.iterations;
    if (alt.stats.planned_mb > out.stats.planned_mb) out = std::move(alt);
}

}  // namespace

PlanResult plan_over_candidates(const PlanningContext& ctx,
                                const CandidateReductionConfig& reduction,
                                const ViewPlanner& run) {
    if (!reduction.enabled()) {
        // The full set's mirrors are context precompute: off the clock.
        const CandidateView full = ctx.full_view();
        util::Timer timer;
        PlanResult out = run_view(run, full);
        out.stats.runtime_s = timer.seconds();
        return out;
    }
    util::Timer timer;
    const ReducedCandidates& reduced = ctx.reduced_candidates(reduction);
    PlanResult out = run_view(run, reduced.view());
    int iterations = out.stats.iterations;
    if (reduction.refine_band_m > 0.0 && !out.plan.stops.empty()) {
        // Refine-and-replan: reinstate the originals near the incumbent tour
        // and keep the better of the two plans (by collected volume).
        std::vector<geom::Vec2> stops;
        stops.reserve(out.plan.stops.size());
        for (const auto& s : out.plan.stops) stops.push_back(s.pos);
        const ReducedCandidates refined = refine_near_tour(
            ctx.candidates(), reduced, stops, ctx.instance().depot,
            reduction.refine_band_m, ctx.instance().devices.size());
        if (refined.set.candidates.size() > reduced.set.candidates.size()) {
            keep_fuller(out, run_view(run, refined.view()), iterations);
        }
    }
    if (out.plan.stops.empty()) {
        // Reduction must never turn a collectable mission into an empty
        // plan (a cramped budget can leave only pruned candidates in
        // reach, and the refine band has no incumbent tour to grow from).
        // Fall back to the full set — the pathological case pays the full
        // planning cost, every other case keeps the reduction win.
        keep_fuller(out, run_view(run, ctx.full_view()), iterations);
    }
    out.stats.iterations = iterations;
    out.stats.runtime_s = timer.seconds();
    return out;
}

PlanResult assemble_plan(const PlanningContext& ctx,
                         const CandidateView& view, const TourBuilder& tour,
                         std::span<const double> dwell_of,
                         double collected_mb, double hover_energy_j,
                         int iterations) {
    PlanResult out;
    const auto& cands = view.set->candidates;
    for (std::size_t i = 0; i < tour.size(); ++i) {
        const auto ci = static_cast<std::size_t>(tour.keys()[i]);
        out.plan.stops.push_back(
            {tour.stops()[i], dwell_of[ci], cands[ci].cell_id});
    }
    out.stats.planned_mb = collected_mb;
    out.stats.planned_energy_j =
        hover_energy_j + ctx.instance().uav.travel_energy(tour.length());
    out.stats.iterations = iterations;
    return out;
}

PlanningContextCache::PlanningContextCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const PlanningContext> PlanningContextCache::obtain(
    const model::Instance& inst, const HoverCandidateConfig& cfg) {
    std::uint64_t key = PlanningContext::instance_fingerprint(inst);
    model::fnv_u64(key, PlanningContext::config_fingerprint(cfg));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].key == key) {
                ++hits_;
                // Move to front (MRU).
                const auto mid =
                    entries_.begin() + static_cast<std::ptrdiff_t>(i);
                std::rotate(entries_.begin(), mid, mid + 1);
                return entries_.front().ctx;
            }
        }
    }
    // Build outside the lock: context construction copies the instance and
    // lays out its devices, which should not serialise unrelated lookups. A
    // racing builder of the same key is tolerated — the first insert wins
    // and the loser's context is used once then dropped; the expensive
    // candidate build is lazy, so the duplicate costs only the copy.
    auto ctx = PlanningContext::build(inst, cfg);
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].key == key) {
            const auto mid =
                entries_.begin() + static_cast<std::ptrdiff_t>(i);
            std::rotate(entries_.begin(), mid, mid + 1);
            return entries_.front().ctx;
        }
    }
    entries_.insert(entries_.begin(), Entry{key, ctx});
    if (entries_.size() > capacity_) {
        entries_.pop_back();
        ++evictions_;
    }
    return ctx;
}

ContextCacheStats PlanningContextCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ContextCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.candidate_builds = PlanningContext::total_candidate_builds();
    s.candidate_build_time_s = PlanningContext::total_candidate_build_time_s();
    return s;
}

std::size_t PlanningContextCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void PlanningContextCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = misses_ = evictions_ = 0;
}

PlanningContextCache& PlanningContextCache::global() {
    static PlanningContextCache cache;
    return cache;
}

}  // namespace uavdc::core
