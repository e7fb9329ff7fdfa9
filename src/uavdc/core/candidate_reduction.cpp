#include "uavdc/core/candidate_reduction.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "uavdc/core/incremental_scorer.hpp"
#include "uavdc/geom/kmeans.hpp"
#include "uavdc/geom/spatial_hash.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

namespace {

/// a ⊆ b over sorted device-index lists (two-pointer scan).
bool subset_of(std::span<const std::int32_t> a,
               std::span<const std::int32_t> b) {
    if (a.size() > b.size()) return false;
    std::size_t ib = 0;
    for (const std::int32_t v : a) {
        while (ib < b.size() && b[ib] < v) ++ib;
        if (ib == b.size() || b[ib] != v) return false;
        ++ib;
    }
    return true;
}

/// Squared distance from p to segment [a, b] (no sqrt — callers compare
/// against squared thresholds).
double segment_dist2(const geom::Vec2& p, const geom::Vec2& a,
                     const geom::Vec2& b) {
    const double abx = b.x - a.x;
    const double aby = b.y - a.y;
    const double apx = p.x - a.x;
    const double apy = p.y - a.y;
    const double len2 = abx * abx + aby * aby;
    double t = 0.0;
    if (len2 > 0.0) {
        t = std::clamp((apx * abx + apy * aby) / len2, 0.0, 1.0);
    }
    const double dx = apx - t * abx;
    const double dy = apy - t * aby;
    return dx * dx + dy * dy;
}

/// Dominance scan radius, in steps of the generating grid: the
/// adjacent-cell ring, where subset-coverage pairs actually occur.
constexpr double kDominanceRadiusCells = 2.0;

/// Stage 1: mark dominated candidates. A candidate j is dropped when some
/// neighbour k within kDominanceRadiusCells grid steps covers a superset
/// of j's devices with no smaller award and no cheaper dwell; exact
/// coverage ties keep the lowest index. Deterministic: the verdict for j
/// depends only on the full set, never on drop order.
void mark_dominated(const HoverCandidateSet& full, std::vector<char>& kept,
                    int& dropped) {
    const double radius =
        kDominanceRadiusCells * std::max(full.delta_m, 1e-9);
    const auto& cands = full.candidates;
    std::vector<geom::Vec2> positions(cands.size());
    for (std::size_t j = 0; j < cands.size(); ++j) {
        positions[j] = cands[j].pos;
    }
    const geom::SpatialHash index(positions, std::max(radius, 1e-9));
    const double r2 = radius * radius;
    for (std::size_t j = 0; j < cands.size(); ++j) {
        const auto& cj = cands[j];
        const auto cov_j = full.covered(j);
        bool dominated = false;
        index.for_each_in_disk(cj.pos, radius, [&](int ki) {
            if (dominated) return;
            const auto k = static_cast<std::size_t>(ki);
            if (k == j) return;
            const auto& ck = cands[k];
            const auto cov_k = full.covered(k);
            if (cov_k.size() < cov_j.size()) return;
            if (ck.award_mb < cj.award_mb) return;
            // Subset coverage already implies dwell(j) <= dwell(k), so
            // this demands exact dwell equality (the same bottleneck
            // device): the quasi-lossless rule.
            if (cj.dwell_s < ck.dwell_s) return;
            const double dx = ck.pos.x - cj.pos.x;
            const double dy = ck.pos.y - cj.pos.y;
            if (dx * dx + dy * dy > r2) return;
            if (cov_k.size() == cov_j.size()) {
                // Equal size + subset = identical coverage: keep the
                // lowest index so mutual dominators never both drop.
                if (k > j) return;
            }
            if (subset_of(cov_j, cov_k)) dominated = true;
        });
        if (dominated) {
            kept[j] = 0;
            ++dropped;
        }
    }
}

/// Stage 2: keep the best candidate per coarse cell of edge
/// `factor * delta` (award desc, dwell asc, index asc).
void mark_coarsened(const HoverCandidateSet& full, int factor,
                    std::vector<char>& kept, int& dropped) {
    const double edge =
        static_cast<double>(factor) * std::max(full.delta_m, 1e-9);
    const auto& cands = full.candidates;
    std::unordered_map<std::uint64_t, std::size_t> best;
    best.reserve(cands.size());
    auto cell_key = [&](const geom::Vec2& p) {
        const auto cx = static_cast<std::int64_t>(std::floor(p.x / edge));
        const auto cy = static_cast<std::int64_t>(std::floor(p.y / edge));
        return (static_cast<std::uint64_t>(cx) << 32) ^
               (static_cast<std::uint64_t>(cy) & 0xffffffffULL);
    };
    auto better = [&](std::size_t a, std::size_t b) {
        const auto& ca = cands[a];
        const auto& cb = cands[b];
        if (ca.award_mb != cb.award_mb) return ca.award_mb > cb.award_mb;
        if (ca.dwell_s != cb.dwell_s) return ca.dwell_s < cb.dwell_s;
        return a < b;
    };
    for (std::size_t j = 0; j < cands.size(); ++j) {
        if (kept[j] == 0) continue;
        const std::uint64_t key = cell_key(cands[j].pos);
        auto [it, inserted] = best.try_emplace(key, j);
        if (!inserted && better(j, it->second)) it->second = j;
    }
    std::vector<char> winner(cands.size(), 0);
    // NOLINTNEXTLINE(uavdc-unordered-iteration): writes commutative flags
    // into an index-addressed array; visit order cannot reach the output.
    for (const auto& [key, j] : best) winner[j] = 1;
    for (std::size_t j = 0; j < cands.size(); ++j) {
        if (kept[j] != 0 && winner[j] == 0) {
            kept[j] = 0;
            ++dropped;
        }
    }
}

/// Stage 3: cluster the survivors (award-weighted k-means) and keep the
/// member nearest each centroid (squared distance, index tie-break).
void mark_consolidated(const HoverCandidateSet& full, int target,
                       std::vector<char>& kept, int& dropped) {
    const auto& cands = full.candidates;
    std::vector<std::size_t> alive;
    for (std::size_t j = 0; j < cands.size(); ++j) {
        if (kept[j] != 0) alive.push_back(j);
    }
    if (alive.size() <= static_cast<std::size_t>(target)) return;
    std::vector<geom::Vec2> pts(alive.size());
    std::vector<double> weights(alive.size());
    for (std::size_t i = 0; i < alive.size(); ++i) {
        pts[i] = cands[alive[i]].pos;
        weights[i] = std::max(cands[alive[i]].award_mb, 1e-9);
    }
    const auto km = geom::kmeans(pts, target, weights);
    const std::size_t k = km.centroids.size();
    std::vector<std::size_t> rep(k, alive.size());
    std::vector<double> rep_d2(k, 0.0);
    for (std::size_t i = 0; i < alive.size(); ++i) {
        const auto c = static_cast<std::size_t>(km.assignment[i]);
        const double dx = pts[i].x - km.centroids[c].x;
        const double dy = pts[i].y - km.centroids[c].y;
        const double d2 = dx * dx + dy * dy;
        if (rep[c] == alive.size() || d2 < rep_d2[c]) {
            rep[c] = i;
            rep_d2[c] = d2;
        }
    }
    std::vector<char> winner(cands.size(), 0);
    for (std::size_t c = 0; c < k; ++c) {
        if (rep[c] != alive.size()) winner[alive[rep[c]]] = 1;
    }
    for (const std::size_t j : alive) {
        if (winner[j] == 0) {
            kept[j] = 0;
            ++dropped;
        }
    }
}

/// Safety pass: every device covered by the full set must keep at least
/// one surviving coverer. Devices are healed in ascending order; each
/// reinstates its best dropped coverer (award desc, index asc).
void reinstate_coverage(const HoverCandidateSet& full,
                        std::size_t num_devices, std::vector<char>& kept,
                        int& reinstated) {
    const auto& cands = full.candidates;
    std::vector<char> device_ok(num_devices, 0);
    for (std::size_t j = 0; j < cands.size(); ++j) {
        if (kept[j] == 0) continue;
        for (const std::int32_t v : full.covered(j)) {
            device_ok[static_cast<std::size_t>(v)] = 1;
        }
    }
    const InvertedCoverageIndex inverted(full, num_devices);
    for (std::size_t v = 0; v < num_devices; ++v) {
        if (device_ok[v] != 0) continue;
        const auto coverers = inverted.covering(v);
        if (coverers.empty()) continue;  // uncoverable in the full set too
        std::size_t pick = cands.size();
        for (const std::int32_t ji : coverers) {
            const auto j = static_cast<std::size_t>(ji);
            if (pick == cands.size() ||
                cands[j].award_mb > cands[pick].award_mb) {
                pick = j;
            }
        }
        kept[pick] = 1;
        ++reinstated;
        for (const std::int32_t u : full.covered(pick)) {
            device_ok[static_cast<std::size_t>(u)] = 1;
        }
    }
}

/// Materialise the kept subset (original relative order) with its SoA
/// mirror and back-map.
ReducedCandidates gather(const HoverCandidateSet& full,
                         std::size_t num_devices,
                         const std::vector<char>& kept,
                         CandidateReductionStats stats) {
    ReducedCandidates out;
    std::vector<std::size_t> picks;
    for (std::size_t j = 0; j < full.size(); ++j) {
        if (kept[j] == 0) continue;
        picks.push_back(j);
        out.original_index.push_back(util::checked_cast<std::int32_t>(j));
    }
    out.set = full.subset(picks);
    stats.kept = util::checked_cast<int>(out.set.candidates.size());
    out.stats = stats;
    out.soa = build_candidate_soa(out.set, num_devices);
    // Invert coverage once here so memoized reductions hand every planner a
    // ready device -> candidates index (reduced ids) instead of a per-plan
    // rebuild.
    out.inverted =
        std::make_shared<InvertedCoverageIndex>(out.set, num_devices);
    return out;
}

}  // namespace

ReducedCandidates reduce_candidates(const HoverCandidateSet& full,
                                    std::size_t num_devices,
                                    const CandidateReductionConfig& cfg) {
    UAVDC_REQUIRE(cfg.coarsen_factor >= 1)
        << "reduce_candidates: coarsen_factor must be >= 1, got "
        << cfg.coarsen_factor;
    UAVDC_REQUIRE(cfg.consolidate_to >= 0)
        << "reduce_candidates: consolidate_to must be >= 0, got "
        << cfg.consolidate_to;

    CandidateReductionStats stats;
    stats.original = util::checked_cast<int>(full.size());
    std::vector<char> kept(full.size(), 1);
    if (!full.candidates.empty()) {
        if (cfg.dominance) mark_dominated(full, kept, stats.dominated);
        if (cfg.coarsen_factor > 1) {
            mark_coarsened(full, cfg.coarsen_factor, kept, stats.coarsened);
        }
        if (cfg.consolidate_to > 0) {
            mark_consolidated(full, cfg.consolidate_to, kept,
                              stats.consolidated);
        }
        reinstate_coverage(full, num_devices, kept, stats.reinstated);
    }
    return gather(full, num_devices, kept, stats);
}

ReducedCandidates refine_near_tour(const HoverCandidateSet& full,
                                   const ReducedCandidates& reduced,
                                   std::span<const geom::Vec2> tour_stops,
                                   const geom::Vec2& depot, double band_m,
                                   std::size_t num_devices) {
    UAVDC_REQUIRE(band_m > 0.0)
        << "refine_near_tour: band_m must be > 0, got " << band_m;
    std::vector<char> kept(full.size(), 0);
    for (const std::int32_t j : reduced.original_index) {
        kept[static_cast<std::size_t>(j)] = 1;
    }
    // Closed polyline depot -> stops -> depot.
    std::vector<geom::Vec2> poly;
    poly.reserve(tour_stops.size() + 2);
    poly.push_back(depot);
    for (const auto& p : tour_stops) poly.push_back(p);
    poly.push_back(depot);
    const double band2 = band_m * band_m;
    for (std::size_t j = 0; j < full.size(); ++j) {
        if (kept[j] != 0) continue;
        const geom::Vec2& p = full.candidates[j].pos;
        for (std::size_t s = 0; s + 1 < poly.size(); ++s) {
            if (segment_dist2(p, poly[s], poly[s + 1]) <= band2) {
                kept[j] = 1;
                break;
            }
        }
    }
    return gather(full, num_devices, kept, reduced.stats);
}

}  // namespace uavdc::core
