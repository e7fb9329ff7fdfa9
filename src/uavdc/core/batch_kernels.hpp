#pragma once

#include <algorithm>
#include <cstddef>

#include "uavdc/geom/vec2.hpp"

/// Batched geometry / coverage kernels behind the SoA data plane
/// (core/soa_layout). Two kinds:
///
///  * Elementwise kernels (this header's declarations, bodies in
///    batch_kernels.cpp): N-at-a-time distance, insertion-edge deltas, and
///    the cache-blocked distance-matrix tile fill. Written as plain loops
///    the compiler auto-vectorizes (CI greps `-Rpass=loop-vectorize` /
///    optimization records for them — scripts/check_vectorization.sh); the
///    TU is built with -ffp-contract=off and per-lane IEEE ops only, so
///    every lane is bit-identical to the scalar geom::distance expression
///    regardless of vector width or ISA.
///
///  * Ordered reductions: inline templates that keep the exact
///    accumulation order of the from-scratch loops in the test oracle
///    (tests/greedy_oracle.hpp). They exist so the hot loops read the SoA
///    arrays (locality) without perturbing a single bit; the served plans
///    stay EXPECT_EQ-identical to the oracle's through them. They are not reassociated: a measured 8-lane
///    form made no plan faster (DESIGN.md "One reduction tier").
namespace uavdc::core::kernels {

// ---------------------------------------------------------------------------
// Elementwise batched kernels (auto-vectorized; bit-identical per lane).
// ---------------------------------------------------------------------------

/// out[i] = (xs[i] - p.x)^2 + (ys[i] - p.y)^2 — the geom::distance2(q_i, p)
/// expression, N at a time.
void squared_distances_to_point(const double* xs, const double* ys,
                                std::size_t n, double px, double py,
                                double* out);

/// out[i] = sqrt((xs[i] - p.x)^2 + (ys[i] - p.y)^2) — geom::distance(q_i, p)
/// (and, since squares kill the sign, geom::distance(p, q_i)) N at a time.
void distances_to_point(const double* xs, const double* ys, std::size_t n,
                        double px, double py, double* out);

/// The InsertionCache::on_insert edge scan, batched over candidates: for
/// each candidate x_i = (xs[i], ys[i]) compute the insertion deltas of the
/// two tour edges created by inserting p between a and b,
///   n1[i] = d(a, x_i) + d(x_i, p) - len_ap   (edge a -> p)
///   n2[i] = d(x_i, p) + d(x_i, b) - len_pb   (edge p -> b)
/// with the exact operand order of the scalar code it replaces.
void insertion_edge_deltas(const double* xs, const double* ys, std::size_t n,
                           geom::Vec2 a, geom::Vec2 p, geom::Vec2 b,
                           double len_ap, double len_pb, double* n1,
                           double* n2);

/// One tile of the flat distance-matrix fill: row[c] = d(p, node_c) for
/// c in [c0, c1), where node coordinates live in xs/ys. `row` points at the
/// row's column 0, i.e. the tile writes row[c0..c1). Expression order
/// matches geom::distance(p, node) — (p - node), squared, summed, sqrt.
void fill_distance_tile(const double* xs, const double* ys, std::size_t c0,
                        std::size_t c1, double px, double py, double* row);

/// Squared-form companion of fill_distance_tile: row[c] = d2(p, node_c) for
/// c in [c0, c1) — the same (p - node) difference expressions with the sqrt
/// deferred. Each lane satisfies fill_distance_tile's output ==
/// std::sqrt(this output) bit-for-bit (the deferral identity the
/// micro_kernels cross-check asserts), so squared-space prefilters can
/// resolve survivors by sqrt-ing exactly the values this kernel produced.
void fill_squared_distance_tile(const double* xs, const double* ys,
                                std::size_t c0, std::size_t c1, double px,
                                double py, double* row);

/// Squared lower-bound inputs for the InsertionCache::on_insert prune pass:
/// for each candidate x_i = (xs[i], ys[i]),
///   s1[i] = d2(a, x_i) + d2(x_i, p)   (edge a -> p)
///   s2[i] = d2(x_i, p) + d2(x_i, b)   (edge p -> b)
/// using the same difference expressions as insertion_edge_deltas but with
/// every sqrt deferred. With |d(a,x) - d(x,p)| <= d(a,p) = len_ap (reverse
/// triangle inequality over the edge), the exact delta obeys
///   (d(a,x) + d(x,p))^2 = 2 * s1[i] - (d(a,x) - d(x,p))^2
///                       >= 2 * s1[i] - len_ap^2,
/// so a candidate whose squared sum fails the bound test cannot beat the
/// caller's threshold; only survivors pay insertion_edge_deltas' 3 sqrts.
void squared_insertion_lower_bounds(const double* xs, const double* ys,
                                    std::size_t n, geom::Vec2 a, geom::Vec2 p,
                                    geom::Vec2 b, double* s1, double* s2);

// ---------------------------------------------------------------------------
// Ordered reductions (bit-identical to the test oracle's loops).
// Inline templates so both the int (HoverCandidate::covered) and
// std::int32_t (CSR) index types route through one definition; they are
// deliberately scalar — reassociating them would break the EXPECT_EQ
// equivalence contract.
// ---------------------------------------------------------------------------

struct GainAccum {
    double sum_mb{0.0};
    double max_s{0.0};
};

/// Algorithm 2's residual prize P'(s) and dwell t'(s) (Eq. 11-12): over the
/// candidate's covered list, sum data of uncovered devices with positive
/// data and take the max precomputed upload time. Accumulation order is the
/// covered-list order, exactly as the oracle's residual_gain.
template <typename Index>
[[nodiscard]] GainAccum residual_gain_ordered(const Index* idx, std::size_t m,
                                              const double* data_mb,
                                              const double* upload_s,
                                              const char* covered_mask) {
    GainAccum g;
    for (std::size_t j = 0; j < m; ++j) {
        const auto v = static_cast<std::size_t>(idx[j]);
        if (covered_mask[v] != 0) continue;
        if (data_mb[v] <= 0.0) continue;
        g.sum_mb += data_mb[v];
        g.max_s = std::max(g.max_s, upload_s[v]);
    }
    return g;
}

/// Hover-candidate construction (Eq. 6-8): unconditional award sum and max
/// upload time over a cell's covered devices, in covered-list order.
template <typename Index>
[[nodiscard]] GainAccum award_dwell_ordered(const Index* idx, std::size_t m,
                                            const double* data_mb,
                                            const double* upload_s) {
    GainAccum g;
    for (std::size_t j = 0; j < m; ++j) {
        const auto v = static_cast<std::size_t>(idx[j]);
        g.sum_mb += data_mb[v];
        g.max_s = std::max(g.max_s, upload_s[v]);
    }
    return g;
}

/// Algorithm 3's t'(s_j): max residual upload time, max(residual[v] / bw),
/// in covered-list order (the division is per-element, as in the oracle).
template <typename Index>
[[nodiscard]] double max_residual_time_ordered(const Index* idx,
                                               std::size_t m,
                                               const double* residual,
                                               double bw) {
    double t = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        t = std::max(t, residual[static_cast<std::size_t>(idx[j])] / bw);
    }
    return t;
}

/// Algorithm 3's partial gain (Eq. 4 under residual volumes):
/// sum of min(residual[v], cap), in covered-list order.
template <typename Index>
[[nodiscard]] double capped_sum_ordered(const Index* idx, std::size_t m,
                                        const double* residual, double cap) {
    double gain = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        gain += std::min(residual[static_cast<std::size_t>(idx[j])], cap);
    }
    return gain;
}

/// Coverage-spread accumulation (hover-candidate dedupe): sum of
/// geom::distance2(pos, device_v) over the covered list, in list order.
template <typename Index>
[[nodiscard]] double sum_squared_distances_ordered(const Index* idx,
                                                   std::size_t m,
                                                   const double* xs,
                                                   const double* ys,
                                                   geom::Vec2 pos) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        const auto v = static_cast<std::size_t>(idx[j]);
        const double dx = pos.x - xs[v];
        const double dy = pos.y - ys[v];
        s += dx * dx + dy * dy;
    }
    return s;
}

}  // namespace uavdc::core::kernels
