#include "uavdc/core/batch_kernels.hpp"

#include <cmath>

// This TU is compiled with -ffp-contract=off (see src/CMakeLists.txt): gcc
// defaults to -ffp-contract=fast, and letting an AVX2-targeted clone fuse
// dx*dx + dy*dy into an FMA would change the result bits relative to the
// scalar reference expression. With contraction off, sqrt/add/mul are all
// IEEE correctly-rounded per lane, so the vectorized loops below are
// bit-identical to geom::distance / geom::distance2 at every width.
//
// Dispatch: each kernel has a portable body (inlined into a baseline and,
// on x86-64, an __attribute__((target("avx2"))) clone) selected once via
// __builtin_cpu_supports. We deliberately avoid target_clones/ifunc (fragile
// under sanitizers) and intrinsics (ISSUE: "no intrinsics required").

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UAVDC_HAVE_AVX2_DISPATCH 1
#else
#define UAVDC_HAVE_AVX2_DISPATCH 0
#endif

#if UAVDC_HAVE_AVX2_DISPATCH
#define UAVDC_KERNEL_BODY inline __attribute__((always_inline))
#else
#define UAVDC_KERNEL_BODY inline
#endif

namespace uavdc::core::kernels {

namespace {

UAVDC_KERNEL_BODY void squared_distances_body(const double* xs,
                                              const double* ys, std::size_t n,
                                              double px, double py,
                                              double* out) {
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - px;
        const double dy = ys[i] - py;
        out[i] = dx * dx + dy * dy;
    }
}

UAVDC_KERNEL_BODY void distances_body(const double* xs, const double* ys,
                                      std::size_t n, double px, double py,
                                      double* out) {
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - px;
        const double dy = ys[i] - py;
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

UAVDC_KERNEL_BODY void insertion_edge_deltas_body(
    const double* xs, const double* ys, std::size_t n, geom::Vec2 a,
    geom::Vec2 p, geom::Vec2 b, double len_ap, double len_pb, double* n1,
    double* n2) {
    for (std::size_t i = 0; i < n; ++i) {
        const double x = xs[i];
        const double y = ys[i];
        const double dxp_x = x - p.x;
        const double dxp_y = y - p.y;
        const double d_xp = std::sqrt(dxp_x * dxp_x + dxp_y * dxp_y);
        const double dax_x = a.x - x;
        const double dax_y = a.y - y;
        const double d_ax = std::sqrt(dax_x * dax_x + dax_y * dax_y);
        const double dxb_x = x - b.x;
        const double dxb_y = y - b.y;
        const double d_xb = std::sqrt(dxb_x * dxb_x + dxb_y * dxb_y);
        n1[i] = (d_ax + d_xp) - len_ap;
        n2[i] = (d_xp + d_xb) - len_pb;
    }
}

UAVDC_KERNEL_BODY void fill_distance_tile_body(const double* xs,
                                               const double* ys,
                                               std::size_t c0, std::size_t c1,
                                               double px, double py,
                                               double* row) {
    for (std::size_t c = c0; c < c1; ++c) {
        const double dx = px - xs[c];
        const double dy = py - ys[c];
        row[c] = std::sqrt(dx * dx + dy * dy);
    }
}

UAVDC_KERNEL_BODY void fill_squared_distance_tile_body(
    const double* xs, const double* ys, std::size_t c0, std::size_t c1,
    double px, double py, double* row) {
    for (std::size_t c = c0; c < c1; ++c) {
        const double dx = px - xs[c];
        const double dy = py - ys[c];
        row[c] = dx * dx + dy * dy;
    }
}

UAVDC_KERNEL_BODY void squared_insertion_lower_bounds_body(
    const double* xs, const double* ys, std::size_t n, geom::Vec2 a,
    geom::Vec2 p, geom::Vec2 b, double* s1, double* s2) {
    for (std::size_t i = 0; i < n; ++i) {
        const double x = xs[i];
        const double y = ys[i];
        const double dxp_x = x - p.x;
        const double dxp_y = y - p.y;
        const double d2_xp = dxp_x * dxp_x + dxp_y * dxp_y;
        const double dax_x = a.x - x;
        const double dax_y = a.y - y;
        const double d2_ax = dax_x * dax_x + dax_y * dax_y;
        const double dxb_x = x - b.x;
        const double dxb_y = y - b.y;
        const double d2_xb = dxb_x * dxb_x + dxb_y * dxb_y;
        s1[i] = d2_ax + d2_xp;
        s2[i] = d2_xp + d2_xb;
    }
}

#if UAVDC_HAVE_AVX2_DISPATCH

[[nodiscard]] bool cpu_has_avx2() {
    static const bool v = __builtin_cpu_supports("avx2") != 0;
    return v;
}

__attribute__((target("avx2"))) void squared_distances_avx2(
    const double* xs, const double* ys, std::size_t n, double px, double py,
    double* out) {
    squared_distances_body(xs, ys, n, px, py, out);
}

__attribute__((target("avx2"))) void distances_avx2(const double* xs,
                                                    const double* ys,
                                                    std::size_t n, double px,
                                                    double py, double* out) {
    distances_body(xs, ys, n, px, py, out);
}

__attribute__((target("avx2"))) void insertion_edge_deltas_avx2(
    const double* xs, const double* ys, std::size_t n, geom::Vec2 a,
    geom::Vec2 p, geom::Vec2 b, double len_ap, double len_pb, double* n1,
    double* n2) {
    insertion_edge_deltas_body(xs, ys, n, a, p, b, len_ap, len_pb, n1, n2);
}

__attribute__((target("avx2"))) void fill_distance_tile_avx2(
    const double* xs, const double* ys, std::size_t c0, std::size_t c1,
    double px, double py, double* row) {
    fill_distance_tile_body(xs, ys, c0, c1, px, py, row);
}

__attribute__((target("avx2"))) void fill_squared_distance_tile_avx2(
    const double* xs, const double* ys, std::size_t c0, std::size_t c1,
    double px, double py, double* row) {
    fill_squared_distance_tile_body(xs, ys, c0, c1, px, py, row);
}

__attribute__((target("avx2"))) void squared_insertion_lower_bounds_avx2(
    const double* xs, const double* ys, std::size_t n, geom::Vec2 a,
    geom::Vec2 p, geom::Vec2 b, double* s1, double* s2) {
    squared_insertion_lower_bounds_body(xs, ys, n, a, p, b, s1, s2);
}

#endif  // UAVDC_HAVE_AVX2_DISPATCH

}  // namespace

void squared_distances_to_point(const double* xs, const double* ys,
                                std::size_t n, double px, double py,
                                double* out) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        squared_distances_avx2(xs, ys, n, px, py, out);
        return;
    }
#endif
    squared_distances_body(xs, ys, n, px, py, out);
}

void distances_to_point(const double* xs, const double* ys, std::size_t n,
                        double px, double py, double* out) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        distances_avx2(xs, ys, n, px, py, out);
        return;
    }
#endif
    distances_body(xs, ys, n, px, py, out);
}

void insertion_edge_deltas(const double* xs, const double* ys, std::size_t n,
                           geom::Vec2 a, geom::Vec2 p, geom::Vec2 b,
                           double len_ap, double len_pb, double* n1,
                           double* n2) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        insertion_edge_deltas_avx2(xs, ys, n, a, p, b, len_ap, len_pb, n1,
                                   n2);
        return;
    }
#endif
    insertion_edge_deltas_body(xs, ys, n, a, p, b, len_ap, len_pb, n1, n2);
}

void fill_distance_tile(const double* xs, const double* ys, std::size_t c0,
                        std::size_t c1, double px, double py, double* row) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        fill_distance_tile_avx2(xs, ys, c0, c1, px, py, row);
        return;
    }
#endif
    fill_distance_tile_body(xs, ys, c0, c1, px, py, row);
}

void fill_squared_distance_tile(const double* xs, const double* ys,
                                std::size_t c0, std::size_t c1, double px,
                                double py, double* row) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        fill_squared_distance_tile_avx2(xs, ys, c0, c1, px, py, row);
        return;
    }
#endif
    fill_squared_distance_tile_body(xs, ys, c0, c1, px, py, row);
}

void squared_insertion_lower_bounds(const double* xs, const double* ys,
                                    std::size_t n, geom::Vec2 a, geom::Vec2 p,
                                    geom::Vec2 b, double* s1, double* s2) {
#if UAVDC_HAVE_AVX2_DISPATCH
    if (cpu_has_avx2()) {
        squared_insertion_lower_bounds_avx2(xs, ys, n, a, p, b, s1, s2);
        return;
    }
#endif
    squared_insertion_lower_bounds_body(xs, ys, n, a, p, b, s1, s2);
}

}  // namespace uavdc::core::kernels
