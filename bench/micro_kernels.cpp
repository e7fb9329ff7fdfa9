// Google-benchmark microbenchmarks for the SoA batch kernels
// (core/batch_kernels) against the scalar AoS loops they replaced.
//
// With --baseline_out=<path> the binary instead runs the tracked
// batched-vs-scalar kernel cases and writes the uavdc-bench-kernels-v1
// schema (add --quick for the variant that scripts/perf_gate.py runs on base
// and head). Each case times both forms and — for
// the elementwise kernels — asserts the outputs are bit-identical, so the
// perf baseline doubles as an equivalence check.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/util/timer.hpp"

namespace {

using namespace uavdc;
using core::kernels::GainAccum;

/// Random SoA point cloud (padded, aligned) plus the matching AoS view.
struct Cloud {
    util::AlignedVector<double> xs;
    util::AlignedVector<double> ys;
    std::vector<geom::Vec2> aos;
};

Cloud make_cloud(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    Cloud c;
    c.xs.assign(core::soa_padded(n), 0.0);
    c.ys.assign(core::soa_padded(n), 0.0);
    c.aos.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.aos[i] = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
        c.xs[i] = c.aos[i].x;
        c.ys[i] = c.aos[i].y;
    }
    return c;
}

/// Wall-time aggregates over `reps` calls of `fn()` (each call must do the
/// full sweep). `min_s` is the legacy best-of metric; the regression gate
/// compares medians.
template <typename F>
bench::TimingStats timed_reps(int reps, F&& fn) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const util::Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    return bench::timing_stats(std::move(samples));
}

struct KernelCase {
    std::string name;
    int n{0};             ///< elements per sweep
    double batched_s{0};  ///< best wall time, batched kernel
    double scalar_s{0};   ///< best wall time, scalar AoS loop
    double speedup{0};    ///< scalar_s / batched_s
    bench::TimingStats batched;  ///< full rep aggregates, batched kernel
    bench::TimingStats scalar;   ///< full rep aggregates, scalar loop
};

KernelCase case_distances(bool quick, bool squared) {
    const std::size_t n = quick ? 1u << 14 : 1u << 17;
    const Cloud c = make_cloud(n, 11);
    const geom::Vec2 q{431.7, 208.3};
    std::vector<double> batched(n), scalar(n);
    const int sweeps = quick ? 40 : 80;
    const int reps = 5;
    KernelCase out;
    out.name = squared ? "dist2_batch" : "dist_batch";
    out.n = static_cast<int>(n);
    out.batched = timed_reps(reps, [&] {
        for (int s = 0; s < sweeps; ++s) {
            if (squared) {
                core::kernels::squared_distances_to_point(
                    c.xs.data(), c.ys.data(), n, q.x, q.y, batched.data());
            } else {
                core::kernels::distances_to_point(
                    c.xs.data(), c.ys.data(), n, q.x, q.y, batched.data());
            }
            benchmark::DoNotOptimize(batched.data());
        }
    });
    out.scalar = timed_reps(reps, [&] {
        for (int s = 0; s < sweeps; ++s) {
            for (std::size_t i = 0; i < n; ++i) {
                scalar[i] = squared ? geom::distance2(c.aos[i], q)
                                    : geom::distance(c.aos[i], q);
            }
            benchmark::DoNotOptimize(scalar.data());
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        UAVDC_CHECK(batched[i] == scalar[i])
            << out.name << ": lane " << i << " diverged";
    }
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

KernelCase case_insertion_deltas(bool quick) {
    const std::size_t n = quick ? 1u << 13 : 1u << 16;
    const Cloud c = make_cloud(n, 29);
    const geom::Vec2 a{100.0, 120.0}, p{480.0, 510.0}, b{900.0, 140.0};
    const double len_ap = geom::distance(a, p);
    const double len_pb = geom::distance(p, b);
    std::vector<double> n1(n), n2(n), m1(n), m2(n);
    const int sweeps = quick ? 30 : 60;
    KernelCase out;
    out.name = "insertion_deltas";
    out.n = static_cast<int>(n);
    out.batched = timed_reps(5, [&] {
        for (int s = 0; s < sweeps; ++s) {
            core::kernels::insertion_edge_deltas(c.xs.data(), c.ys.data(), n,
                                                 a, p, b, len_ap, len_pb,
                                                 n1.data(), n2.data());
            benchmark::DoNotOptimize(n1.data());
        }
    });
    out.scalar = timed_reps(5, [&] {
        for (int s = 0; s < sweeps; ++s) {
            for (std::size_t i = 0; i < n; ++i) {
                const geom::Vec2 x = c.aos[i];
                const double d_xp = geom::distance(x, p);
                m1[i] = geom::distance(a, x) + d_xp - len_ap;
                m2[i] = d_xp + geom::distance(x, b) - len_pb;
            }
            benchmark::DoNotOptimize(m1.data());
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        UAVDC_CHECK(n1[i] == m1[i] && n2[i] == m2[i])
            << out.name << ": lane " << i << " diverged";
    }
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

KernelCase case_matrix_fill(bool quick) {
    const std::size_t n = quick ? 192 : 640;
    const Cloud c = make_cloud(n, 41);
    std::vector<double> flat_b(n * n), flat_s(n * n);
    constexpr std::size_t kColTile = 1024;
    KernelCase out;
    out.name = "matrix_fill";
    out.n = static_cast<int>(n);
    out.batched = timed_reps(5, [&] {
        for (std::size_t r = 0; r < n; ++r) {
            const geom::Vec2 p = c.aos[r];
            for (std::size_t c0 = 0; c0 < n; c0 += kColTile) {
                core::kernels::fill_distance_tile(
                    c.xs.data(), c.ys.data(), c0, std::min(n, c0 + kColTile),
                    p.x, p.y, flat_b.data() + r * n);
            }
        }
        benchmark::DoNotOptimize(flat_b.data());
    });
    out.scalar = timed_reps(5, [&] {
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t col = 0; col < n; ++col) {
                flat_s[r * n + col] = geom::distance(c.aos[r], c.aos[col]);
            }
        }
        benchmark::DoNotOptimize(flat_s.data());
    });
    for (std::size_t i = 0; i < n * n; ++i) {
        UAVDC_CHECK(flat_b[i] == flat_s[i])
            << out.name << ": cell " << i << " diverged";
    }
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

/// Squared insertion lower bounds (the tour-builder prune pass) vs the
/// scalar squared-distance loop. Outputs are asserted bit-identical before
/// timing — the pruned-vs-exact contract the planner's bound-then-verify
/// scan relies on.
KernelCase case_squared_insertion_lb(bool quick) {
    const std::size_t n = quick ? 1u << 13 : 1u << 16;
    const Cloud c = make_cloud(n, 37);
    const geom::Vec2 a{100.0, 120.0}, p{480.0, 510.0}, b{900.0, 140.0};
    std::vector<double> s1(n), s2(n), m1(n), m2(n);
    const int sweeps = quick ? 30 : 60;
    KernelCase out;
    out.name = "squared_insertion_lb";
    out.n = static_cast<int>(n);
    out.batched = timed_reps(5, [&] {
        for (int s = 0; s < sweeps; ++s) {
            core::kernels::squared_insertion_lower_bounds(
                c.xs.data(), c.ys.data(), n, a, p, b, s1.data(), s2.data());
            benchmark::DoNotOptimize(s1.data());
        }
    });
    out.scalar = timed_reps(5, [&] {
        for (int s = 0; s < sweeps; ++s) {
            for (std::size_t i = 0; i < n; ++i) {
                const geom::Vec2 x = c.aos[i];
                const double d2_xp = geom::distance2(x, p);
                m1[i] = geom::distance2(a, x) + d2_xp;
                m2[i] = d2_xp + geom::distance2(x, b);
            }
            benchmark::DoNotOptimize(m1.data());
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        UAVDC_CHECK(s1[i] == m1[i] && s2[i] == m2[i])
            << out.name << ": lane " << i << " diverged";
    }
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

/// Squared distance-matrix tile fill vs the exact (sqrt-taking) fill. The
/// deferral identity is asserted bitwise before timing: sqrt of every
/// squared cell must reproduce the exact tile exactly, which is what lets
/// consumers defer the sqrt to survivors without changing any plan.
KernelCase case_squared_matrix_fill(bool quick) {
    const std::size_t n = quick ? 192 : 640;
    const Cloud c = make_cloud(n, 41);
    std::vector<double> flat_sq(n * n), flat_exact(n * n);
    constexpr std::size_t kColTile = 1024;
    for (std::size_t r = 0; r < n; ++r) {
        const geom::Vec2 p = c.aos[r];
        core::kernels::fill_squared_distance_tile(c.xs.data(), c.ys.data(), 0,
                                                  n, p.x, p.y,
                                                  flat_sq.data() + r * n);
        core::kernels::fill_distance_tile(c.xs.data(), c.ys.data(), 0, n, p.x,
                                          p.y, flat_exact.data() + r * n);
    }
    for (std::size_t i = 0; i < n * n; ++i) {
        UAVDC_CHECK(std::sqrt(flat_sq[i]) == flat_exact[i])
            << "sq_matrix_fill: deferral identity broke at cell " << i;
    }
    KernelCase out;
    out.name = "sq_matrix_fill";
    out.n = static_cast<int>(n);
    out.batched = timed_reps(5, [&] {
        for (std::size_t r = 0; r < n; ++r) {
            const geom::Vec2 p = c.aos[r];
            for (std::size_t c0 = 0; c0 < n; c0 += kColTile) {
                core::kernels::fill_squared_distance_tile(
                    c.xs.data(), c.ys.data(), c0, std::min(n, c0 + kColTile),
                    p.x, p.y, flat_sq.data() + r * n);
            }
        }
        benchmark::DoNotOptimize(flat_sq.data());
    });
    // "scalar" column: the exact tile fill — the speedup column is the pure
    // sqrt-deferral gain, both sides batched.
    out.scalar = timed_reps(5, [&] {
        for (std::size_t r = 0; r < n; ++r) {
            const geom::Vec2 p = c.aos[r];
            for (std::size_t c0 = 0; c0 < n; c0 += kColTile) {
                core::kernels::fill_distance_tile(
                    c.xs.data(), c.ys.data(), c0, std::min(n, c0 + kColTile),
                    p.x, p.y, flat_exact.data() + r * n);
            }
        }
        benchmark::DoNotOptimize(flat_exact.data());
    });
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

KernelCase case_capped_sum(bool quick) {
    // fast (8-lane) vs ordered reduction; outputs are epsilon-close by
    // design, so this case checks timing only.
    const std::size_t m = quick ? 1u << 14 : 1u << 17;
    util::Rng rng(53);
    std::vector<std::int32_t> idx(m);
    util::AlignedVector<double> residual(core::soa_padded(m), 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        idx[j] = static_cast<std::int32_t>(j);
        residual[j] = rng.uniform(0.0, 600.0);
    }
    const double cap = 250.0;
    const int sweeps = quick ? 40 : 80;
    KernelCase out;
    out.name = "capped_sum";
    out.n = static_cast<int>(m);
    out.batched = timed_reps(5, [&] {
        double acc = 0.0;
        for (int s = 0; s < sweeps; ++s) {
            acc += core::kernels::capped_sum_fast(idx.data(), m,
                                                  residual.data(), cap);
        }
        benchmark::DoNotOptimize(acc);
    });
    out.scalar = timed_reps(5, [&] {
        double acc = 0.0;
        for (int s = 0; s < sweeps; ++s) {
            acc += core::kernels::capped_sum_ordered(idx.data(), m,
                                                     residual.data(), cap);
        }
        benchmark::DoNotOptimize(acc);
    });
    out.batched_s = out.batched.min_s;
    out.scalar_s = out.scalar.min_s;
    out.speedup = out.scalar_s / out.batched_s;
    return out;
}

std::vector<KernelCase> run_kernel_baselines(bool quick) {
    return {case_distances(quick, true),     case_distances(quick, false),
            case_insertion_deltas(quick),    case_squared_insertion_lb(quick),
            case_matrix_fill(quick),         case_squared_matrix_fill(quick),
            case_capped_sum(quick)};
}

void write_kernel_baselines(const std::string& path, bool quick,
                            const std::vector<KernelCase>& rows) {
    io::Json doc;
    doc["schema"] = "uavdc-bench-kernels-v1";
    doc["quick"] = quick;
    io::Json::Array cases;
    for (const auto& r : rows) {
        io::Json c;
        c["name"] = r.name;
        c["n"] = r.n;
        c["batched_s"] = r.batched_s;
        c["scalar_s"] = r.scalar_s;
        c["speedup"] = r.speedup;
        // Rep aggregates: the regression gate prefers *_med_s when both
        // baseline and current carry it; min stays the legacy metric above.
        c["batched_med_s"] = r.batched.median_s;
        c["batched_std_s"] = r.batched.stddev_s;
        c["scalar_med_s"] = r.scalar.median_s;
        c["scalar_std_s"] = r.scalar.stddev_s;
        cases.push_back(std::move(c));
    }
    doc["cases"] = std::move(cases);
    std::ofstream out(path);
    UAVDC_CHECK(static_cast<bool>(out)) << "cannot open " << path;
    out << doc.dump(2) << "\n";
    out.flush();
    std::printf("wrote %s\n", path.c_str());
}

// --- Interactive google-benchmark entries over the same kernels.

void BM_SquaredDistances(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const Cloud c = make_cloud(n, 7);
    std::vector<double> out(n);
    for (auto _ : state) {
        core::kernels::squared_distances_to_point(c.xs.data(), c.ys.data(),
                                                  n, 317.0, 209.0,
                                                  out.data());
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_SquaredDistances)->Arg(1 << 10)->Arg(1 << 16);

void BM_Distances(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const Cloud c = make_cloud(n, 7);
    std::vector<double> out(n);
    for (auto _ : state) {
        core::kernels::distances_to_point(c.xs.data(), c.ys.data(), n, 317.0,
                                          209.0, out.data());
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Distances)->Arg(1 << 10)->Arg(1 << 16);

void BM_InsertionDeltas(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const Cloud c = make_cloud(n, 7);
    std::vector<double> n1(n), n2(n);
    const geom::Vec2 a{10.0, 20.0}, p{500.0, 500.0}, b{900.0, 100.0};
    const double lap = geom::distance(a, p), lpb = geom::distance(p, b);
    for (auto _ : state) {
        core::kernels::insertion_edge_deltas(c.xs.data(), c.ys.data(), n, a,
                                             p, b, lap, lpb, n1.data(),
                                             n2.data());
        benchmark::DoNotOptimize(n1.data());
    }
}
BENCHMARK(BM_InsertionDeltas)->Arg(1 << 10)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    if (flags.has("baseline_out")) {
        const bool quick = flags.get_bool("quick", false);
        const auto rows = run_kernel_baselines(quick);
        for (const auto& r : rows) {
            std::printf("%-18s n=%-7d batched=%.5fs scalar=%.5fs "
                        "speedup=%.2fx\n",
                        r.name.c_str(), r.n, r.batched_s, r.scalar_s,
                        r.speedup);
        }
        write_kernel_baselines(
            flags.get_string("baseline_out", "BENCH_kernels.json"), quick,
            rows);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
