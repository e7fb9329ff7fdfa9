// SoA layout + batched-kernel equivalence suite. The elementwise kernels
// carry a bitwise contract: every lane evaluates the exact scalar
// geom::distance expression, so results are EXPECT_EQ-identical to the
// loops they replaced — across 0-device, 1-device, and non-multiple-of-8
// sizes, and across 50 fuzzed generator instances. The ordered reductions
// must equal the plain scalar loops they stand for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "test_util.hpp"
#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc::core {
namespace {

bool aligned32(const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % util::kSoaAlignment == 0;
}

model::Instance fuzz_instance(util::Rng& rng, int min_devices,
                              int max_devices) {
    workload::GeneratorConfig g;
    g.num_devices =
        static_cast<int>(rng.uniform_int(min_devices, max_devices));
    g.region_w = rng.uniform(150.0, 500.0);
    g.region_h = rng.uniform(150.0, 500.0);
    g.min_mb = rng.uniform(20.0, 150.0);
    g.max_mb = g.min_mb + rng.uniform(50.0, 800.0);
    return workload::generate(g, rng.next_u64());
}

// --- SoA layout: padding, alignment, and value fidelity.

TEST(SoaLayout, PaddedSizeRoundsUpToLanes) {
    EXPECT_EQ(soa_padded(0), 0u);
    EXPECT_EQ(soa_padded(1), 8u);
    EXPECT_EQ(soa_padded(8), 8u);
    EXPECT_EQ(soa_padded(9), 16u);
    EXPECT_EQ(soa_padded(13), 16u);
}

TEST(SoaLayout, DeviceSoaHandlesEmptySingleAndOddSizes) {
    for (const int n : {0, 1, 13}) {
        std::vector<std::pair<geom::Vec2, double>> devs;
        for (int i = 0; i < n; ++i) {
            devs.push_back({{10.0 * i + 0.25, 5.0 * i + 0.75},
                            40.0 + 3.0 * i});
        }
        // manual_instance requires >= 1 device; build the empty case by
        // clearing a one-device instance.
        auto inst = testing::manual_instance(
            devs.empty()
                ? std::vector<std::pair<geom::Vec2, double>>{{{1.0, 1.0},
                                                              10.0}}
                : devs);
        if (devs.empty()) inst.devices.clear();

        const DeviceSoa soa = build_device_soa(inst);
        const auto count = static_cast<std::size_t>(n);
        ASSERT_EQ(soa.size(), count);
        ASSERT_EQ(soa.pos.xs.size(), soa_padded(count));
        ASSERT_EQ(soa.pos.ys.size(), soa_padded(count));
        ASSERT_EQ(soa.data_mb.size(), soa_padded(count));
        ASSERT_EQ(soa.upload_s.size(), soa_padded(count));
        if (!soa.pos.xs.empty()) {
            EXPECT_TRUE(aligned32(soa.pos.xs.data()));
            EXPECT_TRUE(aligned32(soa.pos.ys.data()));
            EXPECT_TRUE(aligned32(soa.data_mb.data()));
            EXPECT_TRUE(aligned32(soa.upload_s.data()));
        }
        const double bw = inst.uav.bandwidth_mbps;
        for (std::size_t v = 0; v < count; ++v) {
            EXPECT_EQ(soa.pos.xs[v], inst.devices[v].pos.x);
            EXPECT_EQ(soa.pos.ys[v], inst.devices[v].pos.y);
            EXPECT_EQ(soa.data_mb[v], inst.devices[v].data_mb);
            // Bitwise: the same division Device::upload_time performs.
            EXPECT_EQ(soa.upload_s[v], inst.devices[v].upload_time(bw));
        }
        for (std::size_t v = count; v < soa.pos.xs.size(); ++v) {
            EXPECT_EQ(soa.pos.xs[v], 0.0);
            EXPECT_EQ(soa.pos.ys[v], 0.0);
            EXPECT_EQ(soa.data_mb[v], 0.0);
            EXPECT_EQ(soa.upload_s[v], 0.0);
        }
    }
}

TEST(SoaLayout, CandidateSoaMirrorsCsrCoverage) {
    const auto inst = testing::small_instance(30, 250.0, 11);
    HoverCandidateConfig cfg;
    cfg.delta_m = 25.0;
    const auto set = build_hover_candidates(inst, cfg);
    ASSERT_FALSE(set.candidates.empty());

    const CandidateSoa soa = build_candidate_soa(set);
    ASSERT_EQ(soa.size(), set.candidates.size());
    ASSERT_EQ(set.cov_starts.size(), set.candidates.size() + 1);
    EXPECT_EQ(set.cov_starts.back(), set.cov.size());
    for (std::size_t j = 0; j < set.candidates.size(); ++j) {
        const auto& c = set.candidates[j];
        EXPECT_EQ(soa.pos.xs[j], c.pos.x);
        EXPECT_EQ(soa.pos.ys[j], c.pos.y);
        EXPECT_EQ(soa.award_mb[j], c.award_mb);
        EXPECT_EQ(soa.dwell_s[j], c.dwell_s);
        // The engines read coverage from the set's one CSR: contiguous
        // slices of ascending device ids.
        const auto cov = set.covered(j);
        ASSERT_EQ(cov.data(), set.cov.data() + set.cov_starts[j]);
        ASSERT_FALSE(cov.empty());
        EXPECT_TRUE(std::ranges::is_sorted(cov));
    }
}

// --- Elementwise kernels: bitwise against the scalar expressions, at
// --- awkward sizes (0, 1, lane-straddling remainders).

TEST(BatchKernels, DistancesMatchScalarAtAwkwardSizes) {
    util::Rng rng(42);
    for (const std::size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 15u, 31u, 64u}) {
        util::AlignedVector<double> xs(soa_padded(n), 0.0);
        util::AlignedVector<double> ys(soa_padded(n), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            xs[i] = rng.uniform(-500.0, 500.0);
            ys[i] = rng.uniform(-500.0, 500.0);
        }
        const geom::Vec2 p{rng.uniform(-500.0, 500.0),
                           rng.uniform(-500.0, 500.0)};
        std::vector<double> d2(n + 1, -1.0);
        std::vector<double> d(n + 1, -1.0);
        kernels::squared_distances_to_point(xs.data(), ys.data(), n, p.x,
                                            p.y, d2.data());
        kernels::distances_to_point(xs.data(), ys.data(), n, p.x, p.y,
                                    d.data());
        for (std::size_t i = 0; i < n; ++i) {
            const geom::Vec2 q{xs[i], ys[i]};
            EXPECT_EQ(d2[i], geom::distance2(q, p)) << "n=" << n << " i=" << i;
            EXPECT_EQ(d[i], geom::distance(q, p)) << "n=" << n << " i=" << i;
            // The squares kill the sign, so the symmetric call agrees too.
            EXPECT_EQ(d[i], geom::distance(p, q)) << "n=" << n << " i=" << i;
        }
        // The kernel writes exactly n outputs.
        EXPECT_EQ(d2[n], -1.0);
        EXPECT_EQ(d[n], -1.0);
    }
}

TEST(BatchKernels, InsertionEdgeDeltasMatchScalar) {
    util::Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform_int(0, 20));
        util::AlignedVector<double> xs(soa_padded(n), 0.0);
        util::AlignedVector<double> ys(soa_padded(n), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            xs[i] = rng.uniform(0.0, 300.0);
            ys[i] = rng.uniform(0.0, 300.0);
        }
        const geom::Vec2 a{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        const geom::Vec2 p{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        const geom::Vec2 b{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        const double len_ap = geom::distance(a, p);
        const double len_pb = geom::distance(p, b);
        std::vector<double> n1(n), n2(n);
        kernels::insertion_edge_deltas(xs.data(), ys.data(), n, a, p, b,
                                       len_ap, len_pb, n1.data(), n2.data());
        for (std::size_t i = 0; i < n; ++i) {
            const geom::Vec2 x{xs[i], ys[i]};
            const double d_xp = geom::distance(x, p);
            EXPECT_EQ(n1[i], geom::distance(a, x) + d_xp - len_ap)
                << "trial " << trial << " i=" << i;
            EXPECT_EQ(n2[i], d_xp + geom::distance(x, b) - len_pb)
                << "trial " << trial << " i=" << i;
        }
    }
}

TEST(BatchKernels, FillDistanceTileMatchesScalar) {
    util::Rng rng(13);
    const std::size_t n = 37;  // deliberately not a multiple of 8
    util::AlignedVector<double> xs(soa_padded(n), 0.0);
    util::AlignedVector<double> ys(soa_padded(n), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(0.0, 400.0);
        ys[i] = rng.uniform(0.0, 400.0);
    }
    const geom::Vec2 p{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
    std::vector<double> row(n, -1.0);
    // Two tiles with a seam in the middle of a lane group.
    kernels::fill_distance_tile(xs.data(), ys.data(), 0, 19, p.x, p.y,
                                row.data());
    kernels::fill_distance_tile(xs.data(), ys.data(), 19, n, p.x, p.y,
                                row.data());
    for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(row[c], geom::distance(p, geom::Vec2{xs[c], ys[c]}))
            << "col " << c;
    }
}

// --- The fuzz sweep: 50 generator instances, batched vs scalar, bitwise.

TEST(BatchKernels, FuzzedInstancesMatchScalarBitwise) {
    util::Rng rng(20260808);
    for (int trial = 0; trial < 50; ++trial) {
        const auto inst = fuzz_instance(rng, 1, 60);
        const DeviceSoa soa = build_device_soa(inst);
        const std::size_t n = soa.size();
        const geom::Vec2 q{rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
        std::vector<double> d(n), d2(n);
        kernels::distances_to_point(soa.pos.xs.data(), soa.pos.ys.data(), n,
                                    q.x, q.y, d.data());
        kernels::squared_distances_to_point(soa.pos.xs.data(),
                                            soa.pos.ys.data(), n, q.x, q.y,
                                            d2.data());
        for (std::size_t v = 0; v < n; ++v) {
            EXPECT_EQ(d[v], geom::distance(inst.devices[v].pos, q))
                << "trial " << trial << " device " << v;
            EXPECT_EQ(d2[v], geom::distance2(inst.devices[v].pos, q))
                << "trial " << trial << " device " << v;
        }
        if (::testing::Test::HasFailure()) break;
    }
}

// --- Ordered reductions: bitwise against hand-rolled reference loops.

TEST(BatchKernels, OrderedReductionsMatchReferenceLoops) {
    util::Rng rng(5);
    const std::size_t m = 23;
    std::vector<std::int32_t> idx(m);
    util::AlignedVector<double> data(64, 0.0), upload(64, 0.0);
    std::vector<char> mask(64, 0);
    for (std::size_t j = 0; j < m; ++j) {
        idx[j] = static_cast<std::int32_t>(rng.uniform_int(0, 63));
        mask[static_cast<std::size_t>(idx[j])] =
            rng.uniform(0.0, 1.0) < 0.3 ? 1 : 0;
    }
    for (std::size_t v = 0; v < 64; ++v) {
        data[v] = rng.uniform(-10.0, 500.0);  // a few negatives, skipped
        upload[v] = rng.uniform(0.0, 80.0);
    }
    double sum = 0.0, mx = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        const auto v = static_cast<std::size_t>(idx[j]);
        if (mask[v] != 0 || data[v] <= 0.0) continue;
        sum += data[v];
        mx = std::max(mx, upload[v]);
    }
    const auto g = kernels::residual_gain_ordered(idx.data(), m, data.data(),
                                                  upload.data(), mask.data());
    EXPECT_EQ(g.sum_mb, sum);
    EXPECT_EQ(g.max_s, mx);

    double capped = 0.0;
    const double cap = 120.0;
    for (std::size_t j = 0; j < m; ++j) {
        capped += std::min(data[static_cast<std::size_t>(idx[j])], cap);
    }
    EXPECT_EQ(kernels::capped_sum_ordered(idx.data(), m, data.data(), cap),
              capped);
}

}  // namespace
}  // namespace uavdc::core
