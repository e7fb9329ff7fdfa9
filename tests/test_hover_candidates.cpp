#include "uavdc/core/hover_candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc::core {
namespace {

using testing::manual_instance;
using testing::small_instance;

TEST(HoverCandidates, SingleDeviceQuantities) {
    const auto inst = manual_instance({{{100.0, 100.0}, 300.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 20.0;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    ASSERT_GT(set.size(), 0u);
    for (std::size_t j = 0; j < set.size(); ++j) {
        const auto& c = set.candidates[j];
        EXPECT_LE(geom::distance(c.pos, {100.0, 100.0}),
                  inst.uav.coverage_radius_m + 1e-9);
        EXPECT_DOUBLE_EQ(c.award_mb, 300.0);
        EXPECT_DOUBLE_EQ(c.dwell_s, 2.0);  // 300 MB / 150 MB/s
        EXPECT_DOUBLE_EQ(c.hover_energy_j, 300.0);  // 2 s * 150 W
        EXPECT_TRUE(std::ranges::equal(set.covered(j), std::vector<int>{0}));
    }
    // Number of cells covering the device ~ area of the disk / delta^2.
    EXPECT_GT(set.nonzero_cells, 10);
    EXPECT_EQ(set.grid_cells, 100);  // (200/20)^2
}

TEST(HoverCandidates, AwardSumsCoveredDevices) {
    const auto inst = manual_instance(
        {{{100.0, 100.0}, 200.0}, {{110.0, 100.0}, 400.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    bool found_both = false;
    for (std::size_t j = 0; j < set.size(); ++j) {
        const auto& c = set.candidates[j];
        if (set.covered(j).size() == 2) {
            found_both = true;
            EXPECT_DOUBLE_EQ(c.award_mb, 600.0);
            // Dwell: max upload time = 400/150.
            EXPECT_NEAR(c.dwell_s, 400.0 / 150.0, 1e-12);
        }
    }
    EXPECT_TRUE(found_both);
}

TEST(HoverCandidates, EmptyCellsDropped) {
    const auto inst = manual_instance({{{20.0, 20.0}, 100.0}}, 1000.0);
    HoverCandidateConfig cfg;
    cfg.delta_m = 50.0;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    EXPECT_EQ(set.grid_cells, 400);
    EXPECT_LT(set.nonzero_cells, 20);
    for (std::size_t j = 0; j < set.size(); ++j) {
        EXPECT_FALSE(set.covered(j).empty());
    }
}

TEST(HoverCandidates, DedupeRemovesIdenticalCoverage) {
    // One isolated device with a fine grid: many cells share the identical
    // single-device coverage set; dedup keeps exactly one.
    const auto inst = manual_instance({{{100.0, 100.0}, 300.0}});
    HoverCandidateConfig fine;
    fine.delta_m = 5.0;
    fine.max_candidates = 0;
    const auto dedup = build_hover_candidates(inst, fine);
    EXPECT_GT(dedup.nonzero_cells, 100);
    EXPECT_EQ(dedup.size(), 1u);
    // The kept representative is the best-centred one.
    EXPECT_LE(geom::distance(dedup.candidates[0].pos, {100.0, 100.0}),
              fine.delta_m);
}

TEST(HoverCandidates, CapRespectedAndDevicesStillCovered) {
    const auto inst = small_instance(60, 400.0, 11);
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.max_candidates = 25;
    const auto set = build_hover_candidates(inst, cfg);
    EXPECT_LE(set.size(), 25u);
    // Every device coverable before the cap stays coverable after it.
    std::set<int> covered;
    for (std::size_t j = 0; j < set.size(); ++j) {
        covered.insert(set.covered(j).begin(), set.covered(j).end());
    }
    HoverCandidateConfig uncapped = cfg;
    uncapped.max_candidates = 0;
    const auto full = build_hover_candidates(inst, uncapped);
    std::set<int> coverable;
    for (std::size_t j = 0; j < full.size(); ++j) {
        coverable.insert(full.covered(j).begin(), full.covered(j).end());
    }
    EXPECT_EQ(covered, coverable);
}

TEST(HoverCandidates, NoDevicesNoCandidates) {
    model::Instance inst;
    inst.region = geom::Aabb::of_size(100.0, 100.0);
    inst.depot = {0.0, 0.0};
    const auto set = build_hover_candidates(inst, {});
    EXPECT_EQ(set.size(), 0u);
}

TEST(HoverCandidates, DeltaControlsGranularity) {
    const auto inst = small_instance(30, 300.0, 3);
    HoverCandidateConfig coarse;
    coarse.delta_m = 50.0;
    coarse.max_candidates = 0;
    HoverCandidateConfig fine = coarse;
    fine.delta_m = 10.0;
    const auto c = build_hover_candidates(inst, coarse);
    const auto f = build_hover_candidates(inst, fine);
    EXPECT_GT(f.nonzero_cells, c.nonzero_cells);
}



// --- Oracle: the device-driven build against a brute-force reference that
// --- tests every cell against every device with the same disk test, then
// --- applies the documented dedupe and cap.

struct RefCandidate {
    HoverCandidate c;
    std::vector<int> covered;
};

struct RefSet {
    std::vector<RefCandidate> cands;
    int grid_cells{0};
    int nonzero_cells{0};
    int after_dedupe{0};
};

/// Mean squared distance from the centre to its covered devices, summed in
/// covered order (dx = centre - device).
double ref_spread(const model::Instance& inst, const RefCandidate& rc) {
    double s = 0.0;
    for (const int v : rc.covered) {
        const auto& d = inst.devices[static_cast<std::size_t>(v)].pos;
        const double dx = rc.c.pos.x - d.x;
        const double dy = rc.c.pos.y - d.y;
        s += dx * dx + dy * dy;
    }
    return s / static_cast<double>(rc.covered.size());
}

RefSet reference_candidates(const model::Instance& inst,
                            const HoverCandidateConfig& cfg) {
    const geom::Grid grid(inst.region, cfg.delta_m);
    const double r = inst.uav.coverage_radius_m;
    const double bw = inst.uav.bandwidth_mbps;
    RefSet out;
    out.grid_cells = grid.num_cells();
    for (int id = 0; id < grid.num_cells(); ++id) {
        RefCandidate rc;
        rc.c.pos = grid.center(id);
        rc.c.cell_id = id;
        for (std::size_t v = 0; v < inst.devices.size(); ++v) {
            const double dx = inst.devices[v].pos.x - rc.c.pos.x;
            const double dy = inst.devices[v].pos.y - rc.c.pos.y;
            if (dx * dx + dy * dy <= r * r) {
                rc.covered.push_back(static_cast<int>(v));
            }
        }
        if (rc.covered.empty()) continue;
        for (const int v : rc.covered) {
            const auto& d = inst.devices[static_cast<std::size_t>(v)];
            rc.c.award_mb += d.data_mb;
            rc.c.dwell_s = std::max(rc.c.dwell_s, d.upload_time(bw));
        }
        rc.c.hover_energy_j = rc.c.dwell_s * inst.uav.hover_power_w;
        out.cands.push_back(std::move(rc));
    }
    out.nonzero_cells = static_cast<int>(out.cands.size());

    // Per distinct coverage set, the first candidate of least spread.
    std::map<std::vector<int>, std::size_t> winner;
    for (std::size_t i = 0; i < out.cands.size(); ++i) {
        auto [it, fresh] = winner.try_emplace(out.cands[i].covered, i);
        if (!fresh && ref_spread(inst, out.cands[i]) <
                          ref_spread(inst, out.cands[it->second])) {
            it->second = i;
        }
    }
    std::vector<char> keep(out.cands.size(), 0);
    for (const auto& [cov, i] : winner) keep[i] = 1;
    std::vector<RefCandidate> kept;
    for (std::size_t i = 0; i < out.cands.size(); ++i) {
        if (keep[i] != 0) kept.push_back(out.cands[i]);
    }
    out.cands = std::move(kept);
    out.after_dedupe = static_cast<int>(out.cands.size());

    const auto cap = static_cast<std::size_t>(std::max(cfg.max_candidates, 0));
    if (cap > 0 && out.cands.size() > cap) {
        // Set cover by descending award, then fill by award.
        std::vector<std::size_t> order(out.cands.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return out.cands[a].c.award_mb > out.cands[b].c.award_mb;
                  });
        std::vector<char> hit(inst.devices.size(), 0);
        std::vector<char> selected(out.cands.size(), 0);
        std::size_t n = 0;
        for (const std::size_t i : order) {
            bool adds = false;
            for (const int v : out.cands[i].covered) {
                adds = adds || hit[static_cast<std::size_t>(v)] == 0;
            }
            if (!adds) continue;
            selected[i] = 1;
            ++n;
            for (const int v : out.cands[i].covered) {
                hit[static_cast<std::size_t>(v)] = 1;
            }
            if (n >= cap) break;
        }
        for (const std::size_t i : order) {
            if (n >= cap) break;
            if (selected[i] == 0) {
                selected[i] = 1;
                ++n;
            }
        }
        std::vector<RefCandidate> capped;
        for (std::size_t i = 0; i < out.cands.size(); ++i) {
            if (selected[i] != 0) capped.push_back(out.cands[i]);
        }
        out.cands = std::move(capped);
    }
    return out;
}

/// Every field of the built set equals the reference bit for bit.
void expect_matches_reference(const model::Instance& inst,
                              const HoverCandidateConfig& cfg,
                              const std::string& tag) {
    SCOPED_TRACE(tag);
    const HoverCandidateSet got = build_hover_candidates(inst, cfg);
    const RefSet want = reference_candidates(inst, cfg);
    EXPECT_EQ(got.grid_cells, want.grid_cells);
    EXPECT_EQ(got.nonzero_cells, want.nonzero_cells);
    EXPECT_EQ(got.after_dedupe, want.after_dedupe);
    EXPECT_EQ(got.delta_m, cfg.delta_m);
    ASSERT_EQ(got.size(), want.cands.size());
    ASSERT_EQ(got.cov_starts.size(), got.size() + 1);
    EXPECT_EQ(got.cov_starts.back(), got.cov.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
        const HoverCandidate& a = got.candidates[j];
        const HoverCandidate& b = want.cands[j].c;
        EXPECT_EQ(a.cell_id, b.cell_id) << "candidate " << j;
        EXPECT_EQ(a.pos.x, b.pos.x) << "candidate " << j;
        EXPECT_EQ(a.pos.y, b.pos.y) << "candidate " << j;
        EXPECT_EQ(a.award_mb, b.award_mb) << "candidate " << j;
        EXPECT_EQ(a.dwell_s, b.dwell_s) << "candidate " << j;
        EXPECT_EQ(a.hover_energy_j, b.hover_energy_j) << "candidate " << j;
        EXPECT_TRUE(std::ranges::equal(got.covered(j), want.cands[j].covered))
            << "candidate " << j;
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(HoverCandidates, MatchesBruteForceReferenceOnSeededInstances) {
    const double deltas[] = {2.5, 5.0, 10.0, 25.0};
    util::Rng rng(20261017);
    for (int trial = 0; trial < 120; ++trial) {
        const int preset = trial % 3;
        workload::GeneratorConfig g =
            preset == 0   ? workload::paper_default()
            : preset == 1 ? workload::smart_city()
                          : workload::disaster_response();
        g.num_devices = rng.uniform_int(1, 60);
        g.region_w = rng.uniform(150.0, 420.0);
        g.region_h = rng.uniform(150.0, 420.0);
        g.cluster_stddev = 30.0;
        const auto inst = workload::generate(g, rng.next_u64());

        HoverCandidateConfig cfg;
        cfg.delta_m = deltas[(trial / 3) % 4];
        if ((trial / 48) % 2 == 1) {
            // A cap that binds: a third of the uncapped set.
            HoverCandidateConfig uncapped = cfg;
            uncapped.max_candidates = 0;
            const auto full = build_hover_candidates(inst, uncapped);
            cfg.max_candidates =
                std::max(1, static_cast<int>(full.size()) / 3);
        }
        expect_matches_reference(inst, cfg,
                                 "trial " + std::to_string(trial) +
                                     " preset " + std::to_string(preset) +
                                     " delta " + std::to_string(cfg.delta_m));
        if (HasFailure()) break;
    }
}

/// Degenerate layouts, each uncapped and under a binding cap.
void expect_matches_reference_all_configs(const model::Instance& inst,
                                          double delta,
                                          const std::string& tag) {
    for (const int cap : {0, 3}) {
        HoverCandidateConfig cfg;
        cfg.delta_m = delta;
        cfg.max_candidates = cap;
        expect_matches_reference(inst, cfg,
                                 tag + " cap " + std::to_string(cap));
    }
}

TEST(HoverCandidates, MatchesReferenceOnDegenerateLayouts) {
    model::Instance empty;
    empty.region = geom::Aabb::of_size(100.0, 100.0);
    expect_matches_reference_all_configs(empty, 10.0, "no devices");

    expect_matches_reference_all_configs(
        manual_instance({{{80.0, 80.0}, 100.0},
                         {{80.0, 80.0}, 300.0},
                         {{80.0, 80.0}, 200.0},
                         {{120.0, 75.0}, 50.0}}),
        5.0, "coincident devices");

    expect_matches_reference_all_configs(
        manual_instance({{{0.0, 0.0}, 100.0},
                         {{200.0, 0.0}, 200.0},
                         {{0.0, 200.0}, 300.0},
                         {{200.0, 200.0}, 400.0}}),
        10.0, "devices on region corners");

    // Cell 10 + 10 * 20 has centre (105, 105); the devices sit exactly R0
    // = 50 m from it along each axis, on the closed disk's boundary.
    const auto axis = manual_instance({{{155.0, 105.0}, 100.0},
                                       {{105.0, 55.0}, 200.0},
                                       {{55.0, 105.0}, 300.0},
                                       {{105.0, 155.0}, 400.0}});
    expect_matches_reference_all_configs(axis, 10.0, "exactly R0 on an axis");
    HoverCandidateConfig uncapped;
    uncapped.delta_m = 10.0;
    uncapped.max_candidates = 0;
    const auto set = build_hover_candidates(axis, uncapped);
    const auto it = std::ranges::find(set.candidates, 210,
                                      &HoverCandidate::cell_id);
    ASSERT_NE(it, set.candidates.end());
    const auto j = static_cast<std::size_t>(it - set.candidates.begin());
    EXPECT_TRUE(std::ranges::equal(set.covered(j), std::vector<int>{0, 1, 2, 3}));

    auto ragged = manual_instance({{{7.0, 3.0}, 100.0},
                                   {{203.7, 151.3}, 200.0},
                                   {{101.9, 77.7}, 300.0}},
                                  300.0);
    ragged.region = geom::Aabb::of_size(203.7, 151.3);
    expect_matches_reference_all_configs(ragged, 10.0,
                                         "width not a multiple of delta");
    expect_matches_reference_all_configs(ragged, 2.5, "ragged at 2.5 m");
}

TEST(HoverCandidates, WorkOverTheBoundIsRefusedWithTheFigure) {
    // 500 devices at 0.05 m: each coverage disk spans ~4e6 cells.
    const auto inst = small_instance(500, 1000.0, 3);
    HoverCandidateConfig cfg;
    cfg.delta_m = 0.05;
    try {
        (void)build_hover_candidates(inst, cfg);
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("500 devices"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(kMaxCandidateWindowCells)),
                  std::string::npos)
            << what;
    }
}

}  // namespace
}  // namespace uavdc::core
