// The re-tour kernels (Prim over the unvisited nodes, the heap-driven
// greedy matching, the grid neighbour lists) and TourBuilder::reoptimize()
// against the frozen dense copies in christofides_oracle.hpp, byte for byte,
// on tie-heavy and paper-scale point sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "christofides_oracle.hpp"
#include "uavdc/core/tour_builder.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/graph/local_search.hpp"
#include "uavdc/graph/matching.hpp"
#include "uavdc/graph/mst.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc {
namespace {

namespace oracle = testing::christofides_oracle;
using geom::Vec2;
using graph::DenseGraph;

enum class Family { kGrid, kGridTenths, kCoincident, kCollinear, kPaper };

const Family kFamilies[] = {Family::kGrid, Family::kGridTenths,
                            Family::kCoincident, Family::kCollinear,
                            Family::kPaper};

std::string name(Family f) {
    switch (f) {
        case Family::kGrid: return "grid";
        case Family::kGridTenths: return "grid-tenths";
        case Family::kCoincident: return "coincident";
        case Family::kCollinear: return "collinear";
        case Family::kPaper: return "paper";
    }
    return "?";
}

/// n points of family f. The grids are small for n, so most rows hold many
/// equal weights; tenths are not exact in binary, so equal lattice gaps can
/// round to distances an ulp apart.
std::vector<Vec2> points(Family f, std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<Vec2> pts;
    const auto side = static_cast<std::int64_t>(
        std::max<std::size_t>(2, n / 8));
    const auto lattice = [&](double step) {
        return Vec2{step * static_cast<double>(rng.uniform_int(0, side)),
                    step * static_cast<double>(rng.uniform_int(0, side))};
    };
    if (f == Family::kPaper) {
        workload::GeneratorConfig cfg = workload::paper_default();
        cfg.num_devices = static_cast<int>(n);
        for (const auto& d : workload::generate(cfg, seed).devices) {
            pts.push_back(d.pos);
        }
        return pts;
    }
    for (std::size_t i = 0; i < n; ++i) {
        switch (f) {
            case Family::kGrid: pts.push_back(lattice(1.0)); break;
            case Family::kGridTenths: pts.push_back(lattice(0.1)); break;
            case Family::kCoincident:
                if (i > 0 && rng.bernoulli(0.5)) {
                    pts.push_back(pts[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
                } else {
                    pts.push_back(lattice(0.3));
                }
                break;
            case Family::kCollinear: {
                const double t =
                    0.5 * static_cast<double>(rng.uniform_int(0, 2 * side));
                pts.push_back({t, 3.0 - 0.7 * t});
                break;
            }
            case Family::kPaper: break;
        }
    }
    return pts;
}

// Sizes on both sides of the exact matching limit (18 odd nodes) and of
// reoptimize()'s neighbour-list switch (64 nodes).
const std::size_t kSizes[] = {2, 3, 5, 12, 19, 24, 40, 63, 64, 65, 90, 130};
static_assert(graph::kExactMatchingLimit ==
                  oracle::ChristofidesConfig{}.exact_matching_limit,
              "the served and frozen Christofides match at the same limit");

void expect_same_edges(const std::vector<graph::Edge>& got,
                       const std::vector<graph::Edge>& want,
                       const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].u, want[e].u) << what << " edge " << e;
        EXPECT_EQ(got[e].v, want[e].v) << what << " edge " << e;
        EXPECT_EQ(got[e].w, want[e].w) << what << " edge " << e;
    }
}

TEST(RetourOracle, PrimMatchesDenseScan) {
    for (const Family f : kFamilies) {
        for (const std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const auto pts = points(f, n, seed);
                const DenseGraph g = DenseGraph::euclidean(pts);
                expect_same_edges(graph::mst_prim(g), oracle::mst_prim(g),
                                  name(f) + " n=" + std::to_string(n) +
                                      " seed=" + std::to_string(seed));
            }
        }
    }
}

TEST(RetourOracle, PrimStopsAtUnreachableNodes) {
    // Node 2 hangs off +inf edges; both stop before it, after one edge.
    DenseGraph g(3);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    g.set_weight(0, 1, 1.0);
    g.set_weight(0, 2, kInf);
    g.set_weight(1, 2, kInf);
    expect_same_edges(graph::mst_prim(g), oracle::mst_prim(g), "inf");
    EXPECT_EQ(graph::mst_prim(g).size(), 1u);
}

TEST(RetourOracle, GreedyMatchingMatchesStableSort) {
    for (const Family f : kFamilies) {
        for (const std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const auto pts = points(f, n, seed);
                const DenseGraph g = DenseGraph::euclidean(pts);
                // All nodes, every other node reversed, and the MST's odd
                // set as Christofides passes it.
                std::vector<std::vector<std::size_t>> sets(3);
                for (std::size_t v = 0; v + (n % 2) < n; ++v) {
                    sets[0].push_back(v);
                }
                for (std::size_t v = n; v-- > 0;) {
                    if (v % 2 == 0) sets[1].push_back(v);
                }
                if (sets[1].size() % 2 != 0) sets[1].pop_back();
                const auto deg = graph::degrees(n, graph::mst_prim(g));
                for (std::size_t v = 0; v < n; ++v) {
                    if (deg[v] % 2 != 0) sets[2].push_back(v);
                }
                for (const auto& nodes : sets) {
                    EXPECT_EQ(graph::greedy_min_matching(g, nodes),
                              oracle::greedy_min_matching(g, nodes))
                        << name(f) << " n=" << n << " seed=" << seed
                        << " k=" << nodes.size();
                }
            }
        }
    }
}

TEST(RetourOracle, GreedyMatchingTakesEqualWeightsInIndexOrder) {
    // Unit square: (0,1)/(2,3) and (0,2)/(1,3) tie at weight 1; the (w, a, b)
    // rule takes (0, 1) first, which forces (2, 3). Reversing the node list
    // swaps the positions, so the rule picks by position, not by node id.
    const std::vector<Vec2> pts{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    const DenseGraph g = DenseGraph::euclidean(pts);
    EXPECT_EQ(graph::greedy_min_matching(g, {0, 1, 2, 3}),
              (graph::Matching{{0, 1}, {2, 3}}));
    EXPECT_EQ(graph::greedy_min_matching(g, {3, 2, 1, 0}),
              (graph::Matching{{3, 2}, {1, 0}}));
    EXPECT_EQ(graph::greedy_min_matching(g, {0, 2, 1, 3}),
              (graph::Matching{{0, 2}, {1, 3}}));
}

TEST(RetourOracle, NeighborListsMatchDenseLists) {
    for (const Family f : kFamilies) {
        for (const std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const auto pts = points(f, n, seed);
                const DenseGraph g = DenseGraph::euclidean(pts);
                for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                            std::size_t{12}, n + 1}) {
                    EXPECT_EQ(graph::nearest_neighbor_lists(pts, k),
                              oracle::nearest_neighbor_lists(g, k))
                        << name(f) << " n=" << n << " seed=" << seed
                        << " k=" << k;
                }
            }
        }
    }
}

TEST(RetourOracle, NeighborListsRingBoundCoversCellRounding) {
    // 24 points over x in [0, 4] make cells of 1/3. Point 1 sits a rounding
    // error below cell 9's edge yet lands in cell 9, and point 0 lands in
    // cell 6 though it lies 0.6666666666666665 away, a hair under the ring-2
    // bound 2/3. Point 2 (cell 10) lies exactly as far, so a stop bound
    // without its slack ends row 1 after ring 2 and lists point 2, not the
    // lower-indexed point 0.
    std::vector<Vec2> pts{{2.333333333333333, 0.0},
                          {2.9999999999999996, 0.0},
                          {3.666666666666666, 0.0}};
    while (pts.size() < 13) pts.push_back({0.0, 0.0});
    while (pts.size() < 24) pts.push_back({4.0, 0.0});
    const auto nb = graph::nearest_neighbor_lists(pts, 1);
    EXPECT_EQ(nb, oracle::nearest_neighbor_lists(DenseGraph::euclidean(pts), 1));
    EXPECT_EQ(nb[1], std::vector<std::size_t>{0});
}

TEST(RetourOracle, ChristofidesMatchesFrozenTour) {
    oracle::ChristofidesConfig bare;
    bare.improve_two_opt = false;
    bare.improve_or_opt = false;
    for (const Family f : kFamilies) {
        for (const std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                const auto pts = points(f, n, seed);
                const DenseGraph g = DenseGraph::euclidean(pts);
                auto tour = graph::christofides_tour(g, 0);
                EXPECT_EQ(tour, oracle::christofides_tour(g, 0, bare))
                    << name(f) << " n=" << n << " seed=" << seed << " bare";
                graph::two_opt(g, tour);
                graph::or_opt(g, tour);
                EXPECT_EQ(tour, oracle::christofides_tour(g, 0))
                    << name(f) << " n=" << n << " seed=" << seed;
            }
        }
    }
}

/// A tour over `stops` grown by cheapest insertion, as the planners grow
/// theirs.
core::TourBuilder grown_tour(const std::vector<Vec2>& stops) {
    core::TourBuilder t({0.0, 0.0});
    for (std::size_t i = 0; i < stops.size(); ++i) {
        t.insert(stops[i], static_cast<int>(i),
                 t.cheapest_insertion(stops[i]));
    }
    return t;
}

void expect_reoptimize_matches(core::TourBuilder t, const std::string& what) {
    const oracle::Reopt want = oracle::reoptimize(t);
    const double got = t.reoptimize();
    EXPECT_EQ(t.keys(), want.keys) << what;
    ASSERT_EQ(t.stops().size(), want.stops.size()) << what;
    for (std::size_t i = 0; i < want.stops.size(); ++i) {
        EXPECT_EQ(t.stops()[i].x, want.stops[i].x) << what << " stop " << i;
        EXPECT_EQ(t.stops()[i].y, want.stops[i].y) << what << " stop " << i;
    }
    EXPECT_EQ(got, want.length) << what;
    EXPECT_EQ(t.length(), want.length) << what;
}

TEST(RetourOracle, ReoptimizeMatchesFrozenOnTieHeavyTours) {
    for (const Family f : kFamilies) {
        for (const std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                expect_reoptimize_matches(
                    grown_tour(points(f, n, seed)),
                    name(f) + " n=" + std::to_string(n) +
                        " seed=" + std::to_string(seed));
            }
        }
    }
}

TEST(RetourOracle, ReoptimizeMatchesFrozenOnColdPaperTours) {
    // cold_paper serves 100-500 device paper instances; the benchmark
    // planner's first re-tour runs over every device.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::size_t n = 100 + 40 * (seed - 1);
        expect_reoptimize_matches(grown_tour(points(Family::kPaper, n, seed)),
                                  "paper n=" + std::to_string(n));
    }
}

}  // namespace
}  // namespace uavdc
