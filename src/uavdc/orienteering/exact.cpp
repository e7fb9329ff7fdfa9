#include "uavdc/orienteering/exact.hpp"

#include <limits>

#include "uavdc/util/check.hpp"

namespace uavdc::orienteering {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Solution solve_exact(const Problem& p) {
    p.validate();
    const std::size_t n = p.size();
    UAVDC_REQUIRE(n <= 22)
        << "solve_exact: instance too large for bitmask DP (n=" << n
        << ")";
    const std::size_t d = p.depot;
    const std::size_t nmask = std::size_t{1} << n;
    const std::size_t depot_bit = std::size_t{1} << d;

    // dp[mask][v] = min cost of a simple path from depot to v visiting
    // exactly the nodes in mask (depot in mask, v in mask).
    std::vector<std::vector<double>> dp(nmask, std::vector<double>(n, kInf));
    dp[depot_bit][d] = 0.0;

    double best_prize = 0.0;
    std::size_t best_mask = depot_bit;
    std::size_t best_end = d;

    // Prize per mask computed incrementally.
    std::vector<double> mask_prize(nmask, 0.0);
    for (std::size_t mask = 1; mask < nmask; ++mask) {
        const std::size_t low =
            static_cast<std::size_t>(__builtin_ctzll(mask));
        mask_prize[mask] = mask_prize[mask & (mask - 1)] + p.prizes[low];
    }

    for (std::size_t mask = depot_bit; mask < nmask; ++mask) {
        if (!(mask & depot_bit)) continue;
        for (std::size_t v = 0; v < n; ++v) {
            const double cost = dp[mask][v];
            if (cost == kInf) continue;
            // Close the tour: feasible subset?
            if (cost + p.graph.weight(v, d) <= p.budget + 1e-12 &&
                mask_prize[mask] > best_prize) {
                best_prize = mask_prize[mask];
                best_mask = mask;
                best_end = v;
            }
            // Extend.
            for (std::size_t u = 0; u < n; ++u) {
                if (mask & (std::size_t{1} << u)) continue;
                const double nc = cost + p.graph.weight(v, u);
                if (nc < dp[mask | (std::size_t{1} << u)][u] &&
                    nc <= p.budget) {
                    dp[mask | (std::size_t{1} << u)][u] = nc;
                }
            }
        }
    }

    // Reconstruct the best path by walking the DP backwards.
    std::vector<std::size_t> rev;
    {
        std::size_t mask = best_mask;
        std::size_t v = best_end;
        while (v != d || mask != depot_bit) {
            rev.push_back(v);
            const std::size_t pmask = mask & ~(std::size_t{1} << v);
            bool found = false;
            for (std::size_t u = 0; u < n; ++u) {
                if (!(pmask & (std::size_t{1} << u))) continue;
                if (dp[pmask][u] + p.graph.weight(u, v) <= dp[mask][v] + 1e-9 &&
                    dp[pmask][u] < kInf) {
                    mask = pmask;
                    v = u;
                    found = true;
                    break;
                }
            }
            UAVDC_CHECK(found) << "solve_exact: reconstruction failed";
        }
    }
    std::vector<std::size_t> tour{d};
    tour.insert(tour.end(), rev.rbegin(), rev.rend());
    return make_solution(p, std::move(tour));
}

}  // namespace uavdc::orienteering
