#include "uavdc/graph/matching.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "uavdc/util/check.hpp"

namespace uavdc::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Candidate-list length per node in greedy_min_matching's first phase.
constexpr std::size_t kGreedyCandidates = 8;

void require_even(const std::vector<std::size_t>& nodes) {
    UAVDC_REQUIRE(nodes.size() % 2 == 0)
        << "matching: node set must have even cardinality, got "
        << nodes.size();
}

/// The masks the exact matching DP reaches from the full set of k nodes,
/// and its transitions between them. This depends on k alone, so it is
/// built once per k and shared read-only by every thread.
///
/// dp[mask] = min cost to perfectly match exactly the nodes in `mask`; the
/// transition matches mask's lowest set bit i to each set bit j above it in
/// ascending order, so each mask has a unique decomposition to reconstruct.
/// From the full set that recursion reaches only the masks whose r cleared
/// bits above the lowest set bit m satisfy r <= m: Fibonacci(k + 1) states
/// counting the empty mask (4,181 at k = 18, against 2^17 even masks) and
/// 30,510 transitions (1.05M over every even mask).
struct MaskGraph {
    /// State masks in post order: a state's submasks come before it, the
    /// empty mask is state 0 and the full set is the last state.
    std::vector<std::uint32_t> mask;
    /// State s's transitions are edge[first[s] .. first[s + 1]).
    std::vector<std::uint32_t> first;
    /// One transition: (submask state << 5) | j, in ascending j.
    std::vector<std::uint32_t> edge;
};

constexpr unsigned kEdgeBitShift = 5;  // j < 22 fits the low five bits
constexpr std::uint32_t kEdgeBitMask = (1u << kEdgeBitShift) - 1;

MaskGraph build_mask_graph(std::size_t k) {
    MaskGraph mg;
    mg.mask = {0};
    mg.first = {0, 0};
    std::unordered_map<std::uint32_t, std::uint32_t> state_of;
    const auto visit = [&](auto&& self, std::uint32_t mask) -> std::uint32_t {
        if (mask == 0) return 0;
        if (const auto it = state_of.find(mask); it != state_of.end()) {
            return it->second;
        }
        const std::uint32_t rest = mask & (mask - 1);
        std::vector<std::uint32_t> out;
        for (std::uint32_t bits = rest; bits != 0; bits &= bits - 1) {
            const auto j = static_cast<std::uint32_t>(__builtin_ctz(bits));
            const std::uint32_t sub = self(self, rest ^ (1u << j));
            out.push_back((sub << kEdgeBitShift) | j);
        }
        const auto s = static_cast<std::uint32_t>(mg.mask.size());
        mg.mask.push_back(mask);
        mg.edge.insert(mg.edge.end(), out.begin(), out.end());
        mg.first.push_back(static_cast<std::uint32_t>(mg.edge.size()));
        state_of.emplace(mask, s);
        return s;
    };
    (void)visit(visit, (std::uint32_t{1} << k) - 1);
    return mg;
}

/// The shared MaskGraph for k <= 22, built on first use.
const MaskGraph& mask_graph(std::size_t k) {
    static std::array<std::once_flag, 23> once;
    static std::array<MaskGraph, 23> graphs;
    std::call_once(once[k], [k] { graphs[k] = build_mask_graph(k); });
    return graphs[k];
}

/// Per-thread DP scratch, sized by the reachable-state count and grow-only,
/// so a warm thread allocates nothing per call.
struct MatchingScratch {
    std::vector<double> w;  // w[i * k + j] = g.weight(nodes[i], nodes[j])
    std::vector<double> dp;
    std::vector<std::int32_t> choice;  // edge taken by the state, or -1
};

thread_local MatchingScratch t_matching;

}  // namespace

Matching exact_min_matching(const DenseGraph& g,
                            std::vector<std::size_t> nodes) {
    require_even(nodes);
    const std::size_t k = nodes.size();
    Matching result;
    if (k == 0) return result;
    UAVDC_REQUIRE(k <= 22)
        << "exact_min_matching: too many nodes for bitmask DP (k=" << k
        << ")";
    const MaskGraph& mg = mask_graph(k);
    MatchingScratch& scratch = t_matching;
    scratch.w.resize(k * k);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            scratch.w[i * k + j] = g.weight(nodes[i], nodes[j]);
        }
    }
    const std::size_t states = mg.mask.size();
    if (scratch.dp.size() < states) {
        scratch.dp.resize(states);
        scratch.choice.resize(states);
    }
    double* dp = scratch.dp.data();
    std::int32_t* choice = scratch.choice.data();
    dp[0] = 0.0;
    for (std::size_t s = 1; s < states; ++s) {
        const auto i = static_cast<std::size_t>(__builtin_ctz(mg.mask[s]));
        const double* wi = scratch.w.data() + i * k;
        double best = kInf;
        std::int32_t pick = -1;
        for (std::uint32_t e = mg.first[s]; e < mg.first[s + 1]; ++e) {
            const double sub = dp[mg.edge[e] >> kEdgeBitShift];
            if (sub == kInf) continue;
            const double cand = sub + wi[mg.edge[e] & kEdgeBitMask];
            if (cand < best) {
                best = cand;
                pick = static_cast<std::int32_t>(e);
            }
        }
        dp[s] = best;
        choice[s] = pick;
    }
    // A choice leads to a submask whose cost is below +inf, which has a
    // choice of its own, so checking the full set covers the reconstruction.
    std::size_t s = states - 1;
    UAVDC_REQUIRE(choice[s] >= 0)
        << "exact_min_matching: no perfect matching of the k=" << k
        << " nodes weighs less than +inf";
    result.reserve(k / 2);
    while (s != 0) {
        const std::uint32_t e = mg.edge[static_cast<std::size_t>(choice[s])];
        const auto i = static_cast<std::size_t>(__builtin_ctz(mg.mask[s]));
        result.emplace_back(nodes[i], nodes[e & kEdgeBitMask]);
        s = e >> kEdgeBitShift;
    }
    return result;
}

Matching greedy_min_matching(const DenseGraph& g,
                             std::vector<std::size_t> nodes) {
    require_even(nodes);
    const std::size_t k = nodes.size();
    Matching result;
    if (k == 0) return result;

    // Greedy phase: take pairs in ascending (w, a, b) order (a < b are
    // positions in `nodes`) whenever both ends are free, the order a stable
    // sort of all pairs by weight gives. A heap holds one entry per free
    // node: its best free partner, drawn from a short candidate list sorted
    // by (w, partner) and refilled from the node's row when every listed
    // partner is taken. A popped entry whose partner is taken is replaced
    // by the node's next candidate; one whose ends are both free is the
    // least pair left, because a node's best pair only worsens as
    // partners go.
    const std::size_t cap = std::min(kGreedyCandidates, k - 1);
    std::vector<std::size_t> partner(k, k);  // k = free
    std::vector<std::size_t> cand(k * cap);
    std::vector<double> cand_w(k * cap);
    std::vector<std::size_t> head(k, 0);
    std::vector<std::size_t> len(k, 0);
    const auto refill = [&](std::size_t a) {
        const auto row = g.row(nodes[a]);
        std::size_t* list = cand.data() + a * cap;
        double* lw = cand_w.data() + a * cap;
        std::size_t n = 0;
        // Rows are read in ascending b, so a strict weight comparison keeps
        // (w, b) order.
        for (std::size_t b = 0; b < k; ++b) {
            if (b == a || partner[b] != k) continue;
            const double w = row[nodes[b]];
            if (n == cap && !(w < lw[cap - 1])) continue;
            std::size_t t = n < cap ? n++ : cap - 1;
            for (; t > 0 && w < lw[t - 1]; --t) {
                lw[t] = lw[t - 1];
                list[t] = list[t - 1];
            }
            lw[t] = w;
            list[t] = b;
        }
        head[a] = 0;
        len[a] = n;
    };
    struct Entry {
        double w;
        std::size_t lo;
        std::size_t hi;
        std::size_t owner;
    };
    const auto later = [](const Entry& x, const Entry& y) {
        if (x.w != y.w) return y.w < x.w;
        if (x.lo != y.lo) return y.lo < x.lo;
        return y.hi < x.hi;
    };
    std::vector<Entry> heap;
    heap.reserve(k);
    // Pushes a's best free partner, if it has one.
    const auto push_best = [&](std::size_t a) {
        while (head[a] < len[a] && partner[cand[a * cap + head[a]]] != k) {
            ++head[a];
        }
        if (head[a] == len[a]) {
            refill(a);
            if (len[a] == 0) return;
        }
        const std::size_t b = cand[a * cap + head[a]];
        heap.push_back({cand_w[a * cap + head[a]], std::min(a, b),
                        std::max(a, b), a});
        std::push_heap(heap.begin(), heap.end(), later);
    };
    for (std::size_t a = 0; a < k; ++a) push_best(a);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const Entry e = heap.back();
        heap.pop_back();
        const std::size_t a = e.owner;
        if (partner[a] != k) continue;
        const std::size_t b = a == e.lo ? e.hi : e.lo;
        if (partner[b] != k) {
            push_best(a);
            continue;
        }
        partner[a] = b;
        partner[b] = a;
    }

    // 2-swap improvement: for matched pairs (a,b), (c,d) try (a,c)+(b,d) and
    // (a,d)+(b,c). Repeat until no improving swap exists.
    std::vector<std::size_t> reps;  // one representative per pair (a < partner)
    for (std::size_t a = 0; a < k; ++a) {
        if (a < partner[a]) reps.push_back(a);
    }
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t x = 0; x < reps.size(); ++x) {
            for (std::size_t y = x + 1; y < reps.size(); ++y) {
                const std::size_t a = reps[x], b = partner[a];
                const std::size_t c = reps[y], d = partner[c];
                const double cur =
                    g.weight(nodes[a], nodes[b]) + g.weight(nodes[c], nodes[d]);
                const double alt1 =
                    g.weight(nodes[a], nodes[c]) + g.weight(nodes[b], nodes[d]);
                const double alt2 =
                    g.weight(nodes[a], nodes[d]) + g.weight(nodes[b], nodes[c]);
                if (alt1 < cur - 1e-12 && alt1 <= alt2) {
                    partner[a] = c;
                    partner[c] = a;
                    partner[b] = d;
                    partner[d] = b;
                    improved = true;
                } else if (alt2 < cur - 1e-12) {
                    partner[a] = d;
                    partner[d] = a;
                    partner[b] = c;
                    partner[c] = b;
                    improved = true;
                }
                if (improved) break;
            }
            if (improved) break;
        }
        if (improved) {
            reps.clear();
            for (std::size_t a = 0; a < k; ++a) {
                if (a < partner[a]) reps.push_back(a);
            }
        }
    }

    for (std::size_t a = 0; a < k; ++a) {
        if (a < partner[a]) result.emplace_back(nodes[a], nodes[partner[a]]);
    }
    return result;
}

Matching min_weight_matching(const DenseGraph& g,
                             std::vector<std::size_t> nodes,
                             std::size_t exact_limit) {
    require_even(nodes);
    if (nodes.size() <= std::min<std::size_t>(exact_limit, 22)) {
        return exact_min_matching(g, std::move(nodes));
    }
    return greedy_min_matching(g, std::move(nodes));
}

double matching_weight(const DenseGraph& g, const Matching& m) {
    double s = 0.0;
    for (const auto& [u, v] : m) s += g.weight(u, v);
    return s;
}

}  // namespace uavdc::graph
