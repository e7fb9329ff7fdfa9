#include "uavdc/core/tour_builder.hpp"

#include <cmath>
#include <limits>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/graph/christofides.hpp"
#include "uavdc/graph/local_search.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/parallel_for.hpp"

namespace uavdc::core {

namespace {

// reoptimize() switches from the exact O(n^2)-per-sweep 2-opt/Or-opt on
// the Christofides tour to neighbor-list (k-nearest) sweeps at this many
// nodes (depot + stops); below it the exact polish is cheap and kept as-is.
constexpr std::size_t kNeighborReoptMinNodes = 64;
constexpr std::size_t kReoptNeighbors = 12;

/// Per-thread squared-distance scratch for the batched insertion scans
/// (rebuild_all fans cheapest_insertion2 out over pool threads). Grow-only.
thread_local std::vector<double> t_scan_dist2;

/// Relative slack on the squared-space prune tests. The bound compares
/// 2 * (d2_a + d2_b) - len^2 against thr^2; every operand carries a few ulp
/// of rounding, amplified by up to (d_a + d_b) / thr when the sums are far
/// apart, so a 1e-10 relative margin keeps the test conservative (a pruned
/// edge's exact computed delta is strictly above the threshold) with orders
/// of magnitude to spare over double rounding error.
constexpr double kSqrtPruneSlack = 1.0 + 1e-10;

}  // namespace

template <typename Threshold, typename Consider>
void TourBuilder::scan_edges(const geom::Vec2& p, Threshold&& bound,
                             Consider&& consider) const {
    const std::size_t n = stops_.size();
    UAVDC_DCHECK(n > 0 && edge_len_.size() == n + 1 &&
                 edge_len2_.size() == n + 1);
    std::vector<double>& d2 = t_scan_dist2;
    if (d2.size() < n) d2.resize(n);
    // d2[i] = d2(stops[i], p), batched. sqrt(d2[i]) is bit-identical to the
    // distances_to_point lane the pre-deferral scan used: same difference
    // expression in the same contraction-off kernel TU, and sqrt of the
    // identical squared value is correctly rounded wherever it runs.
    kernels::squared_distances_to_point(sx_.data(), sy_.data(), n, p.x, p.y,
                                        d2.data());
    // The depot distance keeps the exact pre-deferral expression (survivor
    // deltas must not change bits); its squared form feeds only the
    // conservative bound, where a ulp of drift vanishes in the slack.
    const double d_depot = geom::distance(depot_, p);
    const double d2_depot = geom::distance2(depot_, p);
    // Prune edge e iff squared space proves d_a + d_b > bound() + len_e,
    // i.e. the exact delta d_a + d_b - len_e is strictly above bound():
    //   (d_a + d_b)^2 = 2 * (d2_a + d2_b) - (d_a - d_b)^2
    //                >= 2 * (d2_a + d2_b) - len_e^2
    // by the reverse triangle inequality over the edge endpoints. A pruned
    // edge can never win the strict-< argmin (nor tie for it), so the scan
    // verdicts — position ties included — are bit-identical to considering
    // every edge. bound() <= 0 (or +inf) disables the test.
    const auto pruned = [&](std::size_t e, double s_sum) {
        const double thr = bound() + edge_len_[e];
        return thr > 0.0 &&
               2.0 * s_sum - edge_len2_[e] >= thr * thr * kSqrtPruneSlack;
    };
    // Edge depot -> stops[0].
    if (!pruned(0, d2_depot + d2[0])) {
        consider(std::size_t{0}, d_depot + std::sqrt(d2[0]) - edge_len_[0]);
    }
    // Edges stops[i] -> stops[i+1].
    // NOLINTBEGIN(uavdc-batched-distance): survivor resolution — the batched
    // squared kernel already ran above; only the few unpruned edges pay
    // these scalar sqrts, which must be sqrt-of-the-buffered-value exactly.
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (pruned(i + 1, d2[i] + d2[i + 1])) continue;
        consider(i + 1,
                 std::sqrt(d2[i]) + std::sqrt(d2[i + 1]) - edge_len_[i + 1]);
    }
    // NOLINTEND(uavdc-batched-distance)
    // Edge stops[n-1] -> depot.
    if (!pruned(n, d2[n - 1] + d2_depot)) {
        consider(n, std::sqrt(d2[n - 1]) + d_depot - edge_len_[n]);
    }
}

TourBuilder::Insertion TourBuilder::cheapest_insertion(
    const geom::Vec2& p) const {
    if (stops_.empty()) {
        return {0, 2.0 * geom::distance(depot_, p)};
    }
    Insertion best{0, std::numeric_limits<double>::infinity()};
    // Scan order is ascending position, so the strict < keeps the earliest
    // position among equal deltas. The running best is the prune bound: an
    // edge provably worse than it cannot win.
    scan_edges(
        p, [&] { return best.delta_m; },
        [&](std::size_t pos, double d) {
            if (d < best.delta_m) best = {pos, d};
        });
    return best;
}

TourBuilder::Insertion2 TourBuilder::cheapest_insertion2(
    const geom::Vec2& p) const {
    Insertion2 out;
    if (stops_.empty()) {
        out.best = {0, 2.0 * geom::distance(depot_, p)};
        return out;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Insertion best{0, kInf};
    Insertion second{0, kInf};
    // Ascending positions + strict < keep the earliest position among equal
    // deltas — for the runner-up too. The prune bound is the running
    // *runner-up*: an edge beating only the second must still be seen.
    scan_edges(
        p, [&] { return second.delta_m; },
        [&](std::size_t pos, double d) {
            if (d < best.delta_m) {
                second = best;
                best = {pos, d};
            } else if (d < second.delta_m) {
                second = {pos, d};
            }
        });
    out.best = best;
    if (second.delta_m < kInf) {
        out.second = second;
        out.has_second = true;
    }
    return out;
}

std::vector<double> TourBuilder::edge_lengths() const {
    const std::size_t n = stops_.size();
    if (n == 0) return {};
    std::vector<double> len(n + 1);
    // NOLINTBEGIN(uavdc-batched-distance): oracle recomputation — the
    // reference the maintained edge_len() span is checked against.
    len[0] = geom::distance(depot_, stops_[0]);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        len[i + 1] = geom::distance(stops_[i], stops_[i + 1]);
    }
    len[n] = geom::distance(stops_[n - 1], depot_);
    // NOLINTEND(uavdc-batched-distance)
    return len;
}

std::vector<double> TourBuilder::edge_lengths2() const {
    const std::size_t n = stops_.size();
    if (n == 0) return {};
    std::vector<double> len2(n + 1);
    // NOLINTBEGIN(uavdc-batched-distance): oracle recomputation — the
    // reference the maintained edge_len2() span is checked against.
    len2[0] = geom::distance2(depot_, stops_[0]);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        len2[i + 1] = geom::distance2(stops_[i], stops_[i + 1]);
    }
    len2[n] = geom::distance2(stops_[n - 1], depot_);
    // NOLINTEND(uavdc-batched-distance)
    return len2;
}

void TourBuilder::insert(const geom::Vec2& p, int key, const Insertion& ins) {
    UAVDC_REQUIRE(ins.position <= stops_.size())
        << "insert at " << ins.position << " of " << stops_.size();
    const std::size_t q = ins.position;
    const auto qd = static_cast<std::ptrdiff_t>(q);
    // Edge endpoints around the insertion point, read before mutation.
    const geom::Vec2 a = q == 0 ? depot_ : stops_[q - 1];
    const geom::Vec2 b = q == stops_.size() ? depot_ : stops_[q];
    stops_.insert(stops_.begin() + qd, p);
    keys_.insert(keys_.begin() + qd, key);
    sx_.insert(sx_.begin() + qd, p.x);
    sy_.insert(sy_.begin() + qd, p.y);
    // Maintain both mirrors with the exact expressions edge_lengths() /
    // edge_lengths2() would recompute: the removed edge a -> b becomes
    // a -> p and p -> b.
    if (edge_len_.empty()) {
        edge_len_ = {geom::distance(depot_, p), geom::distance(p, depot_)};
        edge_len2_ = {geom::distance2(depot_, p), geom::distance2(p, depot_)};
    } else {
        edge_len_[q] = geom::distance(a, p);
        edge_len_.insert(edge_len_.begin() + qd + 1, geom::distance(p, b));
        edge_len2_[q] = geom::distance2(a, p);
        edge_len2_.insert(edge_len2_.begin() + qd + 1, geom::distance2(p, b));
    }
    UAVDC_DCHECK(edge_len2_.size() == edge_len_.size());
    length_ += ins.delta_m;
}

double TourBuilder::removal_delta(std::size_t pos) const {
    UAVDC_REQUIRE(pos < stops_.size());
    const std::size_t n = stops_.size();
    const geom::Vec2& prev = pos == 0 ? depot_ : stops_[pos - 1];
    const geom::Vec2& next = pos + 1 == n ? depot_ : stops_[pos + 1];
    // The two incident edge lengths come from the maintained mirror instead
    // of fresh sqrts; same operand order as the fresh expressions (and
    // geom::distance is FP-symmetric), so the delta bits are unchanged.
    UAVDC_DCHECK(edge_len_[pos] == geom::distance(prev, stops_[pos]) &&
                 edge_len_[pos + 1] == geom::distance(stops_[pos], next))
        << "edge_len mirror drifted from the fresh recomputation";
    return geom::distance(prev, next) - edge_len_[pos] - edge_len_[pos + 1];
}

void TourBuilder::remove(std::size_t pos) {
    length_ += removal_delta(pos);
    const std::size_t n = stops_.size();
    const geom::Vec2 prev = pos == 0 ? depot_ : stops_[pos - 1];
    const geom::Vec2 next = pos + 1 == n ? depot_ : stops_[pos + 1];
    const auto posd = static_cast<std::ptrdiff_t>(pos);
    stops_.erase(stops_.begin() + posd);
    keys_.erase(keys_.begin() + posd);
    sx_.erase(sx_.begin() + posd);
    sy_.erase(sy_.begin() + posd);
    if (stops_.empty()) {
        edge_len_.clear();
        edge_len2_.clear();
    } else {
        // Edges pos and pos+1 merge into prev -> next at pos.
        edge_len_[pos] = geom::distance(prev, next);
        edge_len_.erase(edge_len_.begin() + posd + 1);
        edge_len2_[pos] = geom::distance2(prev, next);
        edge_len2_.erase(edge_len2_.begin() + posd + 1);
    }
}

double TourBuilder::reoptimize() {
    if (stops_.size() < 3) {
        length_ = recompute_length();
        return length_;
    }
    std::vector<geom::Vec2> pts;
    pts.reserve(stops_.size() + 1);
    pts.push_back(depot_);
    pts.insert(pts.end(), stops_.begin(), stops_.end());
    const graph::DenseGraph g = graph::DenseGraph::euclidean(pts);
    std::vector<std::size_t> order = graph::christofides_tour(g, 0);
    if (pts.size() < kNeighborReoptMinNodes) {
        graph::two_opt(g, order);
        graph::or_opt(g, order);
    } else {
        // Large tours: neighbor-list 2-opt / Or-opt (O(n * k) per sweep
        // instead of O(n^2)).
        const auto nb = graph::nearest_neighbor_lists(pts, kReoptNeighbors);
        graph::two_opt_neighbors(g, order, nb);
        graph::or_opt_neighbors(g, order, nb);
        graph::two_opt_neighbors(g, order, nb);
    }
    // order[0] == 0 (depot); rebuild stops/keys in the new order.
    UAVDC_CHECK(!order.empty() && order[0] == 0)
        << "christofides_tour must start at the depot node";
    std::vector<geom::Vec2> new_stops;
    std::vector<int> new_keys;
    new_stops.reserve(stops_.size());
    new_keys.reserve(keys_.size());
    for (std::size_t i = 1; i < order.size(); ++i) {
        new_stops.push_back(stops_[order[i] - 1]);
        new_keys.push_back(keys_[order[i] - 1]);
    }
    const double new_len = g.tour_length(order);
    // Keep the better of the old and re-optimised orders.
    if (new_len <= length_) {
        stops_ = std::move(new_stops);
        keys_ = std::move(new_keys);
        for (std::size_t i = 0; i < stops_.size(); ++i) {
            sx_[i] = stops_[i].x;
            sy_[i] = stops_[i].y;
        }
        edge_len_ = edge_lengths();
        edge_len2_ = edge_lengths2();
        length_ = new_len;
    } else {
        length_ = recompute_length();
    }
    return length_;
}

double TourBuilder::recompute_length() const {
    if (stops_.empty()) return 0.0;
    // NOLINTBEGIN(uavdc-batched-distance): drift-guard oracle; stays scalar.
    double len = geom::distance(depot_, stops_.front());
    for (std::size_t i = 0; i + 1 < stops_.size(); ++i) {
        len += geom::distance(stops_[i], stops_[i + 1]);
    }
    len += geom::distance(stops_.back(), depot_);
    // NOLINTEND(uavdc-batched-distance)
    return len;
}

namespace {

/// Fresh-scan ordering: strictly smaller delta wins; equal deltas resolve
/// to the smaller (earlier-scanned) position.
bool lex_less(const TourBuilder::Insertion& a,
              const TourBuilder::Insertion& b) {
    return a.delta_m < b.delta_m ||
           (a.delta_m == b.delta_m && a.position < b.position);
}

}  // namespace

InsertionCache::InsertionCache(const TourBuilder& tour,
                               std::span<const geom::Vec2> points,
                               std::pmr::memory_resource* mr)
    : tour_(&tour),
      ids_(mr),
      slot_(mr),
      xs_(mr),
      ys_(mr),
      cached_(mr),
      second_(mr),
      second_ok_(mr),
      n1_(mr),
      n2_(mr) {
    const std::size_t n = points.size();
    ids_.resize(n);
    slot_.resize(n);
    xs_.resize(n);
    ys_.resize(n);
    cached_.resize(n);
    second_.resize(n);
    second_ok_.assign(n, 0);
    n1_.resize(n);
    n2_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids_[i] = i;
        slot_[i] = static_cast<std::ptrdiff_t>(i);
        xs_[i] = points[i].x;
        ys_[i] = points[i].y;
    }
}

InsertionCache::InsertionCache(const TourBuilder& tour,
                               std::span<const double> xs,
                               std::span<const double> ys,
                               std::pmr::memory_resource* mr)
    : tour_(&tour),
      ids_(mr),
      slot_(mr),
      xs_(mr),
      ys_(mr),
      cached_(mr),
      second_(mr),
      second_ok_(mr),
      n1_(mr),
      n2_(mr) {
    UAVDC_DCHECK(xs.size() == ys.size());
    const std::size_t n = xs.size();
    ids_.resize(n);
    slot_.resize(n);
    xs_.assign(xs.begin(), xs.end());
    ys_.assign(ys.begin(), ys.end());
    cached_.resize(n);
    second_.resize(n);
    second_ok_.assign(n, 0);
    n1_.resize(n);
    n2_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids_[i] = i;
        slot_[i] = static_cast<std::ptrdiff_t>(i);
    }
}

void InsertionCache::deactivate(std::size_t i) {
    const std::ptrdiff_t k = slot_[i];
    if (k < 0) return;
    const auto kk = static_cast<std::size_t>(k);
    const std::size_t last = ids_.size() - 1;
    if (kk != last) {
        ids_[kk] = ids_[last];
        xs_[kk] = xs_[last];
        ys_[kk] = ys_[last];
        slot_[ids_[kk]] = k;
    }
    ids_.pop_back();
    xs_.pop_back();
    ys_.pop_back();
    slot_[i] = -1;
}

const TourBuilder::Insertion& InsertionCache::get(std::size_t i) const {
    UAVDC_DCHECK(!dirty_) << "InsertionCache::get on a dirty cache";
    UAVDC_DCHECK(i < cached_.size() && slot_[i] >= 0);
    return cached_[i];
}

void InsertionCache::on_insert(const TourBuilder::Insertion& ins,
                               std::pmr::vector<std::size_t>& changed) {
    UAVDC_DCHECK(!dirty_) << "InsertionCache::on_insert on a dirty cache";
    const std::size_t q = ins.position;
    const std::size_t n = tour_->size();  // post-insert stop count
    UAVDC_DCHECK(q < n);
    const geom::Vec2& p = tour_->stops()[q];
    const geom::Vec2& a = q == 0 ? tour_->depot() : tour_->stops()[q - 1];
    const geom::Vec2& b = q + 1 == n ? tour_->depot() : tour_->stops()[q + 1];
    // The two new edge lengths, already maintained by TourBuilder::insert
    // with the exact fresh-distance expressions.
    const auto edge_len = tour_->edge_len();
    UAVDC_DCHECK(edge_len.size() == n + 1);
    const double len_ap = edge_len[q];
    const double len_pb = edge_len[q + 1];
    const auto edge_len2 = tour_->edge_len2();
    const double len2_ap = edge_len2[q];
    const double len2_pb = edge_len2[q + 1];
    // Batched squared pass over the dense active pool: n1_[k]/n2_[k] hold
    // the squared-distance sums of candidate ids_[k] against the two new
    // edges (a -> p at position q, p -> b at position q+1), feeding the
    // same reverse-triangle lower bound as TourBuilder::scan_edges. Only
    // candidates a new edge might actually affect resolve exact deltas via
    // insertion_edge_deltas (n = 1), whose lanes keep the operand order of
    // the scalar expressions they replace (geom::distance is FP-symmetric,
    // so d(x, p) substitutes d(p, x) bit-for-bit).
    const std::size_t m = ids_.size();
    kernels::squared_insertion_lower_bounds(xs_.data(), ys_.data(), m, a, p, b,
                                            n1_.data(), n2_.data());
    const auto exact_deltas = [&](std::size_t k, double& e1d, double& e2d) {
        kernels::insertion_edge_deltas(&xs_[k], &ys_[k], 1, a, p, b, len_ap,
                                       len_pb, &e1d, &e2d);
    };
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = ids_[k];
        TourBuilder::Insertion& c = cached_[i];
        if (c.position == q) {
            // Straddlers always resolve exactly (their entry must change).
            double e1d = 0.0;
            double e2d = 0.0;
            exact_deltas(k, e1d, e2d);
            // Ties resolve to the smaller position, matching the strict-<
            // scan order of TourBuilder::cheapest_insertion.
            const TourBuilder::Insertion e1{q, e1d};
            const TourBuilder::Insertion e2{q + 1, e2d};
            const bool e1_wins = !lex_less(e2, e1);
            const TourBuilder::Insertion& nbest = e1_wins ? e1 : e2;
            const TourBuilder::Insertion& nother = e1_wins ? e2 : e1;
            // Straddler: the cached best edge is the one the insertion
            // removed. Every surviving old edge is lex->= the runner-up, so
            // the new best is the lex-min of the runner-up and the two new
            // edges; a full rescan is needed only when the runner-up is
            // unknown (consumed by an earlier straddle).
            if (second_ok_[i] == 0) {
                const auto r = tour_->cheapest_insertion2(point(k));
                c = r.best;
                second_[i] = r.second;
                second_ok_[i] = r.has_second ? 1 : 0;
            } else {
                TourBuilder::Insertion s = second_[i];
                if (s.position > q) s.position += 1;
                if (lex_less(nbest, s)) {
                    c = nbest;
                    second_[i] = lex_less(s, nother) ? s : nother;
                } else {
                    // The runner-up took over; the true runner-up may now
                    // be an edge the cache never tracked.
                    c = s;
                    second_ok_[i] = 0;
                }
            }
            changed.push_back(i);
            continue;
        }
        if (c.position > q) c.position += 1;
        if (second_ok_[i] != 0) {
            if (second_[i].position == q) {
                // The runner-up edge was the one removed.
                second_ok_[i] = 0;
            } else if (second_[i].position > q) {
                second_[i].position += 1;
            }
        }
        // Prune: existing edges kept their deltas, so a new edge can touch
        // this entry only by beating (or tying) the tightest tracked delta —
        // the runner-up when it is known, else the best. An edge whose
        // squared lower bound proves its delta strictly above that threshold
        // can neither displace the best nor become the runner-up; when both
        // new edges are pruned the entry is untouched and pays no sqrt.
        const double t = second_ok_[i] != 0 ? second_[i].delta_m : c.delta_m;
        const double thr1 = t + len_ap;
        const double thr2 = t + len_pb;
        if ((thr1 > 0.0 &&
             2.0 * n1_[k] - len2_ap >= thr1 * thr1 * kSqrtPruneSlack) &&
            (thr2 > 0.0 &&
             2.0 * n2_[k] - len2_pb >= thr2 * thr2 * kSqrtPruneSlack)) {
            continue;
        }
        double e1d = 0.0;
        double e2d = 0.0;
        exact_deltas(k, e1d, e2d);
        const TourBuilder::Insertion e1{q, e1d};
        const TourBuilder::Insertion e2{q + 1, e2d};
        const bool e1_wins = !lex_less(e2, e1);
        const TourBuilder::Insertion& nbest = e1_wins ? e1 : e2;
        const TourBuilder::Insertion& nother = e1_wins ? e2 : e1;
        if (lex_less(nbest, c)) {
            // A new edge displaces the best; the old best becomes the
            // runner-up bound for every surviving old edge, so the exact
            // runner-up is the lex-min of it and the losing new edge —
            // this holds even when the stored runner-up was unknown.
            second_[i] = lex_less(c, nother) ? c : nother;
            second_ok_[i] = 1;
            c = nbest;
            changed.push_back(i);
        } else if (second_ok_[i] != 0 && lex_less(nbest, second_[i])) {
            second_[i] = nbest;
        }
    }
}

void InsertionCache::rebuild_all(bool parallel) {
    util::maybe_parallel_for(
        parallel, 0, ids_.size(),
        [&](std::size_t k) {
            const std::size_t i = ids_[k];
            const auto r = tour_->cheapest_insertion2(point(k));
            cached_[i] = r.best;
            second_[i] = r.second;
            second_ok_[i] = r.has_second ? 1 : 0;
        },
        64);
    dirty_ = false;
}

}  // namespace uavdc::core
