#include "uavdc/orienteering/insertion_cache.hpp"

#include <algorithm>

#include "uavdc/util/check.hpp"

namespace uavdc::orienteering {

namespace {

/// (delta, position) lex order: the scan keeps the first of equal deltas.
bool before(const graph::Insertion& a, const graph::Insertion& b) {
    return a.delta < b.delta ||
           (a.delta == b.delta && a.position < b.position);
}

}  // namespace

InsertionCache::InsertionCache(const Problem& p)
    : p_(&p), entries_(p.size()) {
    live_.reserve(p.size());
    edge_w_.reserve(p.size());
    for (std::size_t v = 0; v < p.size(); ++v) {
        if (p.prizes[v] > 0.0) by_prize_.push_back(v);
    }
    std::stable_sort(by_prize_.begin(), by_prize_.end(),
                     [&p](std::size_t a, std::size_t b) {
                         return p.prizes[a] > p.prizes[b];
                     });
}

void InsertionCache::scan(const std::vector<std::size_t>& tour,
                          std::size_t v) {
    Entry& e = entries_[v];
    const std::size_t n = tour.size();
    if (n <= 1) {
        e = {graph::cheapest_insertion(p_->graph, tour, v), {0, 0.0}, false};
        return;
    }
    // graph::cheapest_insertion's loop, keeping the runner-up as well.
    const auto row = p_->graph.row(v);
    double wu = row[tour[0]];
    e.second_ok = false;
    for (std::size_t i = 0; i < n; ++i) {
        const double wx = row[tour[i + 1 == n ? 0 : i + 1]];
        const graph::Insertion c{i + 1, wu + wx - edge_w_[i]};
        wu = wx;
        if (i == 0 || c.delta < e.best.delta) {
            if (i > 0) {
                e.second = e.best;
                e.second_ok = true;
            }
            e.best = c;
        } else if (!e.second_ok || c.delta < e.second.delta) {
            e.second = c;
            e.second_ok = true;
        }
    }
}

void InsertionCache::rebuild(const std::vector<std::size_t>& tour,
                             const std::vector<bool>& in) {
    const std::size_t n = tour.size();
    edge_w_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        edge_w_.push_back(
            p_->graph.weight(tour[i], tour[i + 1 == n ? 0 : i + 1]));
    }
    live_.clear();
    for (std::size_t v = 0; v < entries_.size(); ++v) {
        if (in[v] || p_->prizes[v] <= 0.0) continue;
        live_.push_back(v);
        scan(tour, v);
    }
}

void InsertionCache::on_insert(const std::vector<std::size_t>& tour,
                               std::size_t q, const std::vector<bool>& in) {
    const std::size_t m = tour.size();
    if (m <= 3) {
        rebuild(tour, in);
        return;
    }
    UAVDC_DCHECK(q >= 1 && q < m);
    const graph::DenseGraph& g = p_->graph;
    // Edge (a, b) at position q became (a, x) at q and (x, b) at q + 1.
    const std::size_t a = tour[q - 1];
    const std::size_t x = tour[q];
    const std::size_t b = tour[(q + 1) % m];
    const double wax = g.weight(a, x);
    const double wxb = g.weight(x, b);
    edge_w_[q - 1] = wax;
    edge_w_.insert(edge_w_.begin() + static_cast<std::ptrdiff_t>(q), wxb);
    const auto it = std::find(live_.begin(), live_.end(), x);
    if (it != live_.end()) {
        *it = live_.back();
        live_.pop_back();
    }
    const auto row_a = g.row(a);
    const auto row_x = g.row(x);
    const auto row_b = g.row(b);
    for (const std::size_t v : live_) {
        Entry& e = entries_[v];
        if (e.best.position == q) {
            if (!e.second_ok) {
                scan(tour, v);
                continue;
            }
            e.best = e.second;
            e.second_ok = false;
        } else if (e.second_ok && e.second.position == q) {
            e.second_ok = false;
        }
        // Now best is the least surviving edge (and second, if kept, the
        // next); shift them past the new node, then offer the new edges.
        if (e.best.position > q) ++e.best.position;
        if (e.second.position > q) ++e.second.position;
        const double wxv = row_x[v];
        const graph::Insertion c1{q, row_a[v] + wxv - wax};
        const graph::Insertion c2{q + 1, wxv + row_b[v] - wxb};
        for (const graph::Insertion& c : {c1, c2}) {
            if (before(c, e.best)) {
                e.second = e.best;
                e.second_ok = true;
                e.best = c;
            } else if (e.second_ok && before(c, e.second)) {
                e.second = c;
            }
        }
    }
}

}  // namespace uavdc::orienteering
