#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "uavdc/core/hover_candidates.hpp"

namespace uavdc::core {

/// Names of the greedy planners' former scoring engines. There is one
/// engine: Algorithms 2 and 3 run the lazy-greedy loop
/// (core/lazy_greedy.hpp) over each planner's gain policy, and the
/// benchmark runs its cached prune loop. The from-scratch rescans live on
/// only as the test oracle (tests/greedy_oracle.hpp).
///
/// Nothing in the library reads these values. They are kept because the
/// perfbench trace's engine crossover sets `PlannerOptions::scoring` to
/// each of them and reports `core.plan_ms.<planner>.<to_string(engine)>`,
/// so every crossover row, `reference` included, is an A/A replicate of
/// the one engine and shows the crossover's run-to-run noise. No wire
/// value or CLI flag selects them.
enum class ScoringEngine {
    kIncremental,      ///< the one engine (crossover row `incremental`)
    kReference,        ///< runs the one engine (crossover row `reference`)
    kIncrementalFast,  ///< runs the one engine (row `incremental-fast`)
};

[[nodiscard]] std::string to_string(ScoringEngine engine);

/// CSR inverted index mapping each device to the hover candidates whose
/// coverage set contains it. Covering a device then touches only
/// `covering(device)` — the candidates that actually lose residual gain —
/// instead of every candidate.
class InvertedCoverageIndex {
  public:
    InvertedCoverageIndex(const HoverCandidateSet& cands,
                          std::size_t num_devices);

    [[nodiscard]] std::size_t num_devices() const {
        return starts_.empty() ? 0 : starts_.size() - 1;
    }

    /// Candidate indices covering `device`, in ascending order.
    [[nodiscard]] std::span<const std::int32_t> covering(
        std::size_t device) const {
        return {cand_.data() + starts_[device],
                starts_[device + 1] - starts_[device]};
    }

  private:
    std::vector<std::size_t> starts_;  // num_devices + 1 offsets into cand_
    std::vector<std::int32_t> cand_;
};

/// Lazy-greedy (Minoux-style) argmax over candidate scores.
///
/// Entries carry a per-candidate version; `update()` bumps the version and
/// pushes a fresh entry, so stale heap entries are recognised and discarded
/// on pop. The heap orders by (key desc, index asc) — the same deterministic
/// lexicographic rule the oracle's ascending argmax scan applies — so serial
/// and parallel planner paths pick identical candidates.
class LazyGreedyQueue {
  public:
    explicit LazyGreedyQueue(std::size_t n)
        : key_(n, 0.0), version_(n, 0), active_(n, 1) {}

    /// Set candidate `i`'s key (exact score or upper bound) and enqueue it.
    void update(std::size_t i, double key) {
        key_[i] = key;
        ++version_[i];
        heap_.push(Entry{key, i, version_[i]});
    }

    /// Permanently retire candidate `i` (selected, or provably never
    /// selectable again). Its heap entries become stale.
    void deactivate(std::size_t i) {
        active_[i] = 0;
        ++version_[i];
    }

    [[nodiscard]] bool active(std::size_t i) const { return active_[i] != 0; }
    [[nodiscard]] double key(std::size_t i) const { return key_[i]; }

    /// Drop every queued entry (keys and versions are kept); callers re-add
    /// live candidates with `update()` after a global invalidation.
    void clear() { heap_ = {}; }

    /// clear() + update() for every (index, key) pair, as one O(n) heapify
    /// instead of n O(log n) pushes — the post-re-tour path where every
    /// live key changes at once.
    void rebuild(std::span<const std::pair<std::size_t, double>> items) {
        std::vector<Entry> entries;
        entries.reserve(items.size());
        for (const auto& [i, key] : items) {
            key_[i] = key;
            ++version_[i];
            entries.push_back(Entry{key, i, version_[i]});
        }
        heap_ = decltype(heap_)(Less{}, std::move(entries));
    }

    struct Pick {
        std::size_t index{0};
        double exact{0.0};
        bool found{false};
    };

    /// Lazy argmax. Pops entries in (key desc, index asc) order and calls
    /// `eval(i) -> {exact_score, selectable}` on each until the top key can
    /// no longer lexicographically beat the best evaluated candidate. Keys
    /// must bound the exact scores from above.
    ///
    /// An evaluated, selectable candidate that is not picked is re-enqueued
    /// under its current key. An unselectable one is dropped until its next
    /// `update()`, which is valid only while unselectability is monotone
    /// between two updates (energy/deadline feasibility between re-keys:
    /// Alg. 2's exact-score keys and Alg. 3's upper bounds).
    template <typename Eval>
    Pick pop_best(Eval&& eval) {
        Pick best;
        evaluated_.clear();
        while (!heap_.empty()) {
            const Entry top = heap_.top();
            if (active_[top.idx] == 0 || top.version != version_[top.idx]) {
                heap_.pop();  // stale
                continue;
            }
            if (best.found &&
                !(top.key > best.exact ||
                  (top.key == best.exact && top.idx < best.index))) {
                break;  // nothing left can beat the incumbent
            }
            heap_.pop();
            const std::pair<double, bool> r = eval(top.idx);
            evaluated_.push_back({top.idx, r.second});
            if (r.second &&
                (!best.found || r.first > best.exact ||
                 (r.first == best.exact && top.idx < best.index))) {
                best = Pick{top.idx, r.first, true};
            }
        }
        // Re-enqueue after the loop (re-pushing inside it would re-pop the
        // same entries).
        for (const auto& [idx, selectable] : evaluated_) {
            if (!selectable || (best.found && idx == best.index)) continue;
            heap_.push(Entry{key_[idx], idx, version_[idx]});
        }
        return best;
    }

  private:
    struct Entry {
        double key;
        std::size_t idx;
        std::uint64_t version;
    };
    struct Less {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.key != b.key) return a.key < b.key;
            return a.idx > b.idx;  // max-heap pops the smaller index first
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Less> heap_;
    std::vector<double> key_;
    std::vector<std::uint64_t> version_;
    std::vector<char> active_;
    std::vector<std::pair<std::size_t, bool>> evaluated_;  // pop_best scratch
};

}  // namespace uavdc::core
