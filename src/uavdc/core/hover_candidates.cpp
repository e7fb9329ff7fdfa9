#include "uavdc/core/hover_candidates.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

namespace {

/// FNV-1a over a covered-device list, for coverage-set dedup groups.
std::uint64_t hash_coverage(std::span<const std::int32_t> covered) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::int32_t v : covered) {
        // NOLINTNEXTLINE(uavdc-unchecked-narrowing): device ids are
        // dense non-negative indices; mixing their 32-bit pattern is
        // the hash, wraparound would be harmless by design
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
        h *= 1099511628211ULL;
    }
    return h;
}

/// Mean squared distance from `pos` to its covered devices — dedup keeps
/// the candidate centred best over its coverage set.
double coverage_spread(const geom::Vec2& pos,
                       std::span<const std::int32_t> covered,
                       const DeviceSoa& soa) {
    if (covered.empty()) return 0.0;
    const double s = kernels::sum_squared_distances_ordered(
        covered.data(), covered.size(), soa.pos.xs.data(), soa.pos.ys.data(),
        pos);
    return s / static_cast<double>(covered.size());
}

/// Stable LSD radix sort of 64-bit keys by their high half (at most
/// `max_high`), in 16-bit digits: one pass when `max_high` fits 16 bits,
/// two otherwise. Memory is one key buffer plus at most 65536 counters.
void sort_by_high_half(std::vector<std::uint64_t>& keys,
                       std::uint64_t max_high) {
    constexpr unsigned kDigitBits = 16;
    constexpr std::uint64_t kDigitMask = (1U << kDigitBits) - 1;
    std::vector<std::uint64_t> sorted(keys.size());
    std::vector<std::size_t> starts;
    for (unsigned shift = 0; shift == 0 || (max_high >> shift) != 0;
         shift += kDigitBits) {
        auto digit = [shift](std::uint64_t key) {
            return static_cast<std::size_t>(((key >> 32) >> shift) &
                                            kDigitMask);
        };
        starts.assign(std::min(max_high >> shift, kDigitMask) + 2, 0);
        for (const std::uint64_t key : keys) ++starts[digit(key) + 1];
        for (std::size_t d = 1; d < starts.size(); ++d) {
            starts[d] += starts[d - 1];
        }
        for (const std::uint64_t key : keys) sorted[starts[digit(key)]++] = key;
        keys.swap(sorted);
    }
}

/// Keep the CSR slices with keep[j] != 0, and the matching `items`, in
/// order, compacting the pool in place (each slice moves left or stays).
template <typename T>
void retain(HoverCandidateSet& set, std::vector<T>& items,
            const std::vector<char>& keep) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < items.size(); ++j) {
        if (keep[j] == 0) continue;
        const std::size_t b = set.cov_starts[j];
        const std::size_t e = set.cov_starts[j + 1];
        const std::size_t dst = set.cov_starts[w];
        if (dst != b) {
            std::copy(set.cov.begin() + static_cast<std::ptrdiff_t>(b),
                      set.cov.begin() + static_cast<std::ptrdiff_t>(e),
                      set.cov.begin() + static_cast<std::ptrdiff_t>(dst));
        }
        items[w] = items[j];
        set.cov_starts[w + 1] = dst + (e - b);
        ++w;
    }
    items.resize(w);
    set.cov_starts.resize(w + 1);
    set.cov.resize(set.cov_starts[w]);
}

/// Which touched cells survive coverage dedupe: per group of equal
/// coverage sets, the minimum `coverage_spread` (ties keep the earlier
/// cell). `set` holds only the cells' CSR so far. Groups are found by
/// sorting (slice hash << 32 | index) keys; a hash collision only costs an
/// extra equality test.
std::vector<char> unique_coverage(const HoverCandidateSet& set,
                                  std::span<const int> cells,
                                  const geom::Grid& grid,
                                  const DeviceSoa& soa) {
    const std::size_t n = cells.size();
    std::vector<std::uint64_t> by_hash(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t h = hash_coverage(set.covered(j));
        by_hash[j] = (h ^ (h >> 32)) << 32 | j;
    }
    sort_by_high_half(by_hash, 0xffffffffULL);
    auto hash_of = [&](std::size_t i) { return by_hash[i] >> 32; };
    auto index_of = [&](std::size_t i) {
        return static_cast<std::size_t>(by_hash[i] & 0xffffffffULL);
    };
    auto spread = [&](std::size_t j) {
        return coverage_spread(grid.center(cells[j]), set.covered(j), soa);
    };
    std::vector<char> keep(n, 1);
    for (std::size_t g = 0; g < n;) {
        std::size_t e = g + 1;
        while (e < n && hash_of(e) == hash_of(g)) ++e;
        // Within a hash group (indices ascending), group truly-equal
        // coverage sets and keep the best-centred representative of each.
        for (std::size_t a = g; a + 1 < e; ++a) {
            const std::size_t first = index_of(a);
            if (keep[first] == 0) continue;
            const auto cov = set.covered(first);
            std::size_t best = first;
            double best_spread = 0.0;
            bool scored = false;
            for (std::size_t b = a + 1; b < e; ++b) {
                const std::size_t j = index_of(b);
                if (keep[j] == 0 || !std::ranges::equal(cov, set.covered(j))) {
                    continue;
                }
                if (!scored) {
                    best_spread = spread(best);
                    scored = true;
                }
                const double sp = spread(j);
                if (sp < best_spread) {
                    keep[best] = 0;
                    best = j;
                    best_spread = sp;
                } else {
                    keep[j] = 0;
                }
            }
        }
        g = e;
    }
    return keep;
}

/// Cap the set at `cap` candidates. Pass 1: greedy set cover so every
/// coverable device keeps at least one candidate (prefer higher award per
/// pick). Pass 2: fill the remaining slots by award.
void cap_candidates(HoverCandidateSet& set, std::size_t num_devices,
                    std::size_t cap) {
    const auto& cands = set.candidates;
    std::vector<std::size_t> order(cands.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return cands[a].award_mb > cands[b].award_mb;
    });
    std::vector<char> device_hit(num_devices, 0);
    std::vector<char> selected(cands.size(), 0);
    std::size_t n_selected = 0;
    for (const std::size_t i : order) {
        const auto cov = set.covered(i);
        const bool adds = std::ranges::any_of(cov, [&](std::int32_t v) {
            return device_hit[static_cast<std::size_t>(v)] == 0;
        });
        if (!adds) continue;
        selected[i] = 1;
        ++n_selected;
        for (const std::int32_t v : cov) {
            device_hit[static_cast<std::size_t>(v)] = 1;
        }
        if (n_selected >= cap) break;
    }
    for (const std::size_t i : order) {
        if (n_selected >= cap) break;
        if (selected[i] == 0) {
            selected[i] = 1;
            ++n_selected;
        }
    }
    retain(set, set.candidates, selected);
}

}  // namespace

void HoverCandidateSet::add(const HoverCandidate& c,
                            std::span<const std::int32_t> devices) {
    candidates.push_back(c);
    cov.insert(cov.end(), devices.begin(), devices.end());
    cov_starts.push_back(cov.size());
}

HoverCandidateSet HoverCandidateSet::subset(
    std::span<const std::size_t> picks) const {
    HoverCandidateSet out;
    out.grid_cells = grid_cells;
    out.nonzero_cells = nonzero_cells;
    out.after_dedupe = after_dedupe;
    out.delta_m = delta_m;
    out.candidates.reserve(picks.size());
    out.cov_starts.reserve(picks.size() + 1);
    for (const std::size_t j : picks) out.add(candidates[j], covered(j));
    return out;
}

HoverCandidateSet build_hover_candidates(const model::Instance& inst,
                                         const HoverCandidateConfig& cfg,
                                         const DeviceSoa* device_soa) {
    HoverCandidateSet out;
    out.delta_m = cfg.delta_m;

    const geom::Grid grid(inst.region, cfg.delta_m);
    out.grid_cells = grid.num_cells();

    const double r0 = inst.uav.coverage_radius_m;
    const std::size_t num_devices = inst.devices.size();
    UAVDC_CHECK(num_devices <=
                static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()))
        << "build_hover_candidates: " << num_devices
        << " devices exceed the int32 coverage id space";

    // Admission, before anything is allocated: every coverage pair and
    // every candidate comes from one cell of some device's disk window.
    std::uint64_t window_cells = 0;
    for (const auto& d : inst.devices) {
        window_cells += grid.disk_window(d.pos, r0).cells();
    }
    if (window_cells > kMaxCandidateWindowCells) {
        std::ostringstream msg;
        msg.precision(15);
        msg << "build_hover_candidates: " << num_devices
            << " devices at delta " << cfg.delta_m << " m reach "
            << window_cells << " grid cells within R0 = " << r0
            << " m, over the " << kMaxCandidateWindowCells << " limit";
        throw std::invalid_argument(msg.str());
    }

    // Stamp each device's disk into the grid as (cell, device) keys —
    // devices ascending, each device's cells ascending — then sort stably
    // by cell: cells come out ascending with their devices ascending.
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(window_cells));
    for (std::size_t v = 0; v < num_devices; ++v) {
        const auto dev = static_cast<std::uint64_t>(v);
        grid.for_each_cell_in_disk(inst.devices[v].pos, r0, [&](int cell) {
            keys.push_back(static_cast<std::uint64_t>(cell) << 32 | dev);
        });
    }
    sort_by_high_half(keys,
                      static_cast<std::uint64_t>(grid.num_cells() - 1));

    // SoA device plane for the scoring kernels: data volumes plus
    // precomputed upload times (bit-identical to Device::upload_time).
    // Reuse the caller's copy when offered (build_device_soa is itself
    // deterministic, so either path yields the same values).
    const DeviceSoa local_soa =
        device_soa == nullptr ? build_device_soa(inst) : DeviceSoa{};
    const DeviceSoa& soa = device_soa == nullptr ? local_soa : *device_soa;
    UAVDC_DCHECK(soa.data_mb.size() >= num_devices);

    // The touched cells whose centre is admissible, ascending, with their
    // devices as the CSR; scoring waits until dedupe has dropped its share.
    std::size_t touched = keys.empty() ? 0 : 1;
    for (std::size_t i = 1; i < keys.size(); ++i) {
        if ((keys[i] >> 32) != (keys[i - 1] >> 32)) ++touched;
    }
    std::vector<int> cells;
    cells.reserve(touched);
    out.cov_starts.reserve(touched + 1);
    out.cov.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size();) {
        const std::uint64_t cell_key = keys[i] >> 32;
        std::size_t end = i + 1;
        while (end < keys.size() && (keys[end] >> 32) == cell_key) ++end;
        // NOLINTNEXTLINE(uavdc-unchecked-narrowing): the key's high half
        // is a Grid cell id, an int by construction
        const auto cell = static_cast<int>(cell_key);
        cells.push_back(cell);
        for (std::size_t k = i; k < end; ++k) {
            // NOLINTNEXTLINE(uavdc-unchecked-narrowing): the low half
            // is a device index, checked above to fit int32
            out.cov.push_back(static_cast<std::int32_t>(keys[k]));
        }
        out.cov_starts.push_back(out.cov.size());
        i = end;
    }
    keys = {};
    out.nonzero_cells = util::checked_cast<int>(cells.size());

    if (cells.size() > 1) {
        retain(out, cells, unique_coverage(out, cells, grid, soa));
    }
    // Eq. 6-8 over each survivor's slice, in ascending device order.
    out.candidates.reserve(cells.size());
    for (std::size_t j = 0; j < cells.size(); ++j) {
        const auto cov = out.covered(j);
        const kernels::GainAccum g = kernels::award_dwell_ordered(
            cov.data(), cov.size(), soa.data_mb.data(), soa.upload_s.data());
        out.candidates.push_back({grid.center(cells[j]), cells[j], g.sum_mb,
                                  g.max_s, g.max_s * inst.uav.hover_power_w});
    }
    out.after_dedupe = util::checked_cast<int>(out.size());

    if (cfg.max_candidates > 0 &&
        out.size() > static_cast<std::size_t>(cfg.max_candidates)) {
        cap_candidates(out, num_devices,
                       static_cast<std::size_t>(cfg.max_candidates));
    }
    return out;
}

}  // namespace uavdc::core
