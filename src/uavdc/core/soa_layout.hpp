#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/model/instance.hpp"
#include "uavdc/util/aligned.hpp"

namespace uavdc::core {

/// Lane count the SoA arrays are padded to. The batched kernels in
/// core/batch_kernels are written as plain loops the compiler widens; the
/// padding guarantees a whole number of 8-lane groups so full-width reads
/// past size() stay inside the allocation (padding values are 0.0 and are
/// never allowed to influence a result).
inline constexpr std::size_t kSoaLanes = 8;

/// size() rounded up to a multiple of kSoaLanes.
[[nodiscard]] constexpr std::size_t soa_padded(std::size_t n) {
    return (n + kSoaLanes - 1) / kSoaLanes * kSoaLanes;
}

/// Planar point cloud in structure-of-arrays form: `xs`/`ys` are contiguous,
/// 32-byte-aligned, and padded to a multiple of kSoaLanes (padding = 0.0).
/// The model is 2-D — the UAV's fixed altitude enters only through the
/// derived ground coverage radius R0 (PAPER Sec. III-A) — so there is no zs
/// plane to carry.
struct PointsSoa {
    util::AlignedVector<double> xs;
    util::AlignedVector<double> ys;
    std::size_t count{0};

    [[nodiscard]] std::size_t size() const { return count; }
    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] geom::Vec2 at(std::size_t i) const {
        return {xs[i], ys[i]};
    }

    /// Build from an array of points.
    [[nodiscard]] static PointsSoa from(std::span<const geom::Vec2> pts);
};

/// Device fields hot in the scoring loops, in SoA form. `upload_s[v]` is
/// the nominal full-upload dwell `data_mb[v] / B` (Eq. 7) precomputed with
/// the exact division Device::upload_time performs, so substituting the
/// array for the per-element call is bit-identical.
struct DeviceSoa {
    PointsSoa pos;
    util::AlignedVector<double> data_mb;
    util::AlignedVector<double> upload_s;

    [[nodiscard]] std::size_t size() const { return pos.size(); }
};

/// Hover-candidate fields hot in the scoring loops, in SoA form. The
/// coverage lists are not mirrored: the engines walk the set's own forward
/// CSR (`HoverCandidateSet::covered`), one flat std::int32_t pool — the
/// transpose of InvertedCoverageIndex.
struct CandidateSoa {
    PointsSoa pos;
    util::AlignedVector<double> award_mb;
    util::AlignedVector<double> dwell_s;

    [[nodiscard]] std::size_t size() const { return pos.size(); }
};

/// SoA view of an instance's devices (O(devices) build).
[[nodiscard]] DeviceSoa build_device_soa(const model::Instance& inst);

/// SoA view of a hover-candidate set (O(candidates) build). This overload
/// cannot range-check the set's covered-device ids (the device count is
/// unknown here) but still guards the candidate count, whose indices other
/// layers (InvertedCoverageIndex, reduction back-maps) store as int32.
[[nodiscard]] CandidateSoa build_candidate_soa(const HoverCandidateSet& set);

/// Checked build: additionally UAVDC_CHECKs that `num_devices` fits the
/// int32 id space and that every id in the set's CSR pool lies in
/// [0, num_devices), so no engine indexes past its device arrays. Prefer
/// this overload whenever the instance is at hand.
[[nodiscard]] CandidateSoa build_candidate_soa(const HoverCandidateSet& set,
                                               std::size_t num_devices);

}  // namespace uavdc::core
