#include "uavdc/core/soa_layout.hpp"

#include <limits>

#include "uavdc/util/check.hpp"

namespace uavdc::core {

namespace {

constexpr std::size_t kMaxInt32 =
    static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());

}  // namespace

PointsSoa PointsSoa::from(std::span<const geom::Vec2> pts) {
    PointsSoa out;
    out.count = pts.size();
    const std::size_t padded = soa_padded(pts.size());
    out.xs.assign(padded, 0.0);
    out.ys.assign(padded, 0.0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        out.xs[i] = pts[i].x;
        out.ys[i] = pts[i].y;
    }
    return out;
}

DeviceSoa build_device_soa(const model::Instance& inst) {
    DeviceSoa out;
    const std::size_t n = inst.devices.size();
    const std::size_t padded = soa_padded(n);
    out.pos.count = n;
    out.pos.xs.assign(padded, 0.0);
    out.pos.ys.assign(padded, 0.0);
    out.data_mb.assign(padded, 0.0);
    out.upload_s.assign(padded, 0.0);
    const double bw = inst.uav.bandwidth_mbps;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& d = inst.devices[i];
        out.pos.xs[i] = d.pos.x;
        out.pos.ys[i] = d.pos.y;
        out.data_mb[i] = d.data_mb;
        out.upload_s[i] = d.upload_time(bw);
    }
    return out;
}

CandidateSoa build_candidate_soa(const HoverCandidateSet& set) {
    CandidateSoa out;
    const auto& cands = set.candidates;
    const std::size_t n = cands.size();
    // Candidate indices are stored as int32 throughout the hot layers
    // (inverted index, reduction back-maps); refuse to build a layout those
    // layers cannot index.
    UAVDC_CHECK(n <= kMaxInt32)
        << "build_candidate_soa: " << n
        << " candidates exceed the int32 index space";
    const std::size_t padded = soa_padded(n);
    out.pos.count = n;
    out.pos.xs.assign(padded, 0.0);
    out.pos.ys.assign(padded, 0.0);
    out.award_mb.assign(padded, 0.0);
    out.dwell_s.assign(padded, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        const auto& c = cands[j];
        out.pos.xs[j] = c.pos.x;
        out.pos.ys[j] = c.pos.y;
        out.award_mb[j] = c.award_mb;
        out.dwell_s[j] = c.dwell_s;
    }
    return out;
}

CandidateSoa build_candidate_soa(const HoverCandidateSet& set,
                                 std::size_t num_devices) {
    // The engines index their device arrays with the set's std::int32_t
    // CSR ids; an id space int32 cannot address, or an id outside the
    // instance, fails here rather than as a wild read mid-plan.
    UAVDC_CHECK(num_devices <= kMaxInt32)
        << "build_candidate_soa: " << num_devices
        << " devices exceed the int32 CSR id space";
    for (std::size_t j = 0; j < set.size(); ++j) {
        for (const std::int32_t v : set.covered(j)) {
            UAVDC_CHECK(v >= 0 && static_cast<std::size_t>(v) < num_devices)
                << "build_candidate_soa: candidate " << j
                << " covers device id " << v << " outside [0, "
                << num_devices << ")";
        }
    }
    return build_candidate_soa(set);
}

}  // namespace uavdc::core
