#pragma once

#include <cstddef>
#include <cstdint>

#include "uavdc/model/instance.hpp"

namespace uavdc::model {

/// 64-bit FNV-1a, one byte at a time: the hash behind the instance
/// fingerprint, the service's collision check hash and its options key.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Mix `n` bytes at `data` into `h`, in memory order.
inline void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

/// Mix the eight bytes of `v` into `h`, least significant first.
inline void fnv_u64(std::uint64_t& h, std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xffULL;
        h *= kFnvPrime;
    }
}

/// Walk the planning content of `a`, and of `more` in lockstep: every
/// field a plan depends on, in one fixed order. That is region lo and hi,
/// depot, device count, each device's id, position and data volume, then
/// the UAV's energy, speed, hover power, travel rate, travel energy model,
/// coverage radius and bandwidth; points go x then y. The log label `name`
/// is not content. `f` gets that field of every instance walked, each a
/// `double` or (count, id, model) a `std::int64_t`, and returns false to
/// stop the walk; the walk returns whether it ran to the end. Devices are
/// walked by `a`'s count, so `f` must stop a lockstep walk at unequal
/// counts. `PlanningContext::instance_fingerprint`,
/// `service::instance_check_hash` and the service's content equality are
/// each one walk, so they agree on what an instance is by construction.
template <class F, class... More>
bool walk_planning_content(F&& f, const Instance& a, const More&... more) {
    const auto field = [&](auto get) { return f(get(a), get(more)...); };
    const auto point = [&](auto get) {
        return field([&](const Instance& i) { return get(i).x; }) &&
               field([&](const Instance& i) { return get(i).y; });
    };
    if (!point([](const Instance& i) { return i.region.lo; }) ||
        !point([](const Instance& i) { return i.region.hi; }) ||
        !point([](const Instance& i) { return i.depot; }) ||
        !field([](const Instance& i) {
            return static_cast<std::int64_t>(i.devices.size());
        })) {
        return false;
    }
    for (std::size_t v = 0; v < a.devices.size(); ++v) {
        const auto dev = [v](const Instance& i) -> const Device& {
            return i.devices[v];
        };
        if (!field([&](const Instance& i) {
                return static_cast<std::int64_t>(dev(i).id);
            }) ||
            !point([&](const Instance& i) { return dev(i).pos; }) ||
            !field([&](const Instance& i) { return dev(i).data_mb; })) {
            return false;
        }
    }
    return field([](const Instance& i) { return i.uav.energy_j; }) &&
           field([](const Instance& i) { return i.uav.speed_mps; }) &&
           field([](const Instance& i) { return i.uav.hover_power_w; }) &&
           field([](const Instance& i) { return i.uav.travel_rate; }) &&
           field([](const Instance& i) {
               return static_cast<std::int64_t>(i.uav.travel_energy_model);
           }) &&
           field([](const Instance& i) { return i.uav.coverage_radius_m; }) &&
           field([](const Instance& i) { return i.uav.bandwidth_mbps; });
}

}  // namespace uavdc::model
