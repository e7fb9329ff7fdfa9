#pragma once

#include "uavdc/model/instance.hpp"
#include "uavdc/model/plan.hpp"
#include "uavdc/sim/radio.hpp"
#include "uavdc/sim/simulator.hpp"

namespace uavdc::sim {

/// Closed-loop dwell controller configuration.
struct AdaptiveConfig {
    /// Actual-world radio model (nullptr = the paper's constant rate).
    const RadioModel* radio = nullptr;
};

/// Execute a planned route with *adaptive dwells* (extension beyond the
/// paper's open-loop plan): the route (stop order) is fixed, but at each
/// stop the UAV hovers until every covered device is drained — or until
/// continuing would eat into the energy reserved for flying the remaining
/// route home. Under the planner's own (constant-rate) assumptions this
/// reproduces the plan; when actual uplink rates are worse (distance
/// taper), it converts the early-departure savings of easy stops into
/// extra dwell at hard ones, instead of silently under-collecting.
///
/// The returned report always has completed = true unless the *route
/// itself* (flying every leg with zero hover) exceeds the battery.
[[nodiscard]] SimReport fly_adaptive(const model::Instance& inst,
                                     const model::FlightPlan& plan,
                                     const AdaptiveConfig& cfg = {});

}  // namespace uavdc::sim
