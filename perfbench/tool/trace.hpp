#pragma once

// The traced run: the same generated requests (set-up, then measured)
// replayed in-process through each layer's public functions (frame codec,
// JSON parser, request parser, fingerprints, response cache, planning
// context, reduction, planners, plan serializer), with spans recorded by the
// benchmark around every call.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace pb {

struct TraceOptions {
    int priming_round{0};       ///< set-up round whose priming is replayed
    std::uint64_t first{0};     ///< index of the first replayed request
    std::uint64_t count{0};     ///< measured requests replayed
    /// Source of the engine-crossover instances (cold_paper inputs of the
    /// same seed); none when null.
    const Workload* crossover{nullptr};
    int crossover_instances{0};
    std::string spans_path;     ///< spans of the traced pass, CSV
    /// The result bytes each replayed request (set-up, then measured) must
    /// be answered with, up to `stats.runtime_s`.
    std::vector<const std::string*> expected;
};

struct TraceReport {
    /// Per-layer metric name -> value (units as declared in
    /// BENCHMARK.json). Names starting with `detail.` are facts of the
    /// replay, not metrics.
    std::map<std::string, double> metrics;
    std::vector<std::string> reasons;  ///< first few replay mismatches
    std::uint64_t mismatched{0};       ///< replayed requests answered wrongly
};

[[nodiscard]] TraceReport run_trace(const Workload& wl, const TraceOptions& opt);

}  // namespace pb
