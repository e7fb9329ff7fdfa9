#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/validate_plan.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/service/plan_service.hpp"

namespace pb {

namespace {

using uavdc::io::Json;
using uavdc::model::Instance;

struct PlanFacts {
    bool ok{false};
    std::string error;
    double volume_mb{0.0};
    double runtime_s{0.0};
    double candidates{0.0};
};

PlanFacts check_plan(const Instance& inst, const std::string& result) {
    PlanFacts f;
    try {
        const Json doc = Json::parse(result);
        const auto plan = uavdc::io::plan_from_json(doc.at("plan"));
        const auto validation = uavdc::core::validate_plan(inst, plan);
        if (!validation.ok()) {
            f.error = "validate_plan: " + validation.errors.front().detail;
            return f;
        }
        const auto& stats = doc.at("stats");
        const double planned = stats.at("planned_mb").as_number();
        f.volume_mb = uavdc::core::evaluate_plan(inst, plan).collected_mb;
        // Equal up to summation order (relative 1e-9, the repository's
        // epsilon tier). The benchmark planner's planned_mb counts only the
        // nodes it hovers above, not their neighbours in range, so there
        // the evaluated volume must only reach it.
        const double tol = 1e-9 * std::max(1.0, std::abs(planned));
        const bool lower_bound = doc.at("planner").as_string() == "benchmark";
        if (lower_bound ? f.volume_mb < planned - tol
                        : std::abs(f.volume_mb - planned) > tol) {
            f.error = "evaluate_plan volume " + std::to_string(f.volume_mb) +
                      " MB " + (lower_bound ? "<" : "!=") + " planned_mb " +
                      std::to_string(planned);
            return f;
        }
        f.runtime_s = stats.at("runtime_s").as_number();
        f.candidates = stats.at("candidates").as_number();
        f.ok = true;
    } catch (const std::exception& ex) {
        f.error = std::string("unparsable result: ") + ex.what();
    }
    return f;
}

}  // namespace

// `stats.runtime_s` is wall time of the run that planned the result;
// everything else in it is deterministic.
std::string without_runtime(std::string_view result) {
    constexpr std::string_view key = "\"runtime_s\":";
    const auto at = result.find(key);
    if (at == std::string_view::npos) return std::string(result);
    auto end = at + key.size();
    while (end < result.size() && result[end] != ',' && result[end] != '}') {
        ++end;
    }
    return std::string(result.substr(0, at + key.size())) + "0" +
           std::string(result.substr(end));
}

CheckReport check_outcomes(const std::vector<Outcome>& outcomes,
                           const std::vector<std::string>& keyed_results,
                           const std::vector<Request>& priming, int threads) {
    CheckReport rep;
    std::mutex mu;
    std::vector<char> bad(outcomes.size(), 0);
    auto fail = [&](std::size_t idx, const std::string& why) {
        std::lock_guard lock(mu);
        rep.ok = false;
        if (!bad[idx]) {
            bad[idx] = 1;
            ++rep.failed;
        }
        if (rep.reasons.size() < 5) {
            rep.reasons.push_back("id " + outcomes[idx].id + ": " + why);
        }
    };

    // 1. Exactly one ok response per id.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& o = outcomes[i];
        if (o.measured) ++rep.attempted;
        if (o.responses != 1) {
            fail(i, std::to_string(o.responses) + " responses (want 1)");
        } else if (o.status != "ok") {
            fail(i, "status " + o.status);
        } else if (o.key_mismatch) {
            fail(i, "result bytes differ from the primed result of key " +
                        std::to_string(o.key));
        }
    }

    // 2. Reference service with the servers' defaults. Priming runs first,
    // in order, so instance refs resolve and keyed references exist.
    uavdc::service::PlanService::Config cfg;
    cfg.workers = 1;
    cfg.response_cache_capacity = 4096;
    uavdc::service::PlanService ref(cfg);
    std::map<std::uint64_t, Instance> instances;
    auto parse_request = [&](const std::string& payload) {
        return uavdc::service::request_from_json(Json::parse(payload));
    };
    std::map<int, std::pair<std::string, std::size_t>> key_reference;
    for (std::size_t pi = 0; pi < priming.size(); ++pi) {
        const auto& p = priming[pi];
        const auto req = parse_request(p.payload);
        if (req.instance) {
            instances.emplace(uavdc::core::PlanningContext::instance_fingerprint(
                                  *req.instance),
                              *req.instance);
        }
        const auto resp = ref.execute(req);
        if (p.key >= 0 && resp.result_wire) {
            key_reference[p.key] = {*resp.result_wire, pi};
        }
    }
    auto instance_of = [&](const uavdc::service::PlanRequest& req)
        -> const Instance* {
        if (req.instance) return &*req.instance;
        const auto it = instances.find(req.instance_ref.value_or(0));
        return it == instances.end() ? nullptr : &it->second;
    };

    // 3. Keyed results: the primed bytes against the reference, then the
    // plan checks once per key.
    std::map<int, PlanFacts> key_facts;
    for (const auto& [key, entry] : key_reference) {
        const auto& [wire, pi] = entry;
        if (key >= static_cast<int>(keyed_results.size()) ||
            keyed_results[static_cast<std::size_t>(key)].empty()) {
            continue;
        }
        const auto& got = keyed_results[static_cast<std::size_t>(key)];
        PlanFacts f;
        if (without_runtime(got) != without_runtime(wire)) {
            f.error = "primed result differs from the in-process reference";
        } else {
            const auto req = parse_request(priming[pi].payload);
            const Instance* inst = instance_of(req);
            f = inst ? check_plan(*inst, got)
                     : PlanFacts{false, "instance not registered", 0, 0, 0};
        }
        key_facts[key] = f;
    }

    // 4. Every other result against its own reference, in parallel.
    std::vector<PlanFacts> facts(outcomes.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= outcomes.size()) return;
            const auto& o = outcomes[i];
            if (o.responses != 1 || o.status != "ok") continue;
            if (o.key >= 0) {
                const auto it = key_facts.find(o.key);
                if (it == key_facts.end()) {
                    fail(i, "no reference for key " + std::to_string(o.key));
                } else if (!it->second.ok) {
                    fail(i, it->second.error);
                } else {
                    facts[i] = it->second;
                }
                continue;
            }
            try {
                const auto req = parse_request(o.payload);
                const auto resp = ref.execute(req);
                if (!resp.result_wire) {
                    fail(i, "reference failed: " + resp.error);
                    continue;
                }
                if (without_runtime(o.result) !=
                    without_runtime(*resp.result_wire)) {
                    fail(i, "result differs from the in-process reference");
                    continue;
                }
                const Instance* inst = instance_of(req);
                if (!inst) {
                    fail(i, "instance not registered");
                    continue;
                }
                facts[i] = check_plan(*inst, o.result);
                if (!facts[i].ok) fail(i, facts[i].error);
            } catch (const std::exception& ex) {
                fail(i, std::string("reference threw: ") + ex.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();

    // 5. Plan quality over the workload's quality set, a fixed range of
    // request indices every run answers whatever its rate; planner figures
    // over the freshly planned ones, or over the set-up's plans when every
    // measured request was a cache replay (warm_hits).
    double volume = 0.0;
    std::uint64_t n = 0;
    std::vector<double> runtimes[2];
    double cands[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!facts[i].ok) continue;
        const int m = outcomes[i].measured ? 1 : 0;
        if (outcomes[i].quality) {
            ++n;
            volume += facts[i].volume_mb;
        }
        if (!m || outcomes[i].key < 0) {  // planned, not a cache replay
            runtimes[m].push_back(facts[i].runtime_s * 1e3);
            cands[m] += facts[i].candidates;
        }
    }
    rep.volume_mb = n ? volume / static_cast<double>(n) : 0.0;
    const int src = runtimes[1].empty() ? 0 : 1;
    if (!runtimes[src].empty()) {
        std::sort(runtimes[src].begin(), runtimes[src].end());
        rep.planner_ms_p50 = runtimes[src][runtimes[src].size() / 2];
        rep.candidates_per_plan =
            cands[src] / static_cast<double>(runtimes[src].size());
    }
    return rep;
}

}  // namespace pb
