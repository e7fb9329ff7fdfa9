#include "uavdc/service/request.hpp"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "uavdc/io/serialize.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::service {

namespace {

[[noreturn]] void bad(const std::string& what) {
    throw std::runtime_error("bad request: " + what);
}

/// Every key `options` may carry, in the order the error message lists.
constexpr std::string_view kOptionKeys[] = {
    "delta_m", "max_candidates", "k", "grasp_iterations", "solver",
    "reduce", "reduce_coarsen", "reduce_band_m", "reduce_consolidate"};

void check_option_keys(const io::Json& opts) {
    for (const auto& entry : opts.as_object()) {
        const std::string& key = entry.first;
        if (std::ranges::find(kOptionKeys, key) != std::end(kOptionKeys)) {
            continue;
        }
        std::string accepted;
        for (const std::string_view k : kOptionKeys) {
            if (!accepted.empty()) accepted += '|';
            accepted += k;
        }
        bad("unknown option '" + key + "' (expected " + accepted + ")");
    }
}

orienteering::SolverKind solver_from_string(const std::string& s) {
    if (s == "exact") return orienteering::SolverKind::kExact;
    if (s == "greedy") return orienteering::SolverKind::kGreedy;
    if (s == "grasp") return orienteering::SolverKind::kGrasp;
    if (s == "ils") return orienteering::SolverKind::kIls;
    bad("unknown solver '" + s + "' (expected exact|greedy|grasp|ils)");
}

int int_field(const io::Json& obj, const std::string& key) {
    const double v = obj.at(key).as_number();
    UAVDC_REQUIRE(v >= -2147483648.0 && v <= 2147483647.0)
        << "request field '" << key << "' out of int range: " << v;
    return static_cast<int>(v);
}

int bounded_int_field(const io::Json& obj, const std::string& key, int lo,
                      int hi) {
    const double v = obj.at(key).as_number();
    if (!(v >= lo && v <= hi)) {
        std::ostringstream msg;
        msg << std::setprecision(17) << "'" << key << "' must be in [" << lo
            << ", " << hi << "], got " << v;
        bad(msg.str());
    }
    return int_field(obj, key);
}

}  // namespace

core::PlannerOptions PlannerOverrides::resolve(
    core::PlannerOptions base) const {
    if (delta_m) base.delta_m = *delta_m;
    if (max_candidates) base.max_candidates = *max_candidates;
    if (k) base.k = *k;
    if (grasp_iterations) base.grasp_iterations = *grasp_iterations;
    if (solver) base.solver = *solver;
    if (reduce) base.reduction.dominance = *reduce;
    if (reduce_coarsen) base.reduction.coarsen_factor = *reduce_coarsen;
    if (reduce_band_m) base.reduction.refine_band_m = *reduce_band_m;
    if (reduce_consolidate) {
        base.reduction.consolidate_to = *reduce_consolidate;
    }
    return base;
}

std::string to_string(ResponseStatus status) {
    switch (status) {
        case ResponseStatus::kOk:
            return "ok";
        case ResponseStatus::kOverloaded:
            return "overloaded";
        case ResponseStatus::kDeadlineExceeded:
            return "deadline_exceeded";
        case ResponseStatus::kBadRequest:
            return "bad_request";
        case ResponseStatus::kInternalError:
            return "internal_error";
        case ResponseStatus::kShutdown:
            return "shutdown";
    }
    return "unknown";
}

std::string fingerprint_to_hex(std::uint64_t fp) {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[fp & 0xF];
        fp >>= 4;
    }
    return out;
}

std::uint64_t fingerprint_from_hex(const std::string& hex) {
    if (hex.size() != 16) {
        bad("instance_ref must be 16 hex digits, got '" + hex + "'");
    }
    std::uint64_t fp = 0;
    for (char c : hex) {
        fp <<= 4;
        if (c >= '0' && c <= '9') {
            fp |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            fp |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            bad("instance_ref must be lowercase hex, got '" + hex + "'");
        }
    }
    return fp;
}

std::string envelope_string(const io::Json& doc, const std::string& key) {
    if (!doc.contains(key) || !doc.at(key).is_string()) return "";
    return doc.at(key).as_string();
}

void check_request_envelope(const io::Json& doc) {
    if (!doc.is_object()) bad("request must be a JSON object");
    if (doc.string_or("id", "").empty()) bad("missing request 'id'");
}

PlanRequest request_from_json(const io::Json& doc) {
    check_request_envelope(doc);
    PlanRequest req;
    req.id = doc.at("id").as_string();
    req.planner = doc.string_or("planner", "");
    if (req.planner.empty()) bad("missing 'planner' name");

    const bool has_inline = doc.contains("instance");
    const bool has_ref = doc.contains("instance_ref");
    if (has_inline == has_ref) {
        bad("exactly one of 'instance' or 'instance_ref' is required");
    }
    if (has_inline) {
        try {
            req.instance = io::instance_from_json(doc.at("instance"));
        } catch (const std::exception& ex) {
            bad(std::string("invalid inline instance: ") + ex.what());
        }
    } else {
        req.instance_ref =
            fingerprint_from_hex(doc.at("instance_ref").as_string());
    }

    if (doc.contains("options")) {
        const io::Json& opts = doc.at("options");
        if (!opts.is_object()) bad("'options' must be an object");
        check_option_keys(opts);
        if (opts.contains("delta_m")) {
            req.overrides.delta_m = opts.at("delta_m").as_number();
        }
        if (opts.contains("max_candidates")) {
            req.overrides.max_candidates = int_field(opts, "max_candidates");
        }
        if (opts.contains("k")) {
            req.overrides.k = bounded_int_field(opts, "k", 1, kMaxPartialK);
        }
        if (opts.contains("grasp_iterations")) {
            req.overrides.grasp_iterations = bounded_int_field(
                opts, "grasp_iterations", 0, kMaxGraspIterations);
        }
        if (opts.contains("solver")) {
            req.overrides.solver =
                solver_from_string(opts.at("solver").as_string());
        }
        if (opts.contains("reduce")) {
            req.overrides.reduce = opts.at("reduce").as_bool();
        }
        if (opts.contains("reduce_coarsen")) {
            req.overrides.reduce_coarsen = int_field(opts, "reduce_coarsen");
        }
        if (opts.contains("reduce_band_m")) {
            req.overrides.reduce_band_m = opts.at("reduce_band_m").as_number();
        }
        if (opts.contains("reduce_consolidate")) {
            req.overrides.reduce_consolidate =
                int_field(opts, "reduce_consolidate");
        }
    }
    const double priority = doc.number_or("priority", 0.0);
    UAVDC_REQUIRE(priority >= -2147483648.0 && priority <= 2147483647.0)
        << "priority out of int range: " << priority;
    req.priority = static_cast<int>(priority);
    req.deadline_ms = doc.number_or("deadline_ms", 0.0);
    return req;
}

io::Json to_json(const PlanRequest& req) {
    io::Json doc;
    doc["id"] = req.id;
    doc["planner"] = req.planner;
    if (req.instance) {
        doc["instance"] = io::to_json(*req.instance);
    } else if (req.instance_ref) {
        doc["instance_ref"] = fingerprint_to_hex(*req.instance_ref);
    }
    io::Json opts;
    const PlannerOverrides& o = req.overrides;
    if (o.delta_m) opts["delta_m"] = *o.delta_m;
    if (o.max_candidates) opts["max_candidates"] = *o.max_candidates;
    if (o.k) opts["k"] = *o.k;
    if (o.grasp_iterations) opts["grasp_iterations"] = *o.grasp_iterations;
    if (o.solver) opts["solver"] = orienteering::to_string(*o.solver);
    if (o.reduce) opts["reduce"] = *o.reduce;
    if (o.reduce_coarsen) opts["reduce_coarsen"] = *o.reduce_coarsen;
    if (o.reduce_band_m) opts["reduce_band_m"] = *o.reduce_band_m;
    if (o.reduce_consolidate) {
        opts["reduce_consolidate"] = *o.reduce_consolidate;
    }
    if (opts.is_object()) doc["options"] = std::move(opts);
    if (req.priority != 0) doc["priority"] = req.priority;
    if (req.deadline_ms > 0.0) doc["deadline_ms"] = req.deadline_ms;
    return doc;
}

std::string response_line(const PlanResponse& resp) {
    // Envelope keys in the serializer's sorted order, numbers and strings
    // rendered by the dump() primitives (ResponseLineIsItsOwnJsonDump locks
    // this in).
    std::string out;
    out.reserve((resp.result_wire ? resp.result_wire->size() : 0) +
                resp.id.size() + resp.error.size() + 96);
    out += '{';
    if (resp.cache_hit) out += "\"cache_hit\":true,";
    if (!resp.error.empty()) {
        out += "\"error\":";
        io::Json::dump_string(out, resp.error);
        out += ',';
    }
    out += "\"exec_ms\":";
    io::Json::dump_double(out, resp.exec_ms);
    out += ",\"id\":";
    io::Json::dump_string(out, resp.id);
    if (resp.partial) out += ",\"partial\":true";
    out += ",\"queue_ms\":";
    io::Json::dump_double(out, resp.queue_ms);
    if (resp.result_wire) {
        out += ",\"result\":";
        out += *resp.result_wire;
    }
    out += ",\"status\":";
    io::Json::dump_string(out, to_string(resp.status));
    out += '}';
    return out;
}

}  // namespace uavdc::service
