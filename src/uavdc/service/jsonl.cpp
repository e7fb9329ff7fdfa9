#include "uavdc/service/jsonl.hpp"

#include <istream>
#include <mutex>
#include <ostream>
#include <string>

namespace uavdc::service {

namespace {

bool blank(const std::string& line) {
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

JsonlSummary serve_jsonl(std::istream& in, std::ostream& out,
                         const JsonlConfig& cfg, util::ThreadPool* pool) {
    JsonlSummary summary;
    PlanService svc(cfg.service, pool);

    std::mutex out_mu;
    const auto write_line = [&](const io::Json& doc) {
        const std::string text = doc.dump();
        std::lock_guard lock(out_mu);
        out << text << '\n';
        out.flush();
    };
    const auto write_response = [&](const PlanResponse& resp) {
        const std::string text = response_line(resp);
        std::lock_guard lock(out_mu);
        out << text << '\n';
        out.flush();
    };

    const auto stop_requested = [&] {
        return cfg.stop != nullptr &&
               cfg.stop->load(std::memory_order_acquire);
    };

    std::string line;
    while (!stop_requested() && std::getline(in, line)) {
        if (stop_requested()) {
            // The signal landed mid-read; this line was never submitted, so
            // drain semantics ("finish what was accepted") don't cover it.
            summary.stopped = true;
            break;
        }
        if (blank(line)) continue;
        ++summary.lines;

        io::Json doc;
        std::string parse_error;
        try {
            doc = io::Json::parse(line);
        } catch (const std::exception& ex) {
            parse_error = ex.what();
        }

        if (!parse_error.empty()) {
            ++summary.parse_errors;
            PlanResponse resp;
            resp.status = ResponseStatus::kBadRequest;
            resp.error = "unparseable line: " + parse_error;
            write_response(resp);
            continue;
        }

        const std::string op = envelope_string(doc, "op");
        if (op == "stats" || op == "drain") {
            ++summary.control;
            if (op == "drain") svc.drain();
            io::Json reply;
            reply["id"] = envelope_string(doc, "id");
            reply["op"] = op;
            reply["status"] = "ok";
            reply["stats"] = to_json(svc.stats());
            write_line(reply);
            continue;
        }
        if (!op.empty()) {
            ++summary.parse_errors;
            PlanResponse resp;
            resp.id = envelope_string(doc, "id");
            resp.status = ResponseStatus::kBadRequest;
            resp.error = "unknown op '" + op + "' (expected stats|drain)";
            write_response(resp);
            continue;
        }

        PlanRequest req;
        try {
            req = request_from_json(doc);
        } catch (const std::exception& ex) {
            ++summary.parse_errors;
            PlanResponse resp;
            resp.id = envelope_string(doc, "id");
            resp.status = ResponseStatus::kBadRequest;
            resp.error = ex.what();
            write_response(resp);
            continue;
        }
        ++summary.requests;
        svc.submit(std::move(req), write_response);
    }

    if (stop_requested()) summary.stopped = true;
    svc.drain();
    summary.stats = svc.stats();
    if (cfg.final_stats) {
        io::Json reply;
        reply["id"] = "";
        reply["op"] = "stats";
        reply["status"] = "ok";
        reply["stats"] = to_json(summary.stats);
        write_line(reply);
    }
    svc.shutdown();
    return summary;
}

}  // namespace uavdc::service
