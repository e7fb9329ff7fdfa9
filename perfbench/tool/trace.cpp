#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/service/plan_service.hpp"
#include "check.hpp"
#include "wire.hpp"

namespace pb {

namespace {

using uavdc::io::Json;

/// In-memory span recorder. Spans nest through an explicit stack; when
/// disabled, opening and closing a span is a branch.
class Tracer {
  public:
    struct Span {
        int name;
        int parent;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t req;
    };

    Tracer() { spans_.reserve(1 << 16); }

    void enable(bool on) { on_ = on; }

    int name_id(const std::string& name) {
        for (std::size_t i = 0; i < names_.size(); ++i) {
            if (names_[i] == name) return static_cast<int>(i);
        }
        names_.push_back(name);
        return static_cast<int>(names_.size() - 1);
    }

    void open(int name, std::uint64_t req) {
        if (!on_) return;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, parent, now_ns(), 0, req});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
    }

    void close() {
        if (!on_) return;
        spans_[static_cast<std::size_t>(stack_.back())].end = now_ns();
        stack_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] const std::vector<std::string>& names() const {
        return names_;
    }

  private:
    bool on_{false};
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::string> names_;
};

class Scope {
  public:
    Scope(Tracer& t, int name, std::uint64_t req) : t_(t) { t_.open(name, req); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
};

/// The request pipeline of `PlanService::execute` and the TCP server,
/// rebuilt from the layers' public functions so each call can be timed.
/// One difference: the response-cache key's options half is std::hash of
/// the canonical options string, because the service's own FNV options
/// fingerprint is not public. Every response is checked against the
/// servers' bytes, so the replay cannot drift from the service unseen.
class Replayer {
  public:
    explicit Replayer(Tracer& t)
        : t_(t),
          request_(t.name_id("bench.request")),
          decode_(t.name_id("net.frame_decode")),
          encode_(t.name_id("net.frame_encode")),
          parse_(t.name_id("io.json_parse")),
          req_parse_(t.name_id("service.request_parse")),
          fingerprint_(t.name_id("service.fingerprint")),
          cache_get_(t.name_id("service.cache_get")),
          cache_put_(t.name_id("service.cache_put")),
          response_line_(t.name_id("service.response_line")),
          context_(t.name_id("core.context_build")),
          reduce_(t.name_id("core.reduce")),
          to_json_(t.name_id("io.plan_to_json")) {}

    /// One request end to end; returns the framed response.
    std::string handle(const std::string& framed, std::uint64_t req_id) {
        Scope root(t_, request_, req_id);
        std::optional<uavdc::net::Frame> frame;
        {
            Scope s(t_, decode_, req_id);
            decoder_.feed(framed);
            frame = decoder_.next();
        }
        if (!frame) throw std::runtime_error("replay: frame not decoded");
        Json doc;
        {
            Scope s(t_, parse_, req_id);
            doc = Json::parse(frame->payload);
        }
        uavdc::service::PlanRequest req;
        {
            Scope s(t_, req_parse_, req_id);
            req = uavdc::service::request_from_json(doc);
        }
        const uavdc::model::Instance& inst = resolve(req);
        uavdc::core::PlannerOptions opts;
        std::uint64_t inst_fp = 0;
        std::uint64_t opts_fp = 0;
        std::uint64_t check = 0;
        std::string canon;
        {
            Scope s(t_, fingerprint_, req_id);
            opts = req.overrides.resolve(defaults_);
            inst_fp = uavdc::core::PlanningContext::instance_fingerprint(inst);
            canon = uavdc::service::canonical_options(req.planner, opts);
            check = uavdc::service::instance_check_hash(inst);
            opts_fp = std::hash<std::string>{}(canon);
        }
        uavdc::service::PlanResponse resp;
        resp.id = req.id;
        {
            Scope s(t_, cache_get_, req_id);
            auto hit = cache_.get(inst_fp, opts_fp, canon, check,
                                  /*copy_tree=*/false);
            if (hit.found) {
                resp.cache_hit = true;
                resp.result_wire = std::move(hit.wire);
            }
        }
        if (!resp.result_wire) {
            resp.result_wire =
                plan(req, inst, opts, inst_fp, opts_fp, canon, check, req_id);
        }
        std::string line;
        {
            Scope s(t_, response_line_, req_id);
            line = uavdc::service::response_line(resp);
        }
        Scope s(t_, encode_, req_id);
        return uavdc::net::encode_frame(line, true);
    }

  private:
    const uavdc::model::Instance& resolve(
        const uavdc::service::PlanRequest& req) {
        if (req.instance) {
            const auto fp =
                uavdc::core::PlanningContext::instance_fingerprint(
                    *req.instance);
            return registry_.try_emplace(fp, *req.instance).first->second;
        }
        const auto it = registry_.find(req.instance_ref.value_or(0));
        if (it == registry_.end()) {
            throw std::runtime_error("replay: unknown instance_ref");
        }
        return it->second;
    }

    std::shared_ptr<const std::string> plan(
        const uavdc::service::PlanRequest& req,
        const uavdc::model::Instance& inst,
        const uavdc::core::PlannerOptions& opts, std::uint64_t inst_fp,
        std::uint64_t opts_fp, const std::string& canon, std::uint64_t check,
        std::uint64_t req_id) {
        std::shared_ptr<const uavdc::core::PlanningContext> ctx;
        {
            Scope s(t_, context_, req_id);
            ctx = uavdc::core::PlanningContext::obtain(inst,
                                                       opts.hover_config());
            (void)ctx->candidates();
            (void)ctx->candidate_soa();
            (void)ctx->inverted_coverage();
        }
        if (opts.reduction.enabled()) {
            Scope s(t_, reduce_, req_id);
            (void)ctx->reduced_candidates(opts.reduction);
        }
        uavdc::core::PlanResult res;
        std::string planner_name;
        {
            Scope s(t_, t_.name_id("core.plan_ms." + req.planner), req_id);
            auto planner = uavdc::core::make_planner(req.planner, opts);
            res = planner->plan(*ctx);
            planner_name = planner->name();
        }
        Json result;
        {
            Scope s(t_, to_json_, req_id);
            result["plan"] = uavdc::io::to_json(res.plan);
        }
        result["instance_fingerprint"] =
            uavdc::service::fingerprint_to_hex(inst_fp);
        result["planner"] = planner_name;
        Json stats;
        stats["runtime_s"] = res.stats.runtime_s;
        stats["iterations"] = res.stats.iterations;
        stats["candidates"] = res.stats.candidates;
        stats["planned_mb"] = res.stats.planned_mb;
        stats["planned_energy_j"] = res.stats.planned_energy_j;
        result["stats"] = std::move(stats);
        // As in the service, the one dump of the result happens in put().
        Scope s(t_, cache_put_, req_id);
        return cache_.put(inst_fp, opts_fp, canon, check, std::move(result));
    }

    Tracer& t_;
    int request_, decode_, encode_, parse_, req_parse_, fingerprint_,
        cache_get_, cache_put_, response_line_, context_, reduce_, to_json_;
    uavdc::net::FrameDecoder decoder_;
    uavdc::core::PlannerOptions defaults_;
    uavdc::service::ResponseCache cache_{512};
    std::map<std::uint64_t, uavdc::model::Instance> registry_;
};

std::string framed(const std::string& payload) {
    std::string out;
    append_frame(out, payload);
    return out;
}

/// One replay pass from a fresh state (empty context LRU, cache and
/// registry) over `reqs`, set-up requests first, with the tracer switched
/// to `traced`; request ids are positions in `reqs`. Every response is
/// compared with `expected`; mismatches go to `rep`. Returns wall seconds,
/// the comparisons excluded.
double replay_pass(const std::vector<std::string>& reqs,
                   const std::vector<const std::string*>& expected,
                   Tracer& tracer, bool traced, TraceReport& rep) {
    uavdc::core::PlanningContextCache::global().clear();
    Replayer r(tracer);
    tracer.enable(traced);
    std::int64_t check_ns = 0;
    const auto t0 = now_ns();
    for (std::uint64_t id = 0; id < reqs.size(); ++id) {
        const std::string out = r.handle(reqs[id], id);
        const auto c0 = now_ns();
        Envelope env;
        const std::string_view payload =
            std::string_view(out).substr(out.find('\n') + 1);
        const bool same = scan_envelope(payload, env) && env.status == "ok" &&
                          without_runtime(env.result) == without_runtime(*expected[id]);
        if (!same) {
            ++rep.mismatched;
            if (rep.reasons.size() < 5) {
                rep.reasons.push_back("trace: replayed request " + std::to_string(id) +
                                      " answered unlike the servers");
            }
        }
        check_ns += now_ns() - c0;
    }
    const double secs = static_cast<double>(now_ns() - t0 - check_ns) * 1e-9;
    tracer.enable(false);
    return secs;
}

void write_spans(const Tracer& t, const std::string& path) {
    std::ofstream out(path);
    out << "name,start_ns,end_ns,parent,request\n";
    for (const auto& s : t.spans()) {
        out << t.names()[static_cast<std::size_t>(s.name)] << ',' << s.start
            << ',' << s.end << ',' << s.parent << ',' << s.req << '\n';
    }
}

}  // namespace

TraceReport run_trace(const Workload& wl, const TraceOptions& opt) {
    std::vector<std::string> reqs;
    for (const auto& p : wl.priming(opt.priming_round)) reqs.push_back(framed(p.payload));
    const std::size_t setup_n = reqs.size();
    for (std::uint64_t i = 0; i < opt.count; ++i) {
        reqs.push_back(framed(wl.request(opt.first + i).payload));
    }
    if (opt.expected.size() != reqs.size()) {
        throw std::logic_error("run_trace: one expected result per request");
    }
    TraceReport rep;
    Tracer tracer;
    // Untraced then traced pass over identical inputs and starting state;
    // their difference is the tracing overhead. A first, discarded pass
    // takes the process's own warm-up out of the comparison. Only the
    // first pass's mismatches are kept; the passes are deterministic.
    (void)replay_pass(reqs, opt.expected, tracer, false, rep);
    TraceReport again;
    const double off_s = replay_pass(reqs, opt.expected, tracer, false, again);
    const double on_s = replay_pass(reqs, opt.expected, tracer, true, again);
    if (rep.mismatched == 0 && again.mismatched > 0) rep = again;
    const std::size_t replay_spans = tracer.spans().size();

    if (opt.crossover != nullptr) {
        // Engine crossover on cold_paper instances: every engine of each
        // greedy planner on the same built context.
        tracer.enable(true);
        for (int i = 0; i < opt.crossover_instances; ++i) {
            const auto doc = Json::parse(
                opt.crossover->request(static_cast<std::uint64_t>(i)).payload);
            const auto req = uavdc::service::request_from_json(doc);
            uavdc::core::PlannerOptions opts;
            const auto ctx = uavdc::core::PlanningContext::obtain(
                *req.instance, opts.hover_config());
            // Lazy context parts and the context's scratch arenas are built
            // by an untimed plan, so the first engine timed does not pay
            // for them.
            (void)uavdc::core::make_planner("alg2", opts)->plan(*ctx);
            for (const char* planner : {"alg2", "alg3", "benchmark"}) {
                for (auto engine :
                     {uavdc::core::ScoringEngine::kIncremental,
                      uavdc::core::ScoringEngine::kReference,
                      uavdc::core::ScoringEngine::kIncrementalFast}) {
                    opts.scoring = engine;
                    auto p = uavdc::core::make_planner(planner, opts);
                    Scope s(tracer,
                            tracer.name_id(std::string("core.plan_ms.") +
                                           planner + "." +
                                           uavdc::core::to_string(engine)),
                            static_cast<std::uint64_t>(i));
                    (void)p->plan(*ctx);
                }
            }
        }
        tracer.enable(false);
    }
    if (!opt.spans_path.empty()) write_spans(tracer, opt.spans_path);

    // Aggregate: mean duration per span name over the measured requests,
    // or over the set-up requests for a layer the measured ones never call
    // (the planners on warm_hits); self time per layer.
    const auto& spans = tracer.spans();
    const auto& names = tracer.names();
    struct Sum {
        double ns{0.0};
        double calls{0.0};
    };
    std::vector<Sum> measured(names.size()), setup(names.size());
    std::vector<double> child(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        const auto d = static_cast<double>(s.end - s.start);
        auto& sum = i < replay_spans && s.req < setup_n ? setup : measured;
        sum[static_cast<std::size_t>(s.name)].ns += d;
        sum[static_cast<std::size_t>(s.name)].calls += 1.0;
        if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += d;
    }
    std::map<std::string, double> self_ns;
    double measured_plans = 0.0;
    for (std::size_t i = 0; i < replay_spans; ++i) {
        const auto& name = names[static_cast<std::size_t>(spans[i].name)];
        self_ns[name.substr(0, name.find('.'))] +=
            static_cast<double>(spans[i].end - spans[i].start) - child[i];
        if (spans[i].req >= setup_n && name.rfind("core.plan_ms.", 0) == 0) {
            measured_plans += 1.0;
        }
    }
    auto mean = [&](const std::string& name, double scale) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] != name) continue;
            const Sum& sum = measured[i].calls > 0 ? measured[i] : setup[i];
            return sum.calls > 0 ? sum.ns / sum.calls * scale : 0.0;
        }
        return 0.0;  // never called on this workload
    };

    auto& m = rep.metrics;
    m["net.frame_decode_ns"] = mean("net.frame_decode", 1.0);
    m["net.frame_encode_ns"] = mean("net.frame_encode", 1.0);
    m["io.json_parse_us"] = mean("io.json_parse", 1e-3);
    m["service.request_parse_us"] = mean("service.request_parse", 1e-3);
    m["service.fingerprint_us"] = mean("service.fingerprint", 1e-3);
    m["service.cache_get_us"] = mean("service.cache_get", 1e-3);
    m["service.cache_put_us"] = mean("service.cache_put", 1e-3);
    m["service.response_line_us"] = mean("service.response_line", 1e-3);
    m["io.plan_to_json_us"] = mean("io.plan_to_json", 1e-3);
    m["core.context_build_ms"] = mean("core.context_build", 1e-6);
    m["core.reduce_ms"] = mean("core.reduce", 1e-6);
    for (const char* p : {"alg1", "alg2", "alg3", "benchmark"}) {
        m[std::string("core.plan_ms.") + p] =
            mean(std::string("core.plan_ms.") + p, 1e-6);
        if (std::string(p) == "alg1") continue;
        for (const char* e : {"incremental", "reference", "incremental-fast"}) {
            const std::string n = std::string("core.plan_ms.") + p + "." + e;
            m[n] = mean(n, 1e-6);
        }
    }
    const double n = static_cast<double>(reqs.size());
    for (const char* layer : {"bench", "net", "io", "service", "core"}) {
        m[std::string("trace.self_us.") + layer] = self_ns[layer] / n * 1e-3;
    }
    m["trace.overhead_pct"] = off_s > 0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
    m["detail.trace.replayed"] = static_cast<double>(reqs.size());
    m["detail.trace.setup_requests"] = static_cast<double>(setup_n);
    m["detail.trace.measured_plan_calls"] = measured_plans;
    m["detail.trace.off_s"] = off_s;
    m["detail.trace.on_s"] = on_s;
    return rep;
}

}  // namespace pb
