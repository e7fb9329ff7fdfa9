#include "uavdc/service/plan_service.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::service {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void fnv_double(std::uint64_t& h, double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    fnv_bytes(h, &bits, sizeof(bits));
}

void fnv_int(std::uint64_t& h, std::int64_t v) {
    fnv_bytes(h, &v, sizeof(v));
}

/// Fixed-width lowercase-hex bit pattern of a double (canonical, exact).
std::string hex_bits(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return fingerprint_to_hex(bits);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

io::Json stats_to_json(const core::PlanStats& s) {
    io::Json doc;
    doc["runtime_s"] = s.runtime_s;
    doc["iterations"] = s.iterations;
    doc["candidates"] = s.candidates;
    doc["planned_mb"] = s.planned_mb;
    doc["planned_energy_j"] = s.planned_energy_j;
    return doc;
}

bool known_planner(const std::string& name) {
    const auto names = core::planner_names();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/// Field-for-field equality over exactly the content that
/// `PlanningContext::instance_fingerprint` hashes. The log-label `name` is
/// deliberately excluded to match the fingerprint: two submissions of the
/// same physical instance under different labels are the same instance,
/// not a collision.
bool same_planning_content(const model::Instance& a,
                           const model::Instance& b) {
    const auto same_vec = [](const geom::Vec2& u, const geom::Vec2& v) {
        return u.x == v.x && u.y == v.y;
    };
    if (!same_vec(a.region.lo, b.region.lo) ||
        !same_vec(a.region.hi, b.region.hi) ||
        !same_vec(a.depot, b.depot)) {
        return false;
    }
    if (a.devices.size() != b.devices.size()) return false;
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        const auto& da = a.devices[i];
        const auto& db = b.devices[i];
        if (da.id != db.id || !same_vec(da.pos, db.pos) ||
            da.data_mb != db.data_mb) {
            return false;
        }
    }
    const auto& ua = a.uav;
    const auto& ub = b.uav;
    return ua.energy_j == ub.energy_j && ua.speed_mps == ub.speed_mps &&
           ua.hover_power_w == ub.hover_power_w &&
           ua.travel_rate == ub.travel_rate &&
           ua.travel_energy_model == ub.travel_energy_model &&
           ua.coverage_radius_m == ub.coverage_radius_m &&
           ua.bandwidth_mbps == ub.bandwidth_mbps;
}

}  // namespace

std::string canonical_options(const std::string& planner,
                              const core::PlannerOptions& opts) {
    std::string s = planner;
    s += ";d=" + hex_bits(opts.delta_m);
    s += ";mc=" + std::to_string(opts.max_candidates);
    s += ";k=" + std::to_string(opts.k);
    s += ";gi=" + std::to_string(opts.grasp_iterations);
    // The retired scoring switch, as the constant its default wrote, so
    // cache keys and repository logs written by earlier builds keep their
    // values.
    s += ";sc=0";
    // NOLINTNEXTLINE(uavdc-unchecked-narrowing): scoped-enum to int for
    // the cache-key text; enumerators are small compile-time constants
    s += ";so=" + std::to_string(static_cast<int>(opts.solver));
    const core::CandidateReductionConfig& r = opts.reduction;
    s += ";rd=" + std::to_string(r.dominance ? 1 : 0);
    s += ";rr=" + hex_bits(r.dominance_radius_m);
    s += ";rs=" + hex_bits(r.dominance_dwell_slack);
    s += ";rc=" + std::to_string(r.coarsen_factor);
    s += ";rb=" + hex_bits(r.refine_band_m);
    s += ";rk=" + std::to_string(r.consolidate_to);
    return s;
}

std::uint64_t options_key(const std::string& options_canon) {
    std::uint64_t h = kFnvOffset;
    fnv_bytes(h, options_canon.data(), options_canon.size());
    return h;
}

std::uint64_t instance_check_hash(const model::Instance& inst) {
    // Different seed than PlanningContext::instance_fingerprint (golden
    // ratio XOR), same content walk: a pair of instances would have to
    // collide under both unrelated seeds at once to fool the cache.
    std::uint64_t h = kFnvOffset ^ 0x9e3779b97f4a7c15ULL;
    fnv_double(h, inst.region.lo.x);
    fnv_double(h, inst.region.lo.y);
    fnv_double(h, inst.region.hi.x);
    fnv_double(h, inst.region.hi.y);
    fnv_double(h, inst.depot.x);
    fnv_double(h, inst.depot.y);
    fnv_int(h, static_cast<std::int64_t>(inst.devices.size()));
    for (const auto& d : inst.devices) {
        fnv_int(h, d.id);
        fnv_double(h, d.pos.x);
        fnv_double(h, d.pos.y);
        fnv_double(h, d.data_mb);
    }
    fnv_double(h, inst.uav.energy_j);
    fnv_double(h, inst.uav.speed_mps);
    fnv_double(h, inst.uav.hover_power_w);
    fnv_double(h, inst.uav.travel_rate);
    fnv_int(h, static_cast<std::int64_t>(inst.uav.travel_energy_model));
    fnv_double(h, inst.uav.coverage_radius_m);
    fnv_double(h, inst.uav.bandwidth_mbps);
    return h;
}

ResponseCache::Hit ResponseCache::get(std::uint64_t key_hi,
                                      std::uint64_t key_lo,
                                      const std::string& options_canon,
                                      std::uint64_t instance_check,
                                      bool /*ignored*/) {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(Key{key_hi, key_lo});
    // A key match whose canon/check differs is a fingerprint collision: the
    // stored payload belongs to a different (instance, options) pair.
    // Serving it would replay another request's plan as `ok`; miss instead.
    if (it == entries_.end() || it->second.options_canon != options_canon ||
        it->second.instance_check != instance_check) {
        ++misses_;
        return {};
    }
    Entry& e = it->second;
    e.last_use = ++clock_;
    ++hits_;
    return {true, e.wire};
}

std::shared_ptr<const std::string> ResponseCache::put(
    std::uint64_t key_hi, std::uint64_t key_lo, std::string options_canon,
    std::uint64_t instance_check, io::Json result) {
    // Serialize outside the lock: the dump of a large plan is the expensive
    // part, and every future hit reuses this one string.
    auto wire = std::make_shared<const std::string>(result.dump());
    std::lock_guard lock(mu_);
    entries_[Key{key_hi, key_lo}] =
        Entry{std::move(options_canon), instance_check, wire, ++clock_};
    if (entries_.size() > capacity_) {
        entries_.erase(std::min_element(
            entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) {
                return a.second.last_use < b.second.last_use;
            }));
    }
    return wire;
}

std::uint64_t ResponseCache::hits() const {
    std::lock_guard lock(mu_);
    return hits_;
}

std::uint64_t ResponseCache::misses() const {
    std::lock_guard lock(mu_);
    return misses_;
}

std::size_t ResponseCache::size() const {
    std::lock_guard lock(mu_);
    return entries_.size();
}

io::Json to_json(const ServiceStats& stats) {
    io::Json doc;
    doc["submitted"] = stats.submitted;
    doc["admitted"] = stats.admitted;
    doc["completed"] = stats.completed;
    doc["ok"] = stats.ok;
    doc["rejected_overload"] = stats.rejected_overload;
    doc["rejected_bad_request"] = stats.rejected_bad_request;
    doc["rejected_shutdown"] = stats.rejected_shutdown;
    doc["deadline_exceeded"] = stats.deadline_exceeded;
    doc["internal_errors"] = stats.internal_errors;
    doc["queue_depth"] = stats.queue_depth;
    doc["in_flight"] = stats.in_flight;
    doc["workers"] = stats.workers;
    io::Json cache;
    cache["hits"] = stats.cache_hits;
    cache["misses"] = stats.cache_misses;
    cache["hit_rate"] = stats.cache_hit_rate();
    doc["cache"] = std::move(cache);
    io::Json latency{io::Json::Object{}};
    for (const auto& [planner, lat] : stats.latency) {
        io::Json row;
        row["count"] = lat.count;
        row["mean_ms"] = lat.mean_ms;
        row["p50_ms"] = lat.p50_ms;
        row["p95_ms"] = lat.p95_ms;
        row["p99_ms"] = lat.p99_ms;
        latency[planner] = std::move(row);
    }
    doc["latency_ms"] = std::move(latency);
    return doc;
}

PlanService::PlanService() : PlanService(Config()) {}

PlanService::PlanService(Config cfg, util::ThreadPool* pool)
    : cfg_(cfg) {
    UAVDC_REQUIRE(cfg_.queue_capacity > 0)
        << "PlanService: queue_capacity must be positive";
    if (pool == nullptr) {
        owned_pool_ = std::make_unique<util::ThreadPool>(
            std::max<std::size_t>(1, cfg_.workers));
        pool_ = owned_pool_.get();
    } else {
        pool_ = pool;
    }
}

PlanService::~PlanService() { shutdown(); }

bool PlanService::heap_less(const Pending& a, const Pending& b) {
    if (a.req.priority != b.req.priority) {
        return a.req.priority < b.req.priority;
    }
    return a.seq > b.seq;  // lower seq = older = higher heap rank
}

bool PlanService::submit(PlanRequest req, Callback cb) {
    const auto now = Clock::now();
    {
        std::lock_guard lock(stats_mu_);
        ++counters_.submitted;
    }
    // Remember the inline instance before any shedding decision so that
    // pipelined instance_ref requests behind this one stay resolvable. The
    // resolution rides along to the worker, which then skips it.
    std::optional<Resolved> resolved;
    if (req.instance) resolved = resolve_instance(req);

    PlanResponse reject;
    reject.id = req.id;
    {
        std::unique_lock lock(mu_);
        if (stopping_) {
            reject.status = ResponseStatus::kShutdown;
            reject.error = "service is shutting down";
        } else if (queue_.size() >= cfg_.queue_capacity) {
            reject.status = ResponseStatus::kOverloaded;
            reject.error =
                "admission queue full (capacity " +
                std::to_string(cfg_.queue_capacity) + ")";
        } else {
            Pending p;
            p.req = std::move(req);
            p.resolved = std::move(resolved);
            p.cb = std::move(cb);
            p.admitted = now;
            p.has_deadline = p.req.deadline_ms > 0.0;
            if (p.has_deadline) {
                p.deadline =
                    now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  p.req.deadline_ms));
            }
            p.seq = next_seq_++;
            const std::uint64_t seq = p.seq;
            queue_.push_back(std::move(p));
            std::push_heap(queue_.begin(), queue_.end(), heap_less);
            lock.unlock();
            {
                std::lock_guard slock(stats_mu_);
                ++counters_.admitted;
            }
            try {
                pool_->submit([this] { run_one(); });
            } catch (...) {
                // An external pool shut down concurrently and refused the
                // ticket. Exactly one queued request now has no worker
                // coming for it; leaving it would hang drain(). Un-admit
                // this request by seq — or, if a racing ticket already
                // claimed it off the heap, shed the current top instead —
                // and answer the orphan with `shutdown`.
                Pending orphan;
                bool ours = false;
                bool have = false;
                {
                    std::lock_guard relock(mu_);
                    auto it = std::find_if(
                        queue_.begin(), queue_.end(),
                        [&](const Pending& q) { return q.seq == seq; });
                    if (it != queue_.end()) {
                        orphan = std::move(*it);
                        queue_.erase(it);
                        std::make_heap(queue_.begin(), queue_.end(),
                                       heap_less);
                        ours = have = true;
                    } else if (!queue_.empty()) {
                        std::pop_heap(queue_.begin(), queue_.end(),
                                      heap_less);
                        orphan = std::move(queue_.back());
                        queue_.pop_back();
                        have = true;
                    }
                    if (queue_.empty() && in_flight_ == 0) {
                        drained_cv_.notify_all();
                    }
                }
                if (have) {
                    PlanResponse r;
                    r.id = orphan.req.id;
                    r.status = ResponseStatus::kShutdown;
                    r.error = "worker pool rejected the request "
                              "(pool shutting down)";
                    {
                        std::lock_guard slock(stats_mu_);
                        ++counters_.completed;
                        ++counters_.rejected_shutdown;
                    }
                    orphan.cb(std::move(r));
                }
                return !ours;
            }
            return true;
        }
    }
    {
        std::lock_guard lock(stats_mu_);
        if (reject.status == ResponseStatus::kOverloaded) {
            ++counters_.rejected_overload;
        } else if (reject.status == ResponseStatus::kShutdown) {
            ++counters_.rejected_shutdown;
        }
        ++counters_.completed;
    }
    cb(std::move(reject));
    return false;
}

void PlanService::run_one() {
    Pending p;
    {
        std::lock_guard lock(mu_);
        // One ticket per admitted request: the queue cannot be empty here.
        UAVDC_CHECK(!queue_.empty()) << "PlanService: ticket without request";
        std::pop_heap(queue_.begin(), queue_.end(), heap_less);
        p = std::move(queue_.back());
        queue_.pop_back();
        ++in_flight_;
    }
    // The drain invariant must survive any throw below — most importantly
    // a throwing user callback, whose exception vanishes into the pool's
    // unobserved future. Skipping the decrement would wedge
    // drain()/shutdown() (and the destructor) forever, so a scope guard
    // decrements no matter how this frame exits.
    struct InFlightGuard {
        PlanService* svc;
        ~InFlightGuard() {
            std::lock_guard lock(svc->mu_);
            --svc->in_flight_;
            if (svc->queue_.empty() && svc->in_flight_ == 0) {
                svc->drained_cv_.notify_all();
            }
        }
    } guard{this};
    const auto start = Clock::now();

    PlanResponse resp;
    if (p.has_deadline && start >= p.deadline) {
        resp.status = ResponseStatus::kDeadlineExceeded;
        resp.error = "deadline expired after " +
                     std::to_string(ms_between(p.admitted, start)) +
                     " ms in queue";
    } else {
        resp = p.resolved ? execute_resolved(p.req, *p.resolved)
                          : execute(p.req);
        if (p.has_deadline && Clock::now() >= p.deadline &&
            resp.status == ResponseStatus::kOk) {
            // Cooperative timeout: the planner ran to completion past the
            // deadline; hand back the finished plan flagged as late/partial.
            resp.status = ResponseStatus::kDeadlineExceeded;
            resp.partial = true;
            resp.error = "deadline expired during planning";
        }
        note_latency(p.req.planner,
                     std::chrono::duration<double>(Clock::now() - start)
                         .count());
    }
    finish(std::move(resp), p, start);
}

void PlanService::finish(PlanResponse resp, const Pending& p,
                         Clock::time_point start) {
    resp.id = p.req.id;
    resp.queue_ms = ms_between(p.admitted, start);
    resp.exec_ms = ms_between(start, Clock::now());
    {
        std::lock_guard lock(stats_mu_);
        ++counters_.completed;
        switch (resp.status) {
            case ResponseStatus::kOk:
                ++counters_.ok;
                break;
            case ResponseStatus::kDeadlineExceeded:
                ++counters_.deadline_exceeded;
                break;
            case ResponseStatus::kBadRequest:
                ++counters_.rejected_bad_request;
                break;
            case ResponseStatus::kInternalError:
                ++counters_.internal_errors;
                break;
            case ResponseStatus::kShutdown:
                ++counters_.rejected_shutdown;
                break;
            default:
                break;
        }
    }
    p.cb(std::move(resp));
}

PlanService::Registered PlanService::register_instance(
    const model::Instance& inst, bool& inserted) {
    const std::uint64_t fp =
        core::PlanningContext::instance_fingerprint(inst);
    std::lock_guard lock(inst_mu_);
    const auto it = instances_.find(fp);
    inserted = it == instances_.end();
    if (!inserted) return it->second;
    Registered entry{std::make_shared<const model::Instance>(inst), fp,
                     instance_check_hash(inst)};
    instances_.emplace(fp, entry);
    instance_order_.push_back(fp);
    if (instance_order_.size() > cfg_.instance_capacity) {
        instances_.erase(instance_order_.front());
        instance_order_.pop_front();
    }
    return entry;
}

PlanService::Resolved PlanService::resolve_instance(const PlanRequest& req) {
    Resolved r;
    if (req.instance) {
        bool inserted = false;
        r.entry = register_instance(*req.instance, inserted);
        // The 64-bit fingerprint alone would silently resolve a colliding
        // instance to whatever was stored first — a wrong answer with no
        // detection path. We hold the submitted content right here, so
        // verify it (cheap next to planning) and fail loudly instead of
        // planning the wrong instance.
        if (!inserted &&
            !same_planning_content(*r.entry.instance, *req.instance)) {
            r.error = "instance fingerprint collision: inline instance "
                      "hashes to " + fingerprint_to_hex(r.entry.fingerprint) +
                      " but differs from the instance registered under "
                      "that fingerprint";
            r.status = ResponseStatus::kInternalError;
            r.entry = {};
        } else if (inserted && cfg_.store.on_instance) {
            // Durability tap runs outside inst_mu_: the hook does file I/O
            // and must not serialize every concurrent lookup behind it.
            cfg_.store.on_instance(r.entry.fingerprint, *r.entry.instance);
        }
        return r;
    }
    if (req.instance_ref) {
        std::lock_guard lock(inst_mu_);
        auto it = instances_.find(*req.instance_ref);
        if (it != instances_.end()) {
            r.entry = it->second;
            return r;
        }
        r.error = "unknown instance_ref '" +
                  fingerprint_to_hex(*req.instance_ref) +
                  "' (instances must be sent inline once before being "
                  "referenced)";
    } else {
        r.error =
            "request carries neither an inline instance nor an instance_ref";
    }
    r.status = ResponseStatus::kBadRequest;
    return r;
}

PlanResponse PlanService::execute(const PlanRequest& req) {
    return execute_resolved(req, resolve_instance(req));
}

PlanResponse PlanService::execute_resolved(const PlanRequest& req,
                                           const Resolved& r) {
    PlanResponse resp;
    resp.id = req.id;

    if (!r.entry.instance) {
        resp.status = r.status;
        resp.error = r.error;
        return resp;
    }
    if (!known_planner(req.planner)) {
        resp.status = ResponseStatus::kBadRequest;
        resp.error = "unknown planner '" + req.planner + "'";
        return resp;
    }
    const core::PlannerOptions opts = req.overrides.resolve(cfg_.defaults);
    const std::uint64_t inst_fp = r.entry.fingerprint;
    const std::string canon = canonical_options(req.planner, opts);
    const std::uint64_t opts_key = options_key(canon);
    const std::uint64_t check = r.entry.check_hash;

    if (auto hit = cache_.get(inst_fp, opts_key, canon, check); hit.found) {
        resp.cache_hit = true;
        resp.result_wire = std::move(hit.wire);
        return resp;
    }

    try {
        auto planner = core::make_planner(req.planner, opts);
        const auto ctx =
            core::PlanningContext::obtain(*r.entry.instance,
                                          opts.hover_config());
        auto res = planner->plan(*ctx);
        io::Json result;
        result["instance_fingerprint"] = fingerprint_to_hex(inst_fp);
        result["planner"] = planner->name();
        result["plan"] = io::to_json(res.plan);
        result["stats"] = stats_to_json(res.stats);
        auto wire =
            cache_.put(inst_fp, opts_key, canon, check, std::move(result));
        if (cfg_.store.on_response) {
            cfg_.store.on_response(inst_fp, opts_key, canon, check, *wire);
        }
        resp.result_wire = std::move(wire);
    } catch (const std::invalid_argument& ex) {
        // The instance is one the planner cannot take (a grid too large
        // for int cell ids): the request's fault, not the service's.
        resp.status = ResponseStatus::kBadRequest;
        resp.error = std::string("planner '") + req.planner +
                     "' rejected the instance: " + ex.what();
    } catch (const std::exception& ex) {
        resp.status = ResponseStatus::kInternalError;
        resp.error = std::string("planner '") + req.planner +
                     "' failed: " + ex.what();
    }
    return resp;
}

void PlanService::preload_instance(const model::Instance& inst) {
    bool inserted = false;
    (void)register_instance(inst, inserted);
}

void PlanService::preload_response(std::uint64_t key_hi, std::uint64_t key_lo,
                                   std::string options_canon,
                                   std::uint64_t instance_check,
                                   io::Json result) {
    cache_.put(key_hi, key_lo, std::move(options_canon), instance_check,
               std::move(result));
}

void PlanService::drain() {
    std::unique_lock lock(mu_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
}

void PlanService::shutdown() {
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    drain();
    if (owned_pool_) owned_pool_->shutdown();
}

void PlanService::note_latency(const std::string& planner, double seconds) {
    std::lock_guard lock(stats_mu_);
    latency_[planner].record(seconds);
}

ServiceStats PlanService::stats() const {
    ServiceStats out;
    {
        std::lock_guard lock(stats_mu_);
        out = counters_;
        for (const auto& [planner, hist] : latency_) {
            PlannerLatency lat;
            lat.count = hist.count();
            lat.mean_ms = hist.mean_s() * 1e3;
            lat.p50_ms = hist.quantile(0.50) * 1e3;
            lat.p95_ms = hist.quantile(0.95) * 1e3;
            lat.p99_ms = hist.quantile(0.99) * 1e3;
            out.latency[planner] = lat;
        }
    }
    out.cache_hits = cache_.hits();
    out.cache_misses = cache_.misses();
    {
        std::lock_guard lock(mu_);
        out.queue_depth = queue_.size();
        out.in_flight = in_flight_;
    }
    out.workers = pool_->num_threads();
    return out;
}

}  // namespace uavdc::service
