#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "uavdc/core/metrics.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/util/thread_pool.hpp"

namespace uavdc::service {

/// Per-planner wall-clock latency summary (milliseconds).
struct PlannerLatency {
    std::uint64_t count{0};
    double mean_ms{0.0};
    double p50_ms{0.0};
    double p95_ms{0.0};
    double p99_ms{0.0};
};

/// Point-in-time service counters (the `stats` control verb's payload).
/// Reconciliation invariants: `completed == ok + rejected_overload +
/// rejected_bad_request + rejected_shutdown + deadline_exceeded +
/// internal_errors` at all times, and `submitted == completed` once the
/// service has drained.
struct ServiceStats {
    std::uint64_t submitted{0};         ///< submit() calls
    std::uint64_t admitted{0};          ///< accepted into the queue
    std::uint64_t completed{0};         ///< responses delivered (admission
                                        ///< rejections included)
    std::uint64_t ok{0};                ///< status == ok
    std::uint64_t rejected_overload{0};
    std::uint64_t rejected_bad_request{0};
    std::uint64_t rejected_shutdown{0};  ///< shed while stopping
    std::uint64_t deadline_exceeded{0};
    std::uint64_t internal_errors{0};
    std::uint64_t cache_hits{0};
    std::uint64_t cache_misses{0};
    std::size_t queue_depth{0};         ///< requests waiting right now
    std::size_t in_flight{0};           ///< requests executing right now
    std::size_t workers{0};
    /// Keyed by planner name; execution latency only (queue time excluded).
    std::map<std::string, PlannerLatency> latency;

    [[nodiscard]] double cache_hit_rate() const {
        const auto total = cache_hits + cache_misses;
        return total ? static_cast<double>(cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

[[nodiscard]] io::Json to_json(const ServiceStats& stats);

/// Deterministic canonical encoding of (planner name, resolved options):
/// every option that can change a plan, doubles as fixed-width bit-pattern
/// hex. Two requests have equal encodings iff they would plan identically,
/// so the response cache stores it alongside the hashed key and verifies it
/// on every hit — a 128-bit fingerprint collision then reads as a miss
/// instead of replaying the other request's payload.
[[nodiscard]] std::string canonical_options(const std::string& planner,
                                            const core::PlannerOptions& opts);

/// Second, independently-seeded content hash over exactly the instance
/// fields `PlanningContext::instance_fingerprint` hashes. An instance pair
/// colliding under both hashes simultaneously would need a 128-bit
/// coincidence across two unrelated seeds; the cache cross-checks this
/// value on every hit.
[[nodiscard]] std::uint64_t instance_check_hash(const model::Instance& inst);

/// Bounded, thread-safe LRU response cache keyed on the (instance
/// fingerprint, planner+options fingerprint) pair. A hash index makes `get`
/// O(1); recency is a per-entry use stamp, so only a `put` past capacity
/// scans for the least recently used entry — and a `put` follows a miss that
/// just paid for a whole plan. The 128-bit key alone cannot prove identity,
/// so each entry also carries the canonical options encoding and the
/// independent instance check hash; `get` answers a hit only when all four
/// match, and counts anything less as a miss. A `put` under a key already
/// present replaces that entry (the colliding one included).
class ResponseCache {
  public:
    explicit ResponseCache(std::size_t capacity) : capacity_(capacity) {}

    struct Hit {
        bool found{false};
        io::Json result;
        /// `result` pre-serialized with dump(); shared with the cache entry
        /// so hot transports splice it instead of re-dumping the tree.
        std::shared_ptr<const std::string> wire;
    };

    /// Lookup; marks a verified hit most recently used and counts it. A key
    /// match whose canon/check differs counts as a miss. `copy_tree` false
    /// leaves Hit::result null and returns only the shared wire string —
    /// the deep copy of a plan tree is the dominant cost of a hit, and
    /// wire-only transports never look at the tree.
    [[nodiscard]] Hit get(std::uint64_t key_hi, std::uint64_t key_lo,
                          const std::string& options_canon,
                          std::uint64_t instance_check,
                          bool copy_tree = true);

    /// Insert or replace as most recently used, evicting the least recently
    /// used entry past capacity. Serializes `result` once and returns the
    /// shared wire form (the same string subsequent hits carry).
    std::shared_ptr<const std::string> put(std::uint64_t key_hi,
                                           std::uint64_t key_lo,
                                           std::string options_canon,
                                           std::uint64_t instance_check,
                                           io::Json result);

    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;
    [[nodiscard]] std::size_t size() const;

  private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;  ///< (hi, lo)
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            return static_cast<std::size_t>(
                k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
        }
    };
    struct Entry {
        std::string options_canon;    ///< verified on every key match
        std::uint64_t instance_check; ///< verified on every key match
        io::Json result;
        std::shared_ptr<const std::string> wire;  ///< result.dump(), shared
        std::uint64_t last_use;       ///< use stamp; the minimum is evicted
    };

    std::size_t capacity_;
    mutable std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
    std::uint64_t clock_{0};  ///< last issued use stamp
    std::uint64_t hits_{0};
    std::uint64_t misses_{0};
};

/// Embeddable, multi-threaded planning service.
///
/// Lifecycle of a request:
///   submit() -> [REJECTED overloaded|bad ref later|shutdown]
///            -> ADMITTED (bounded queue, priority desc then FIFO)
///            -> RUNNING on a util::ThreadPool worker
///            -> DONE (ok | deadline_exceeded | bad_request |
///                     internal_error), callback invoked exactly once.
///
/// Backpressure: admission is a hard bound — when the queue holds
/// `queue_capacity` requests, submit() answers `overloaded` immediately
/// (on the caller's thread) instead of buffering without limit; the caller
/// retries or sheds load.
///
/// Deadlines are cooperative: a request whose deadline passes while queued
/// is answered `deadline_exceeded` without planning; one that finishes
/// planning past its deadline is answered `deadline_exceeded` with
/// `partial = true` and the finished plan attached (planners are not
/// preempted mid-run).
///
/// Duplicate suppression: responses are cached by (instance fingerprint,
/// planner, resolved options). A hit returns the byte-identical `result`
/// payload of the original run without replanning, and costs no work per
/// device: the instance's fingerprint and check hash are computed once,
/// when the instance is registered, and a hit is an O(1) cache lookup.
/// Planning itself runs against the process-wide `PlanningContext` LRU, so
/// even cache *misses* on a known instance skip the candidate precompute.
///
/// Thread safety: submit/drain/stats/shutdown may be called from any
/// thread. Callbacks run on worker threads (or on the submitting thread
/// for admission rejections) and must synchronize their own sinks.
class PlanService {
  public:
    /// Durability taps: invoked (outside the service's locks, possibly from
    /// several worker threads at once — the sink must synchronize) whenever
    /// a *new* instance is registered or a *fresh* planning result enters
    /// the response cache. `net::Repository` appends these to its log so a
    /// restarted process can `preload_*` them back; embedders that don't
    /// need durability leave both empty.
    struct StoreHooks {
        std::function<void(std::uint64_t fp, const model::Instance& inst)>
            on_instance;
        std::function<void(std::uint64_t key_hi, std::uint64_t key_lo,
                           const std::string& options_canon,
                           std::uint64_t instance_check,
                           const io::Json& result)>
            on_response;
    };

    struct Config {
        std::size_t workers = 4;        ///< owned-pool size (ignored when an
                                        ///< external pool is supplied)
        std::size_t queue_capacity = 256;
        std::size_t response_cache_capacity = 512;
        std::size_t instance_capacity = 256;  ///< fingerprint registry bound
        core::PlannerOptions defaults;  ///< base options requests override
        StoreHooks store;               ///< durability taps (may be empty)
        /// Cache hits carry only `result_wire` (the pre-serialized result)
        /// and leave `PlanResponse::result` null, skipping the deep copy of
        /// the plan tree per hit. Transports that serialize exclusively via
        /// `response_line` (TCP server, router, JSONL) enable this; leave
        /// false when callbacks inspect `result` directly.
        bool wire_only_hits = false;
    };

    /// `pool` == nullptr: the service owns a `util::ThreadPool` of
    /// `cfg.workers` threads and joins it in shutdown(). Otherwise all
    /// execution shares the caller's pool (e.g. `util::global_pool()`),
    /// and shutdown() only drains this service's requests.
    PlanService();  ///< default Config, owned 4-worker pool
    explicit PlanService(Config cfg, util::ThreadPool* pool = nullptr);
    ~PlanService();

    PlanService(const PlanService&) = delete;
    PlanService& operator=(const PlanService&) = delete;

    using Callback = std::function<void(PlanResponse)>;

    /// Asynchronous entry point. Always results in exactly one callback
    /// invocation; returns false when the request was rejected at admission
    /// (overloaded / shutdown — the callback has already run inline).
    /// An inline instance is registered under its fingerprint before the
    /// capacity check, so pipelined `instance_ref` requests resolve even
    /// when this request itself is shed.
    bool submit(PlanRequest req, Callback cb);

    /// Synchronous execution (no admission queue, no deadline): resolve,
    /// plan, cache. Workers call this; tests use it as the reference path.
    [[nodiscard]] PlanResponse execute(const PlanRequest& req);

    /// Replay-from-repository entry points: identical bookkeeping to a live
    /// registration / cache fill, but the `StoreHooks` are *not* invoked —
    /// otherwise reloading a repository would immediately re-append every
    /// record it just read.
    void preload_instance(const model::Instance& inst);
    void preload_response(std::uint64_t key_hi, std::uint64_t key_lo,
                          std::string options_canon,
                          std::uint64_t instance_check, io::Json result);

    /// Block until every admitted request has been answered.
    void drain();

    /// Stop admitting, drain, and (for an owned pool) join all workers.
    /// Idempotent; the destructor calls it.
    void shutdown();

    [[nodiscard]] ServiceStats stats() const;

    [[nodiscard]] const Config& config() const { return cfg_; }

  private:
    using Clock = std::chrono::steady_clock;

    /// A registry entry: the instance and both of its content hashes,
    /// computed once when the instance is first registered.
    struct Registered {
        std::shared_ptr<const model::Instance> instance;
        std::uint64_t fingerprint{0};
        std::uint64_t check_hash{0};
    };

    /// Outcome of resolving a request's instance. On failure
    /// `entry.instance` is null and `error`/`status` say why
    /// (`bad_request` for client mistakes, `internal_error` for a detected
    /// fingerprint collision in the registry).
    struct Resolved {
        Registered entry;
        std::string error;
        ResponseStatus status{ResponseStatus::kOk};
    };

    struct Pending {
        PlanRequest req;
        /// Set when submit() already resolved an inline instance, so the
        /// worker neither hashes nor compares it again.
        std::optional<Resolved> resolved;
        Callback cb;
        Clock::time_point admitted;
        Clock::time_point deadline;  ///< admitted + deadline_ms
        bool has_deadline{false};
        std::uint64_t seq{0};
    };

    /// Max-heap order: priority desc, then seq asc (FIFO within a class).
    static bool heap_less(const Pending& a, const Pending& b);

    void run_one();
    void finish(PlanResponse resp, const Pending& p, Clock::time_point start);
    /// Resolve the request's instance (inline or by fingerprint ref).
    [[nodiscard]] Resolved resolve_instance(const PlanRequest& req);
    /// Return the entry registered under `inst`'s fingerprint, registering
    /// `inst` (both hashes computed here, once) when the fingerprint is new;
    /// `inserted` tells which. Registration evicts in FIFO order.
    [[nodiscard]] Registered register_instance(const model::Instance& inst,
                                               bool& inserted);
    /// execute() after resolution: plan or replay against `r`'s entry.
    [[nodiscard]] PlanResponse execute_resolved(const PlanRequest& req,
                                                const Resolved& r);
    void note_latency(const std::string& planner, double seconds);

    Config cfg_;
    std::unique_ptr<util::ThreadPool> owned_pool_;
    util::ThreadPool* pool_;  ///< owned_pool_.get() or the external pool

    mutable std::mutex mu_;
    std::condition_variable drained_cv_;
    std::vector<Pending> queue_;  ///< heap via std::push_heap/pop_heap
    std::size_t in_flight_{0};
    std::uint64_t next_seq_{0};
    bool stopping_{false};

    // Instance registry: fingerprint -> {instance, fingerprint, check hash},
    // hashed once on inline registration or preload_instance (which
    // repository reload goes through); bounded FIFO eviction.
    mutable std::mutex inst_mu_;
    std::unordered_map<std::uint64_t, Registered> instances_;
    std::deque<std::uint64_t> instance_order_;

    // Response cache: (instance fp, planner+options fp) -> result payload,
    // with the canonical options encoding and an independent instance check
    // hash verified on every hit (see ResponseCache).
    ResponseCache cache_{cfg_.response_cache_capacity};

    // Counters + per-planner latency histograms.
    mutable std::mutex stats_mu_;
    ServiceStats counters_;  ///< queue_depth/in_flight/latency filled lazily
    std::map<std::string, core::LatencyHistogram> latency_;
};

}  // namespace uavdc::service
