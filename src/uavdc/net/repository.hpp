#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "uavdc/service/plan_service.hpp"

namespace uavdc::net {

/// Append-only, file-backed store of registered instances and cached
/// planning results, keyed exactly like the in-memory layers: instances by
/// their 64-bit content fingerprint, responses by the 128-bit
/// (instance fp, planner+options fp) cache key *plus* the PR 7 collision
/// guards (canonical options string, independent instance check hash) so a
/// reloaded entry is verified on every hit just like a live one.
///
/// Format: one JSON document per line —
///   {"type":"instance","fp":"16-hex","instance":{...}}
///   {"type":"response","key_hi":"16-hex","key_lo":"16-hex",
///    "canon":"...","check":"16-hex","result":{...}}
/// A response line splices the result's wire bytes in as they are. `load()`
/// ignores the logged `key_lo` and rekeys each response by
/// `service::options_key(canon)`, so a log written under an older options
/// hash still replays as cache hits.
///
/// Every append is flushed to the kernel before returning, so a SIGKILLed
/// process loses at most the record being written when the signal landed;
/// `load()` tolerates exactly that — a truncated or unparsable *tail* is
/// skipped (counted in `skipped`), everything before it replays.
///
/// Thread safety: appends take an internal mutex (PlanService store hooks
/// fire from multiple workers at once). `load()` is not concurrent with
/// appends — call it before serving.
class Repository {
  public:
    /// Open for appending (the file is created if missing; parent directory
    /// must exist). Throws std::runtime_error on I/O failure.
    explicit Repository(std::string path);
    ~Repository();

    Repository(const Repository&) = delete;
    Repository& operator=(const Repository&) = delete;

    struct LoadResult {
        std::uint64_t instances{0};
        std::uint64_t responses{0};
        std::uint64_t skipped{0};  ///< truncated/unparsable lines
    };

    /// Replay every record into the service via its `preload_*` entry
    /// points (which bypass the store hooks — reloading must not re-append
    /// what it just read).
    LoadResult load(service::PlanService& svc);

    /// Durability taps for `PlanService::Config::store`, bound to this
    /// repository. The repository must outlive the service.
    [[nodiscard]] service::PlanService::StoreHooks hooks();

    void append_instance(std::uint64_t fp, const model::Instance& inst);
    void append_response(std::uint64_t key_hi, std::uint64_t key_lo,
                         const std::string& options_canon,
                         std::uint64_t instance_check,
                         const std::string& result_wire);

    [[nodiscard]] std::uint64_t appended() const;
    [[nodiscard]] const std::string& path() const { return path_; }

  private:
    void append_line(const std::string& line);

    std::string path_;
    mutable std::mutex mu_;
    std::FILE* out_{nullptr};
    std::uint64_t appended_{0};
};

}  // namespace uavdc::net
