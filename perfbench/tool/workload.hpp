#pragma once

// Request generators for the three workloads. Every request is a pure
// function of (workload, seed, index), so the untraced TCP run, the
// reference check and the traced in-process replay all see the same bytes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb {

struct Request {
    std::string payload;  ///< request JSON, unframed
    /// Requests sharing a key ask for the same (instance, planner, options)
    /// and must be answered with byte-identical results; -1 = unique.
    int key{-1};
};

class Workload {
  public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual std::string name() const = 0;
    /// Requests sent during set-up round `round`; set-up ends when all are
    /// answered. Ids are `p<round>.<k>`.
    [[nodiscard]] virtual std::vector<Request> priming(int round) const = 0;
    /// Measured (or warm-up) request number `i`; its id is `std::to_string(i)`.
    [[nodiscard]] virtual Request request(std::uint64_t i) const = 0;
    /// Requests 0 .. quality_requests()-1 are the quality set behind
    /// volume_mb: one full cycle of the workload's request mix, sent by
    /// every run whatever its rate.
    [[nodiscard]] virtual std::uint64_t quality_requests() const = 0;
    /// True when building a request is costly enough (inline instances)
    /// that the client should build it before the phase that sends it.
    [[nodiscard]] virtual bool costly() const { return false; }
    /// A tiny instance for the pipeline-1 router-hop probe.
    [[nodiscard]] std::string probe(const std::string& id) const;

  protected:
    explicit Workload(std::uint64_t seed) : seed_(seed) {}
    std::uint64_t seed_;
};

/// "warm_hits" | "cold_paper" | "large_replan"; throws on anything else.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace pb
