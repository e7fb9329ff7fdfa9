#include "workload.hpp"

#include <array>
#include <stdexcept>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace pb {

namespace {

using uavdc::io::Json;

constexpr std::array<const char*, 4> kPaperPlanners = {"alg1", "alg2", "alg3",
                                                       "benchmark"};

std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Deterministic 64-bit mix of (seed, salt, i).
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt, std::uint64_t i) {
    return splitmix(splitmix(seed ^ splitmix(salt)) + i);
}

uavdc::model::Instance paper_instance(int devices, std::uint64_t seed) {
    auto cfg = uavdc::workload::paper_default();
    cfg.num_devices = devices;
    return uavdc::workload::generate(cfg, seed);
}

std::string inline_request(const std::string& id, const std::string& planner,
                           const uavdc::model::Instance& inst,
                           bool reduce = false) {
    Json doc;
    doc["id"] = id;
    doc["planner"] = planner;
    doc["instance"] = uavdc::io::to_json(inst);
    if (reduce) {
        Json opts;
        opts["reduce"] = true;
        doc["options"] = std::move(opts);
    }
    return doc.dump();
}

std::string ref_hex(const uavdc::model::Instance& inst) {
    return uavdc::service::fingerprint_to_hex(
        uavdc::core::PlanningContext::instance_fingerprint(inst));
}

/// Instance `k` of a registered set, drawn until its fingerprint parity is
/// k % 2: the router shards by `fingerprint % shards`, so with two shards
/// each gets half the set for every seed instead of a seed-dependent split.
uavdc::model::Instance balanced(const uavdc::workload::GeneratorConfig& cfg,
                                std::uint64_t seed, std::uint64_t salt,
                                int k) {
    for (std::uint64_t attempt = 0;; ++attempt) {
        auto inst = uavdc::workload::generate(
            cfg, mix(seed, salt, static_cast<std::uint64_t>(k) * 1000 + attempt));
        if (uavdc::core::PlanningContext::instance_fingerprint(inst) % 2 ==
            static_cast<std::uint64_t>(k % 2)) {
            return inst;
        }
    }
}

/// A few registered paper-scale instances, requested by `instance_ref`
/// round-robin over (instance, planner): after priming, every request is a
/// response-cache hit.
class WarmHits final : public Workload {
  public:
    static constexpr int kInstances = 32;

    explicit WarmHits(std::uint64_t seed) : Workload(seed) {
        for (int k = 0; k < kInstances; ++k) {
            // Sizes stratified over 100..499, one instance of each stratum
            // per shard, so the mix is the same for every seed; the seed
            // picks layouts and volumes.
            auto cfg = uavdc::workload::paper_default();
            cfg.num_devices =
                100 + 25 * (k / 2) +
                static_cast<int>(mix(seed, 1, static_cast<std::uint64_t>(k)) % 25);
            insts_.push_back(balanced(cfg, seed, 2, k));
            refs_.push_back(ref_hex(insts_.back()));
        }
    }

    std::string name() const override { return "warm_hits"; }

    std::vector<Request> priming(int round) const override {
        std::vector<Request> out;
        for (int k = 0; k < kInstances; ++k) {
            for (int p = 0; p < 4; ++p) {
                const std::string id = "p" + std::to_string(round) + "." +
                                       std::to_string(k * 4 + p);
                // The first request of an instance registers it inline.
                out.push_back({p == 0 ? inline_request(id, kPaperPlanners[0],
                                                       insts_[static_cast<std::size_t>(k)])
                                      : by_ref(id, k, p),
                               k * 4 + p});
            }
        }
        return out;
    }

    /// Every (instance, planner) key once.
    std::uint64_t quality_requests() const override { return kInstances * 4; }

    Request request(std::uint64_t i) const override {
        const int key = static_cast<int>(i % (kInstances * 4));
        return {by_ref(std::to_string(i), key / 4, key % 4), key};
    }

  private:
    /// Planner p of instance k; alg2 runs with candidate reduction, so the
    /// set-up reaches every planning layer.
    std::string by_ref(const std::string& id, int k, int p) const {
        return "{\"id\":\"" + id + "\",\"instance_ref\":\"" +
               refs_[static_cast<std::size_t>(k)] +
               (p == 1 ? "\",\"options\":{\"reduce\":true}" : "\"") +
               ",\"planner\":\"" + kPaperPlanners[static_cast<std::size_t>(p)] +
               "\"}";
    }

    std::vector<uavdc::model::Instance> insts_;
    std::vector<std::string> refs_;
};

/// A fresh paper-scale instance inline with every request, cycling the
/// four paper planners: every response-cache lookup misses and every
/// planning context is built from scratch.
class ColdPaper final : public Workload {
  public:
    explicit ColdPaper(std::uint64_t seed) : Workload(seed) {}

    std::string name() const override { return "cold_paper"; }

    std::vector<Request> priming(int round) const override {
        // Priming alg2 runs with candidate reduction, so the set-up reaches
        // every planning layer.
        std::vector<Request> out;
        for (std::uint64_t k = 0; k < 16; ++k) {
            const std::string id =
                "p" + std::to_string(round) + "." + std::to_string(k);
            auto inst = paper_instance(
                500, mix(seed_, static_cast<std::uint64_t>(10 + round), k));
            out.push_back({k % 4 == 1 ? inline_request(id, "alg2", inst, true)
                                      : inline_request(id, kPaperPlanners[k % 4],
                                                       inst),
                           -1});
        }
        return out;
    }

    bool costly() const override { return true; }

    /// Ten cycles of the 20-request mix (5 size strata x 4 planners): a
    /// fixed set, averaged over enough instances that the seed moves it
    /// little.
    std::uint64_t quality_requests() const override { return 200; }

    Request request(std::uint64_t i) const override {
        // Five size strata x four planners cycle every 20 requests, so the
        // work mix is the same for every seed; jitter keeps 100..500.
        const int devices =
            100 + 80 * static_cast<int>(i % 5) +
            static_cast<int>(mix(seed_, 3, i) % 81);
        return {inline_request(std::to_string(i), kPaperPlanners[i % 4],
                               paper_instance(devices, mix(seed_, 4, i))),
                -1};
    }
};

/// A few registered scale-large instances, requested by ref to alg2/alg3
/// with candidate reduction whose options differ on every request: the
/// planning-context LRU hits, the response cache misses.
class LargeReplan final : public Workload {
  public:
    static constexpr int kInstances = 8;

    explicit LargeReplan(std::uint64_t seed) : Workload(seed) {
        for (int k = 0; k < kInstances; ++k) {
            // Sizes fixed at 1500..3000 so the work mix is the same for
            // every seed; the seed picks layouts and volumes.
            auto cfg = uavdc::workload::scale_large();
            cfg.num_devices = 1500 + 1500 * k / (kInstances - 1);
            insts_.push_back(balanced(cfg, seed, 6, k));
            refs_.push_back(ref_hex(insts_.back()));
        }
    }

    std::string name() const override { return "large_replan"; }

    std::vector<Request> priming(int round) const override {
        // Register each instance inline and build its planning context with
        // a cheap reduction (coarsen 8) that no measured request repeats.
        // The smallest instance of each shard gets alg1 or the benchmark
        // planner instead, so the set-up reaches every planner.
        std::vector<Request> out;
        for (int k = 0; k < kInstances; ++k) {
            Json opts;
            opts["reduce"] = true;
            opts["reduce_coarsen"] = 8;
            Json doc;
            doc["id"] = "p" + std::to_string(round) + "." + std::to_string(k);
            doc["planner"] = k == 0 ? "alg1" : k == 1 ? "benchmark" : "alg2";
            doc["instance"] =
                uavdc::io::to_json(insts_[static_cast<std::size_t>(k)]);
            doc["options"] = std::move(opts);
            out.push_back({doc.dump(), -1});
        }
        return out;
    }

    /// One full cycle: every instance x {alg2, alg3} x coarsening factor.
    std::uint64_t quality_requests() const override { return kInstances * 2 * 3; }

    Request request(std::uint64_t i) const override {
        const auto k = static_cast<std::size_t>(i % kInstances);
        const char* planner = (i / kInstances) % 2 == 0 ? "alg2" : "alg3";
        static constexpr std::array<int, 3> kCoarsen = {3, 4, 6};
        // A band unique to this request keeps (instance, planner, options)
        // from ever repeating, so the response cache always misses.
        const double band = 50.0 + 0.001 * static_cast<double>(i);
        Json opts;
        opts["reduce"] = true;
        opts["reduce_coarsen"] = kCoarsen[(i / (2 * kInstances)) % 3];
        opts["reduce_band_m"] = band;
        Json doc;
        doc["id"] = std::to_string(i);
        doc["instance_ref"] = refs_[k];
        doc["planner"] = planner;
        doc["options"] = std::move(opts);
        return {doc.dump(), -1};
    }

  private:
    std::vector<uavdc::model::Instance> insts_;
    std::vector<std::string> refs_;
};

}  // namespace

std::string Workload::probe(const std::string& id) const {
    return inline_request(id, "alg1", paper_instance(20, mix(seed_, 7, 0)));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    if (name == "warm_hits") return std::make_unique<WarmHits>(seed);
    if (name == "cold_paper") return std::make_unique<ColdPaper>(seed);
    if (name == "large_replan") return std::make_unique<LargeReplan>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace pb
