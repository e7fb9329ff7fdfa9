#include "uavdc/service/plan_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/service/jsonl.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/service/workload_gen.hpp"
#include "uavdc/util/thread_pool.hpp"

#include "test_util.hpp"

namespace uavdc::service {
namespace {

PlanRequest make_request(std::string id, std::string planner,
                         const model::Instance& inst) {
    PlanRequest req;
    req.id = std::move(id);
    req.planner = std::move(planner);
    req.instance = inst;
    return req;
}

/// Deterministic identity of a result payload: the serialized plan plus
/// every stats field except wall-clock runtime. Two runs of the same
/// (instance, planner, options) must agree on this key bit for bit.
std::string result_key(const io::Json& result) {
    io::Json key;
    key["plan"] = result.at("plan");
    key["planner"] = result.at("planner");
    key["instance_fingerprint"] = result.at("instance_fingerprint");
    const io::Json& stats = result.at("stats");
    key["planned_mb"] = stats.at("planned_mb");
    key["planned_energy_j"] = stats.at("planned_energy_j");
    key["iterations"] = stats.at("iterations");
    key["candidates"] = stats.at("candidates");
    return key.dump();
}

/// `result_key` of a response's one stored result form, its wire bytes.
std::string result_key(const PlanResponse& resp) {
    if (!resp.result_wire) return "<no result>";
    return result_key(io::Json::parse(*resp.result_wire));
}

/// The same plan computed straight through the registry — the reference the
/// service must match byte for byte.
std::string direct_key(const model::Instance& inst,
                       const std::string& planner,
                       const core::PlannerOptions& opts) {
    const auto ctx = core::PlanningContext::obtain(inst, opts.hover_config());
    const auto impl = core::make_planner(planner, opts);
    const auto res = impl->plan(*ctx);
    io::Json key;
    key["plan"] = io::to_json(res.plan);
    key["planner"] = impl->name();  // display name, e.g. "alg2-greedy"
    key["instance_fingerprint"] = fingerprint_to_hex(
        core::PlanningContext::instance_fingerprint(inst));
    key["planned_mb"] = res.stats.planned_mb;
    key["planned_energy_j"] = res.stats.planned_energy_j;
    key["iterations"] = res.stats.iterations;
    key["candidates"] = res.stats.candidates;
    return key.dump();
}

core::PlannerOptions fast_options() {
    core::PlannerOptions opts;
    opts.delta_m = 25.0;
    opts.grasp_iterations = 3;
    return opts;
}

TEST(ServiceRequest, JsonRoundTrip) {
    const auto inst = uavdc::testing::small_instance(12, 200.0, 31);
    PlanRequest req = make_request("req-7", "alg3", inst);
    req.overrides.delta_m = 17.5;
    req.overrides.k = 3;
    req.overrides.solver = orienteering::SolverKind::kGrasp;
    req.priority = 4;
    req.deadline_ms = 250.0;

    const PlanRequest back = request_from_json(to_json(req));
    EXPECT_EQ(back.id, "req-7");
    EXPECT_EQ(back.planner, "alg3");
    ASSERT_TRUE(back.instance.has_value());
    EXPECT_EQ(core::PlanningContext::instance_fingerprint(*back.instance),
              core::PlanningContext::instance_fingerprint(inst));
    EXPECT_EQ(back.overrides.delta_m, 17.5);
    EXPECT_EQ(back.overrides.k, 3);
    EXPECT_EQ(back.overrides.solver, orienteering::SolverKind::kGrasp);
    EXPECT_FALSE(back.overrides.max_candidates.has_value());
    EXPECT_EQ(back.priority, 4);
    EXPECT_EQ(back.deadline_ms, 250.0);

    // Reference form survives too.
    PlanRequest ref;
    ref.id = "by-ref";
    ref.planner = "alg2";
    ref.instance_ref = 0xdeadbeefcafef00dULL;
    const PlanRequest ref_back = request_from_json(to_json(ref));
    ASSERT_TRUE(ref_back.instance_ref.has_value());
    EXPECT_EQ(*ref_back.instance_ref, 0xdeadbeefcafef00dULL);
}

TEST(ServiceRequest, FingerprintHexCodec) {
    for (const std::uint64_t fp :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xabcdef0123456789},
          ~std::uint64_t{0}}) {
        const std::string hex = fingerprint_to_hex(fp);
        EXPECT_EQ(hex.size(), 16u);
        EXPECT_EQ(fingerprint_from_hex(hex), fp);
    }
    EXPECT_THROW((void)fingerprint_from_hex("xyz"), std::runtime_error);
    EXPECT_THROW((void)fingerprint_from_hex(""), std::runtime_error);
}

TEST(ServiceRequest, MalformedRequestsThrow) {
    const auto inst = uavdc::testing::small_instance(8, 150.0, 32);
    io::Json ok = to_json(make_request("a", "alg2", inst));

    io::Json no_id = ok;
    no_id.as_object().erase("id");
    EXPECT_THROW((void)request_from_json(no_id), std::runtime_error);

    io::Json no_planner = ok;
    no_planner.as_object().erase("planner");
    EXPECT_THROW((void)request_from_json(no_planner), std::runtime_error);

    io::Json both = ok;
    both["instance_ref"] = fingerprint_to_hex(1);
    EXPECT_THROW((void)request_from_json(both), std::runtime_error);

    io::Json neither = ok;
    neither.as_object().erase("instance");
    EXPECT_THROW((void)request_from_json(neither), std::runtime_error);

    EXPECT_THROW((void)request_from_json(io::Json("not an object")),
                 std::runtime_error);
}

TEST(Service, ExecuteMatchesDirectRegistryCall) {
    const auto inst = uavdc::testing::small_instance(20, 260.0, 41);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    for (const std::string planner : {"alg2", "benchmark", "kmeans"}) {
        const PlanResponse resp =
            svc.execute(make_request("x-" + planner, planner, inst));
        ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
        EXPECT_EQ(result_key(resp),
                  direct_key(inst, planner, cfg.defaults));
    }
}

TEST(Service, PerRequestOverridesChangeTheResolvedOptions) {
    const auto inst = uavdc::testing::small_instance(20, 260.0, 42);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    PlanRequest req = make_request("coarse", "alg2", inst);
    req.overrides.delta_m = 60.0;
    const PlanResponse resp = svc.execute(req);
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;

    core::PlannerOptions coarse = cfg.defaults;
    coarse.delta_m = 60.0;
    EXPECT_EQ(result_key(resp), direct_key(inst, "alg2", coarse));
    // And it is genuinely different from the default-options plan.
    EXPECT_NE(result_key(resp),
              direct_key(inst, "alg2", cfg.defaults));
}

TEST(Service, ExactlyOneResponsePerRequestUnderConcurrentProducers) {
    const auto inst_a = uavdc::testing::small_instance(16, 220.0, 51);
    const auto inst_b = uavdc::testing::small_instance(22, 300.0, 52);
    PlanService::Config cfg;
    cfg.workers = 4;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 16;
    std::mutex mu;
    std::map<std::string, int> seen;        // id -> response count
    std::map<std::string, int> statuses;    // status string -> count

    util::ThreadPool producers(kProducers);
    std::vector<std::future<void>> futs;
    for (int p = 0; p < kProducers; ++p) {
        futs.push_back(producers.submit([&, p] {
            const std::vector<std::string> planners = {"alg2", "benchmark",
                                                       "kmeans", "sweep"};
            for (int i = 0; i < kPerProducer; ++i) {
                PlanRequest req = make_request(
                    "p" + std::to_string(p) + "-" + std::to_string(i),
                    planners[static_cast<std::size_t>(i) % planners.size()],
                    (i % 2 == 0) ? inst_a : inst_b);
                req.priority = i % 3;
                svc.submit(std::move(req), [&](PlanResponse resp) {
                    std::lock_guard lock(mu);
                    ++seen[resp.id];
                    ++statuses[to_string(resp.status)];
                });
            }
        }));
    }
    for (auto& f : futs) f.get();
    svc.drain();

    ASSERT_EQ(seen.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    for (const auto& [id, count] : seen) {
        EXPECT_EQ(count, 1) << "id " << id << " answered " << count
                            << " times";
    }
    EXPECT_EQ(statuses["ok"], kProducers * kPerProducer);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
}

TEST(Service, ConcurrentResponsesBitIdenticalToSerialExecution) {
    const auto inst = uavdc::testing::small_instance(18, 240.0, 61);
    PlanService::Config cfg;
    cfg.workers = 4;
    cfg.defaults = fast_options();

    const std::vector<std::string> planners = {"alg2", "alg3", "benchmark",
                                               "kmeans", "sweep"};
    std::mutex mu;
    std::map<std::string, std::string> keys;  // id -> result identity
    {
        PlanService svc(cfg);
        for (int round = 0; round < 3; ++round) {
            for (const auto& planner : planners) {
                svc.submit(
                    make_request(planner + "#" + std::to_string(round),
                                 planner, inst),
                    [&](PlanResponse resp) {
                        ASSERT_EQ(resp.status, ResponseStatus::kOk)
                            << resp.error;
                        std::lock_guard lock(mu);
                        keys[resp.id] = result_key(resp);
                    });
            }
        }
        svc.drain();
    }

    for (const auto& planner : planners) {
        const std::string expected = direct_key(inst, planner, cfg.defaults);
        for (int round = 0; round < 3; ++round) {
            EXPECT_EQ(keys.at(planner + "#" + std::to_string(round)),
                      expected)
                << planner << " diverged from the serial registry run";
        }
    }
}

TEST(Service, CacheHitPayloadEqualsMissPayload) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 71);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanRequest req = make_request("first", "alg2", inst);
    const PlanResponse miss = svc.execute(req);
    ASSERT_EQ(miss.status, ResponseStatus::kOk) << miss.error;
    EXPECT_FALSE(miss.cache_hit);

    PlanRequest again = req;
    again.id = "second";
    const PlanResponse hit = svc.execute(again);
    ASSERT_EQ(hit.status, ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    // Byte-identical payload, not merely equivalent.
    EXPECT_EQ(*hit.result_wire, *miss.result_wire);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.5);

    // A different planner or option set is a different cache key.
    PlanRequest other = req;
    other.id = "third";
    other.overrides.delta_m = 40.0;
    const PlanResponse third = svc.execute(other);
    ASSERT_EQ(third.status, ResponseStatus::kOk);
    EXPECT_FALSE(third.cache_hit);
}

TEST(Service, QueueFullRejectionsAreWellFormed) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 81);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.queue_capacity = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<PlanResponse> responses;
    const auto collect = [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        responses.push_back(std::move(resp));
    };

    // The pool's only worker is parked on the gate, so the first request
    // sits in the admission queue and the second overflows it.
    EXPECT_TRUE(svc.submit(make_request("q1", "alg2", inst), collect));
    EXPECT_FALSE(svc.submit(make_request("q2", "alg2", inst), collect));
    {
        std::lock_guard lock(mu);
        ASSERT_EQ(responses.size(), 1u);  // rejection answered inline
        EXPECT_EQ(responses[0].id, "q2");
        EXPECT_EQ(responses[0].status, ResponseStatus::kOverloaded);
        EXPECT_NE(responses[0].error.find("queue full"), std::string::npos);
        EXPECT_EQ(responses[0].result_wire, nullptr);
    }

    gate.set_value();
    blocker.get();
    svc.drain();
    {
        std::lock_guard lock(mu);
        ASSERT_EQ(responses.size(), 2u);
        EXPECT_EQ(responses[1].id, "q1");
        EXPECT_EQ(responses[1].status, ResponseStatus::kOk)
            << responses[1].error;
    }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_overload, 1u);
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.admitted, 1u);
    svc.shutdown();
}

TEST(Service, DeadlineExpiredInQueueIsWellFormed) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 82);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<PlanResponse> responses;
    PlanRequest req = make_request("late", "alg2", inst);
    req.deadline_ms = 1.0;
    svc.submit(std::move(req), [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        responses.push_back(std::move(resp));
    });

    // Hold the worker well past the 1 ms deadline before letting it pop.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
    blocker.get();
    svc.drain();

    std::lock_guard lock(mu);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].id, "late");
    EXPECT_EQ(responses[0].status, ResponseStatus::kDeadlineExceeded);
    EXPECT_NE(responses[0].error.find("deadline"), std::string::npos);
    EXPECT_FALSE(responses[0].partial);
    EXPECT_EQ(responses[0].result_wire, nullptr);
    EXPECT_GE(responses[0].queue_ms, 1.0);
    EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
    svc.shutdown();
}

TEST(Service, PriorityOrdersExecutionFifoWithinClass) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 83);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<std::string> order;
    const auto record = [&](PlanResponse resp) {
        ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
        std::lock_guard lock(mu);
        order.push_back(resp.id);
    };

    // All admitted while the worker is parked, so the pops happen strictly
    // by (priority desc, submission order).
    const auto enqueue = [&](const std::string& id, int priority) {
        PlanRequest req = make_request(id, "benchmark", inst);
        req.priority = priority;
        svc.submit(std::move(req), record);
    };
    enqueue("low", 0);
    enqueue("high", 5);
    enqueue("mid", 1);
    enqueue("high-2", 5);

    gate.set_value();
    blocker.get();
    svc.drain();

    std::lock_guard lock(mu);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "high");
    EXPECT_EQ(order[1], "high-2");  // FIFO within the priority class
    EXPECT_EQ(order[2], "mid");
    EXPECT_EQ(order[3], "low");
    svc.shutdown();
}

TEST(Service, BadRequestsAndShutdownAreStructured) {
    const auto inst = uavdc::testing::small_instance(12, 180.0, 84);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanResponse unknown =
        svc.execute(make_request("u", "no-such-planner", inst));
    EXPECT_EQ(unknown.status, ResponseStatus::kBadRequest);
    EXPECT_NE(unknown.error.find("unknown planner"), std::string::npos);

    PlanRequest dangling;
    dangling.id = "d";
    dangling.planner = "alg2";
    dangling.instance_ref = 0x1234;  // never registered
    const PlanResponse ref = svc.execute(dangling);
    EXPECT_EQ(ref.status, ResponseStatus::kBadRequest);
    EXPECT_NE(ref.error.find("instance_ref"), std::string::npos);

    svc.shutdown();
    bool called = false;
    const bool admitted =
        svc.submit(make_request("s", "alg2", inst), [&](PlanResponse resp) {
            called = true;
            EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
            EXPECT_EQ(resp.id, "s");
        });
    EXPECT_FALSE(admitted);
    EXPECT_TRUE(called);

    // Shutdown rejections are first-class in the counters: the per-status
    // counts must reconcile with `completed` (and with `submitted`, since
    // nothing is queued or in flight here).
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_shutdown, 1u);
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.completed,
              stats.ok + stats.rejected_overload +
                  stats.rejected_bad_request + stats.rejected_shutdown +
                  stats.deadline_exceeded + stats.internal_errors);
}

TEST(Service, RegionTooLargeForCellIdsIsABadRequest) {
    // One device in a 1e7 x 1e7 m field: the delta grid would need more
    // cells than int ids address. The grid planners refuse the instance,
    // naming the figure; the service answers bad_request and stays up.
    const auto vast =
        uavdc::testing::manual_instance({{{5.0e6, 5.0e6}, 100.0}}, 1.0e7);
    PlanService::Config cfg;
    cfg.workers = 1;
    PlanService svc(cfg);
    std::mutex mu;
    std::map<std::string, PlanResponse> got;
    auto submit = [&](PlanRequest req) {
        svc.submit(std::move(req), [&](PlanResponse resp) {
            std::lock_guard lock(mu);
            got[resp.id] = std::move(resp);
        });
    };
    for (const std::string planner : {"alg1", "alg2", "alg3"}) {
        submit(make_request(planner, planner, vast));
    }
    submit(make_request("benchmark", "benchmark", vast));
    submit(make_request("paper", "alg2", uavdc::testing::small_instance()));
    svc.drain();

    for (const std::string planner : {"alg1", "alg2", "alg3"}) {
        const PlanResponse& resp = got.at(planner);
        EXPECT_EQ(resp.status, ResponseStatus::kBadRequest) << planner;
        EXPECT_NE(resp.error.find("cells"), std::string::npos) << resp.error;
        EXPECT_NE(resp.error.find("cell-id limit"), std::string::npos)
            << resp.error;
    }
    EXPECT_EQ(got.at("benchmark").status, ResponseStatus::kOk)
        << got.at("benchmark").error;
    EXPECT_EQ(got.at("paper").status, ResponseStatus::kOk)
        << got.at("paper").error;
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.internal_errors, 0u);
    EXPECT_EQ(stats.rejected_bad_request, 3u);
    EXPECT_EQ(stats.ok, 2u);
}

TEST(Service, HostileGridsAnswerOkOrBadRequestNeverInternalError) {
    // Candidate work scales with the devices' coverage disks, not the grid:
    // a one-device 1e5 x 1e5 m field (1e8 cells) plans at once, a 0.05 m
    // grid over one device (4e8 cells) is admissible, and 500 devices at
    // 0.05 m exceed the work bound and are refused with the figure.
    const auto wide =
        uavdc::testing::manual_instance({{{5.0e4, 5.0e4}, 100.0}}, 1.0e5);
    const auto lone =
        uavdc::testing::manual_instance({{{500.0, 500.0}, 100.0}}, 1000.0);
    const auto crowd = uavdc::testing::small_instance(500, 1000.0, 3);
    const auto vast =
        uavdc::testing::manual_instance({{{5.0e6, 5.0e6}, 100.0}}, 1.0e7);
    PlanService::Config cfg;
    cfg.workers = 1;
    PlanService svc(cfg);
    std::mutex mu;
    std::map<std::string, PlanResponse> got;
    auto submit = [&](PlanRequest req) {
        svc.submit(std::move(req), [&](PlanResponse resp) {
            std::lock_guard lock(mu);
            got[resp.id] = std::move(resp);
        });
    };
    auto fine = [](PlanRequest req) {
        req.overrides.delta_m = 0.05;
        return req;
    };
    const auto start = std::chrono::steady_clock::now();
    submit(make_request("wide", "alg2", wide));
    submit(make_request("wide_alg3", "alg3", wide));
    svc.drain();
    const double wide_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    submit(fine(make_request("fine", "alg2", lone)));
    submit(fine(make_request("fine_crowd", "alg2", crowd)));
    submit(make_request("vast", "alg2", vast));
    submit(make_request("paper", "alg2", uavdc::testing::small_instance()));
    svc.drain();

    EXPECT_LT(wide_s, 5.0);
    for (const std::string id : {"wide", "wide_alg3", "paper"}) {
        EXPECT_EQ(got.at(id).status, ResponseStatus::kOk)
            << id << ": " << got.at(id).error;
    }
    const PlanResponse& one = got.at("fine");
    if (one.status == ResponseStatus::kBadRequest) {
        EXPECT_NE(one.error.find("grid cells"), std::string::npos)
            << one.error;
    } else {
        EXPECT_EQ(one.status, ResponseStatus::kOk) << one.error;
    }
    const PlanResponse& crowded = got.at("fine_crowd");
    EXPECT_EQ(crowded.status, ResponseStatus::kBadRequest) << crowded.error;
    EXPECT_NE(crowded.error.find("grid cells within R0"), std::string::npos)
        << crowded.error;
    EXPECT_NE(crowded.error.find("limit"), std::string::npos)
        << crowded.error;
    EXPECT_EQ(got.at("vast").status, ResponseStatus::kBadRequest)
        << got.at("vast").error;
    EXPECT_EQ(svc.stats().internal_errors, 0u);
}

TEST(Service, VastSweepIsRefusedBeforeItAllocates) {
    // The sweep baseline's route grows with the field's area. A one-device
    // 1e6 x 1e6 m field needs about 2.2e8 waypoints, several GB, and is
    // refused with the figure; a 1e5 m field (2.2e6 waypoints) still plans.
    const auto vast =
        uavdc::testing::manual_instance({{{5.0e5, 5.0e5}, 100.0}}, 1.0e6);
    const auto wide =
        uavdc::testing::manual_instance({{{5.0e4, 5.0e4}, 100.0}}, 1.0e5);
    PlanService::Config cfg;
    cfg.workers = 1;
    PlanService svc(cfg);
    std::mutex mu;
    std::map<std::string, PlanResponse> got;
    for (auto [id, inst] : {std::pair{"vast", &vast}, {"wide", &wide}}) {
        svc.submit(make_request(id, "sweep", *inst), [&](PlanResponse resp) {
            std::lock_guard lock(mu);
            got[resp.id] = std::move(resp);
        });
    }
    svc.drain();

    const PlanResponse& refused = got.at("vast");
    EXPECT_EQ(refused.status, ResponseStatus::kBadRequest) << refused.error;
    EXPECT_NE(refused.error.find("waypoints"), std::string::npos)
        << refused.error;
    EXPECT_NE(refused.error.find("limit"), std::string::npos)
        << refused.error;
    EXPECT_EQ(got.at("wide").status, ResponseStatus::kOk)
        << got.at("wide").error;
    EXPECT_EQ(svc.stats().internal_errors, 0u);
}

TEST(Service, ThrowingCallbackDoesNotWedgeDrain) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 86);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    for (int i = 0; i < 4; ++i) {
        svc.submit(make_request("t" + std::to_string(i), "alg2", inst),
                   [](PlanResponse) {
                       throw std::runtime_error("sink failed");
                   });
    }
    // Regression: a throwing user callback used to skip the in_flight_
    // decrement, wedging drain()/shutdown() (and the destructor) forever.
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
    svc.shutdown();
}

TEST(Service, ExternalPoolShutdownAnswersInsteadOfHangingDrain) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 88);
    util::ThreadPool pool(1);
    pool.shutdown();  // the pool refuses every ticket from now on

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    bool called = false;
    const bool admitted =
        svc.submit(make_request("x", "alg2", inst), [&](PlanResponse resp) {
            called = true;
            EXPECT_EQ(resp.id, "x");
            EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
            EXPECT_EQ(resp.result_wire, nullptr);
        });
    // Regression: the request used to stay queued with no ticket and no
    // callback, hanging drain(); now it is un-admitted and answered.
    EXPECT_FALSE(admitted);
    EXPECT_TRUE(called);
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_shutdown, 1u);
    EXPECT_EQ(stats.queue_depth, 0u);
    svc.shutdown();
}

TEST(Service, InlineResubmissionUnderAnotherLabelIsNotACollision) {
    const auto inst = uavdc::testing::small_instance(12, 180.0, 87);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    ASSERT_EQ(svc.execute(make_request("a", "alg2", inst)).status,
              ResponseStatus::kOk);

    // Same planning content, different log label: the fingerprint ignores
    // `name`, and the registry's collision cross-check must agree instead
    // of reporting a spurious collision.
    auto renamed = inst;
    renamed.name = "same-content-new-label";
    const PlanResponse resp = svc.execute(make_request("b", "alg2", renamed));
    EXPECT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.cache_hit);
    svc.shutdown();
}

TEST(Service, InlineInstanceRegistersForLaterRefs) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 85);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanResponse first =
        svc.execute(make_request("inline", "alg2", inst));
    ASSERT_EQ(first.status, ResponseStatus::kOk);

    PlanRequest by_ref;
    by_ref.id = "ref";
    by_ref.planner = "benchmark";
    by_ref.instance_ref =
        core::PlanningContext::instance_fingerprint(inst);
    const PlanResponse second = svc.execute(by_ref);
    ASSERT_EQ(second.status, ResponseStatus::kOk) << second.error;
    EXPECT_EQ(result_key(second),
              direct_key(inst, "benchmark", cfg.defaults));
}

TEST(Service, StatsReportLatencyQuantilesPerPlanner) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 86);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    std::mutex mu;
    int ok = 0;
    for (int i = 0; i < 6; ++i) {
        PlanRequest req = make_request("s" + std::to_string(i),
                                       i % 2 ? "alg2" : "benchmark", inst);
        if (i >= 2) req.overrides.delta_m = 20.0 + i;  // defeat the cache
        svc.submit(std::move(req), [&](PlanResponse resp) {
            ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
            std::lock_guard lock(mu);
            ++ok;
        });
    }
    svc.drain();
    EXPECT_EQ(ok, 6);

    const ServiceStats stats = svc.stats();
    ASSERT_TRUE(stats.latency.count("alg2"));
    ASSERT_TRUE(stats.latency.count("benchmark"));
    for (const auto& [planner, lat] : stats.latency) {
        EXPECT_GT(lat.count, 0u) << planner;
        EXPECT_GE(lat.p50_ms, 0.0) << planner;
        EXPECT_LE(lat.p50_ms, lat.p95_ms) << planner;
        EXPECT_LE(lat.p95_ms, lat.p99_ms) << planner;
        EXPECT_GT(lat.mean_ms, 0.0) << planner;
    }
    EXPECT_EQ(stats.workers, 2u);
}

// ---------------------------------------------------------------------------
// JSONL transport
// ---------------------------------------------------------------------------

std::vector<io::Json> parse_lines(const std::string& text) {
    std::vector<io::Json> docs;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) docs.push_back(io::Json::parse(line));
    }
    return docs;
}

TEST(ServiceJsonl, GeneratedWorkloadIsDeterministic) {
    WorkloadGenConfig cfg;
    cfg.requests = 24;
    cfg.instances = 3;
    cfg.seed = 5;
    const std::string a = generate_jsonl_workload(cfg);
    const std::string b = generate_jsonl_workload(cfg);
    EXPECT_EQ(a, b);
    cfg.seed = 6;
    EXPECT_NE(a, generate_jsonl_workload(cfg));
}

TEST(ServiceJsonl, EndToEndOneResponsePerLine) {
    WorkloadGenConfig gen;
    gen.requests = 40;
    gen.instances = 3;
    gen.seed = 11;
    gen.deadline_prob = 0.0;  // all-ok run; expiry is covered elsewhere
    const std::string workload = generate_jsonl_workload(gen);

    JsonlConfig cfg;
    cfg.service.workers = 4;
    cfg.service.defaults = fast_options();
    std::istringstream in(workload);
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    EXPECT_EQ(summary.requests, 40u);
    EXPECT_EQ(summary.parse_errors, 0u);
    EXPECT_GT(summary.control, 0u);
    EXPECT_EQ(summary.lines,
              summary.requests + summary.control + summary.parse_errors);

    const auto docs = parse_lines(out.str());
    EXPECT_EQ(docs.size(), summary.lines);
    std::map<std::string, int> ids;
    for (const auto& doc : docs) {
        if (doc.contains("op")) {
            EXPECT_EQ(doc.string_or("status", ""), "ok");
            EXPECT_TRUE(doc.contains("stats"));
            continue;
        }
        ++ids[doc.string_or("id", "")];
        EXPECT_EQ(doc.string_or("status", ""), "ok")
            << doc.string_or("error", "");
    }
    ASSERT_EQ(ids.size(), 40u);
    for (const auto& [id, count] : ids) {
        EXPECT_EQ(count, 1) << id;
    }

    // Byte-identical across sessions: same workload, fresh service.
    std::istringstream in2(workload);
    std::ostringstream out2;
    (void)serve_jsonl(in2, out2, cfg);
    std::map<std::string, std::string> first_keys;
    std::map<std::string, std::string> second_keys;
    for (const auto& doc : docs) {
        if (!doc.contains("op")) {
            first_keys[doc.string_or("id", "")] =
                result_key(doc.at("result"));
        }
    }
    for (const auto& doc : parse_lines(out2.str())) {
        if (!doc.contains("op")) {
            second_keys[doc.string_or("id", "")] =
                result_key(doc.at("result"));
        }
    }
    EXPECT_EQ(first_keys, second_keys);

    // Cache effectiveness is visible in the final stats.
    EXPECT_GT(summary.stats.cache_hits, 0u);
    EXPECT_EQ(summary.stats.ok, 40u);
}

TEST(ServiceJsonl, MalformedLinesGetErrorResponsesNotAborts) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 21);
    std::ostringstream input;
    input << "this is not json\n";
    input << R"({"op":"frobnicate","id":"c1"})" << "\n";
    input << R"({"id":"m1","planner":"alg2"})" << "\n";  // no instance
    {
        PlanRequest ok_req;
        ok_req.id = "ok1";
        ok_req.planner = "benchmark";
        ok_req.instance = inst;
        input << to_json(ok_req).dump() << "\n";
    }

    JsonlConfig cfg;
    cfg.service.workers = 2;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    EXPECT_EQ(summary.lines, 4u);
    EXPECT_EQ(summary.parse_errors, 3u);
    EXPECT_EQ(summary.requests, 1u);

    int bad = 0;
    int ok = 0;
    for (const auto& doc : parse_lines(out.str())) {
        const std::string status = doc.string_or("status", "");
        if (status == "bad_request") {
            ++bad;
            EXPECT_FALSE(doc.string_or("error", "").empty());
        } else if (status == "ok") {
            ++ok;
            EXPECT_EQ(doc.string_or("id", ""), "ok1");
        }
    }
    EXPECT_EQ(bad, 3);
    EXPECT_EQ(ok, 1);
}

TEST(ServiceJsonl, DrainVerbIsABarrier) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 22);
    PlanRequest req;
    req.id = "before-drain";
    req.planner = "alg2";
    req.instance = inst;

    std::ostringstream input;
    input << to_json(req).dump() << "\n";
    input << R"({"op":"drain","id":"the-drain"})" << "\n";

    JsonlConfig cfg;
    cfg.service.workers = 2;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    (void)serve_jsonl(in, out, cfg);

    const auto docs = parse_lines(out.str());
    ASSERT_EQ(docs.size(), 2u);
    // The drain reply comes after the request it barriers on, and its
    // snapshot already counts that request as completed.
    EXPECT_EQ(docs[0].string_or("id", ""), "before-drain");
    EXPECT_EQ(docs[1].string_or("id", ""), "the-drain");
    EXPECT_EQ(docs[1].at("stats").number_or("completed", -1.0), 1.0);
}

TEST(Service, OutOfRangeWorkMultipliersAreBadRequests) {
    // Alg. 3's k and Alg. 1's GRASP restarts multiply a plan's work
    // linearly. Out-of-range values are refused at parse time, naming the
    // field and its bound; k = 0 used to reach the planner's contract check
    // and come back as internal_error.
    const auto inst = uavdc::testing::small_instance(12, 180.0, 93);
    struct Probe {
        const char* planner;
        const char* field;
        double value;
        int bound;
    };
    const Probe hostile[] = {
        {"alg3", "k", 0.0, kMaxPartialK},
        {"alg3", "k", -3.0, kMaxPartialK},
        {"alg3", "k", 2.0e6, kMaxPartialK},
        {"alg1", "grasp_iterations", 2.0e4, kMaxGraspIterations},
        {"alg1", "grasp_iterations", -1.0, kMaxGraspIterations},
    };
    std::ostringstream input;
    for (std::size_t i = 0; i < std::size(hostile); ++i) {
        io::Json req = to_json(make_request("h" + std::to_string(i),
                                            hostile[i].planner, inst));
        req["options"][hostile[i].field] = hostile[i].value;
        input << req.dump() << "\n";
    }
    for (const auto& [id, planner, field, value] :
         {std::tuple{"ok-k", "alg3", "k", kMaxPartialK},
          std::tuple{"ok-grasp", "alg1", "grasp_iterations", 3}}) {
        io::Json req = to_json(make_request(id, planner, inst));
        req["options"][field] = value;
        input << req.dump() << "\n";
    }

    JsonlConfig cfg;
    cfg.service.workers = 1;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    std::map<std::string, io::Json> got;
    for (auto& doc : parse_lines(out.str())) {
        got[doc.string_or("id", "")] = std::move(doc);
    }
    for (std::size_t i = 0; i < std::size(hostile); ++i) {
        const io::Json& resp = got.at("h" + std::to_string(i));
        const std::string error = resp.string_or("error", "");
        EXPECT_EQ(resp.string_or("status", ""), "bad_request") << error;
        EXPECT_NE(error.find(std::string("'") + hostile[i].field + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(std::to_string(hostile[i].bound)),
                  std::string::npos)
            << error;
    }
    EXPECT_EQ(got.at("ok-k").string_or("status", ""), "ok");
    EXPECT_EQ(got.at("ok-grasp").string_or("status", ""), "ok");
    EXPECT_EQ(summary.stats.internal_errors, 0u);
}

TEST(Service, UnknownOptionKeysAreBadRequests) {
    // An `options` key the schema does not list is refused at parse time,
    // naming the key and the accepted ones, and the service goes on
    // answering. "scoring" was an option once; a misspelt reduction key
    // must not plan silently without its band.
    const auto inst = uavdc::testing::small_instance(12, 180.0, 93);
    std::ostringstream input;
    io::Json retired = to_json(make_request("retired", "alg2", inst));
    retired["options"]["scoring"] = "reference";
    input << retired.dump() << "\n";
    io::Json misspelt = to_json(make_request("misspelt", "alg2", inst));
    misspelt["options"]["reduce"] = true;
    misspelt["options"]["reduce_bnad_m"] = 40.0;
    input << misspelt.dump() << "\n";
    io::Json good = to_json(make_request("next", "alg2", inst));
    good["options"]["reduce"] = true;
    good["options"]["reduce_band_m"] = 40.0;
    input << good.dump() << "\n";

    JsonlConfig cfg;
    cfg.service.workers = 1;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    std::map<std::string, io::Json> got;
    for (auto& doc : parse_lines(out.str())) {
        got[doc.string_or("id", "")] = std::move(doc);
    }
    for (const auto& [id, key] :
         {std::pair<std::string, std::string>{"retired", "scoring"},
          {"misspelt", "reduce_bnad_m"}}) {
        const io::Json& resp = got.at(id);
        const std::string error = resp.string_or("error", "");
        EXPECT_EQ(resp.string_or("status", ""), "bad_request") << error;
        EXPECT_NE(error.find("unknown option '" + key + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("reduce_band_m"), std::string::npos) << error;
    }
    EXPECT_EQ(got.at("next").string_or("status", ""), "ok");
    EXPECT_EQ(summary.stats.internal_errors, 0u);
}

/// `response_line` is the one response serializer: its bytes must be the
/// io::Json dump of the document they parse to, or a client that re-dumps
/// a response (and the golden check) would see other bytes.
void expect_line_is_its_own_dump(const PlanResponse& resp) {
    const std::string line = response_line(resp);
    const io::Json doc = io::Json::parse(line);
    EXPECT_EQ(doc.dump(), line);
    EXPECT_EQ(doc.at("id").as_string(), resp.id);
    EXPECT_EQ(doc.at("status").as_string(), to_string(resp.status));
    EXPECT_EQ(doc.contains("result"), resp.result_wire != nullptr);
    if (resp.result_wire) EXPECT_EQ(doc.at("result").dump(), *resp.result_wire);
}

TEST(Service, ResponseLineIsItsOwnJsonDump) {
    const auto inst = uavdc::testing::small_instance(12, 200.0, 23);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    PlanRequest req;
    req.id = "line-check \"quoted\"\n";  // exercises escaping in the id
    req.planner = "alg2";
    req.instance = inst;
    std::shared_ptr<const std::string> wire;
    for (int pass = 0; pass < 2; ++pass) {  // fresh result, then cache hit
        std::promise<PlanResponse> done;
        svc.submit(req, [&](PlanResponse resp) {
            done.set_value(std::move(resp));
        });
        const PlanResponse resp = done.get_future().get();
        ASSERT_EQ(resp.status, ResponseStatus::kOk);
        EXPECT_EQ(resp.cache_hit, pass == 1);
        ASSERT_NE(resp.result_wire, nullptr);
        expect_line_is_its_own_dump(resp);
        wire = resp.result_wire;
    }
    svc.drain();

    // Every status, with every cache_hit/partial/error mix, with and
    // without a result; timing fields land with full precision.
    for (const ResponseStatus status :
         {ResponseStatus::kOk, ResponseStatus::kOverloaded,
          ResponseStatus::kDeadlineExceeded, ResponseStatus::kBadRequest,
          ResponseStatus::kInternalError, ResponseStatus::kShutdown}) {
        for (int mix = 0; mix < 16; ++mix) {
            PlanResponse resp;
            resp.id = "mix-" + std::to_string(mix) + "\té";
            resp.status = status;
            resp.cache_hit = (mix & 1) != 0;
            resp.partial = (mix & 2) != 0;
            if (mix & 4) resp.error = "late\tplan \"x\"\x01";
            if (mix & 8) resp.result_wire = wire;
            resp.queue_ms = 0.1234567890123 * mix;
            resp.exec_ms = 3.0 + mix;
            SCOPED_TRACE(to_string(status) + " mix " + std::to_string(mix));
            expect_line_is_its_own_dump(resp);
        }
    }
}

// --- Hits verify against the hashes stored at registration.

/// One response record exactly as the durability tap sees it.
struct StoredResponse {
    std::uint64_t key_hi{0};
    std::uint64_t key_lo{0};
    std::string canon;
    std::uint64_t check{0};
    std::string wire;
};

/// Plan `inst` once on a clean service and capture the record its
/// `on_response` tap emits: the real cache key, canon and check hash.
StoredResponse clean_record(const model::Instance& inst,
                            const std::string& planner) {
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    StoredResponse rec;
    cfg.store.on_response = [&](std::uint64_t hi, std::uint64_t lo,
                                const std::string& canon, std::uint64_t check,
                                const std::string& wire) {
        rec = {hi, lo, canon, check, wire};
    };
    PlanService svc(cfg);
    EXPECT_EQ(svc.execute(make_request("clean", planner, inst)).status,
              ResponseStatus::kOk);
    return rec;
}

PlanRequest by_ref(std::string id, std::string planner,
                   const model::Instance& inst) {
    PlanRequest req;
    req.id = std::move(id);
    req.planner = std::move(planner);
    req.instance_ref = core::PlanningContext::instance_fingerprint(inst);
    return req;
}

/// Seed a by-ref service with `forged` under the clean record's key; the
/// request must replan (a counted miss) to the clean service's result, and
/// the replan must replace the forged entry so the next request hits.
void expect_forged_entry_misses(const model::Instance& inst,
                                const StoredResponse& clean,
                                std::string forged_canon,
                                std::uint64_t forged_check) {
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);
    svc.preload_instance(inst);
    io::Json forged;
    forged["forged"] = true;
    svc.preload_response(clean.key_hi, clean.key_lo, std::move(forged_canon),
                         forged_check, forged);

    const PlanResponse miss = svc.execute(by_ref("a", "alg2", inst));
    ASSERT_EQ(miss.status, ResponseStatus::kOk) << miss.error;
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_EQ(result_key(miss), result_key(io::Json::parse(clean.wire)));
    EXPECT_EQ(svc.stats().cache_misses, 1u);
    EXPECT_EQ(svc.stats().cache_hits, 0u);

    const PlanResponse hit = svc.execute(by_ref("b", "alg2", inst));
    ASSERT_EQ(hit.status, ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(*hit.result_wire, *miss.result_wire);
}

TEST(Service, ByRefHitWithWrongInstanceCheckReplans) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 91);
    const StoredResponse clean = clean_record(inst, "alg2");
    expect_forged_entry_misses(inst, clean, clean.canon, clean.check ^ 1);
}

TEST(Service, ByRefHitWithWrongOptionsCanonReplans) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 92);
    const StoredResponse clean = clean_record(inst, "alg2");
    expect_forged_entry_misses(inst, clean, clean.canon + ";x", clean.check);
}

TEST(Service, PreloadedInstanceAndResponseServeAByRefHit) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 93);
    const StoredResponse clean = clean_record(inst, "alg2");
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);
    svc.preload_instance(inst);
    svc.preload_response(clean.key_hi, clean.key_lo, clean.canon,
                         clean.check, io::Json::parse(clean.wire));

    const PlanResponse resp = svc.execute(by_ref("r", "alg2", inst));
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.cache_hit);
    EXPECT_EQ(*resp.result_wire, clean.wire);
    EXPECT_EQ(svc.stats().cache_misses, 0u);
}

TEST(Service, QueuedInlineRequestKeepsItsSubmitTimeRegistration) {
    const auto a = uavdc::testing::small_instance(12, 180.0, 94);
    const auto b = uavdc::testing::small_instance(12, 180.0, 95);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker = pool.submit([&] { gate.get_future().wait(); });

    PlanService::Config cfg;
    cfg.instance_capacity = 1;
    cfg.defaults = fast_options();
    std::mutex mu;
    int registrations = 0;
    cfg.store.on_instance = [&](std::uint64_t, const model::Instance&) {
        std::lock_guard lock(mu);
        ++registrations;
    };
    PlanService svc(cfg, &pool);

    // Both wait behind the blocked worker; registering `b` evicts `a`.
    std::vector<PlanResponse> out(2);
    svc.submit(make_request("a", "alg2", a),
               [&](PlanResponse r) { out[0] = std::move(r); });
    svc.submit(make_request("b", "alg2", b),
               [&](PlanResponse r) { out[1] = std::move(r); });
    gate.set_value();
    blocker.get();
    svc.drain();

    // The workers plan against the entries resolved at submit: neither
    // instance is hashed or registered again, although `a` was evicted.
    EXPECT_EQ(registrations, 2);
    ASSERT_EQ(out[0].status, ResponseStatus::kOk) << out[0].error;
    ASSERT_EQ(out[1].status, ResponseStatus::kOk) << out[1].error;
    EXPECT_EQ(result_key(out[0]), direct_key(a, "alg2", cfg.defaults));
    EXPECT_EQ(result_key(out[1]), direct_key(b, "alg2", cfg.defaults));
}

// --- Response cache index: exact LRU, replace on re-put, thread safety.

io::Json tagged(const std::string& tag) {
    io::Json j;
    j["tag"] = tag;
    return j;
}

std::string tag_of(const ResponseCache::Hit& hit) {
    return io::Json::parse(*hit.wire).at("tag").as_string();
}

TEST(ServiceResponseCache, GetRefreshesRecencyForEviction) {
    ResponseCache cache(3);
    cache.put(1, 1, "o", 7, tagged("k1"));
    cache.put(2, 2, "o", 7, tagged("k2"));
    cache.put(3, 3, "o", 7, tagged("k3"));
    ASSERT_TRUE(cache.get(1, 1, "o", 7).found);  // k1 now most recent
    cache.put(4, 4, "o", 7, tagged("k4"));

    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.get(2, 2, "o", 7).found) << "k2 was least recent";
    EXPECT_EQ(tag_of(cache.get(1, 1, "o", 7)), "k1");
    EXPECT_EQ(tag_of(cache.get(3, 3, "o", 7)), "k3");
    EXPECT_EQ(tag_of(cache.get(4, 4, "o", 7)), "k4");
}

TEST(ServiceResponseCache, PutUnderAPresentKeyReplacesTheEntry) {
    ResponseCache cache(4);
    cache.put(5, 6, "o", 7, tagged("old"));
    const auto wire = cache.put(5, 6, "o", 7, tagged("new"));
    EXPECT_EQ(cache.size(), 1u);
    const auto hit = cache.get(5, 6, "o", 7);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(tag_of(hit), "new");
    EXPECT_EQ(hit.wire, wire);
}

TEST(ServiceResponseCache, CollidingKeyMissesThenIsReplaced) {
    ResponseCache cache(4);
    cache.put(9, 9, "opts-a", 1, tagged("a"));
    EXPECT_FALSE(cache.get(9, 9, "opts-b", 1).found);
    EXPECT_EQ(cache.misses(), 1u);

    cache.put(9, 9, "opts-b", 1, tagged("b"));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(tag_of(cache.get(9, 9, "opts-b", 1)), "b");
    EXPECT_FALSE(cache.get(9, 9, "opts-a", 1).found);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(ServiceResponseCache, ConcurrentGetPutCountsReconcile) {
    constexpr std::size_t kCapacity = 16;
    constexpr int kThreads = 4;
    constexpr int kOps = 2000;
    ResponseCache cache(kCapacity);
    std::vector<std::thread> threads;
    std::vector<int> gets(kThreads, 0);
    std::vector<int> wrong(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                // Every other op touches one of 4 hot keys (hits once
                // cached); the rest cycle 24 cold keys through eviction.
                const auto key = static_cast<std::uint64_t>(
                    i % 2 == 0 ? (i / 2) % 4 : 4 + (i * 7 + t) % 24);
                const std::string tag = std::to_string(key);
                const auto hit = cache.get(key, ~key, tag, key);
                ++gets[static_cast<std::size_t>(t)];
                if (!hit.found) {
                    cache.put(key, ~key, tag, key, tagged(tag));
                } else if (tag_of(hit) != tag) {
                    ++wrong[static_cast<std::size_t>(t)];
                }
            }
        });
    }
    for (auto& th : threads) th.join();

    int total_gets = 0;
    for (int t = 0; t < kThreads; ++t) {
        total_gets += gets[static_cast<std::size_t>(t)];
        EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0);
    }
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(total_gets));
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_LE(cache.size(), kCapacity);
}

}  // namespace
}  // namespace uavdc::service
