#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/repository.hpp"
#include "uavdc/net/router.hpp"
#include "uavdc/net/signal.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/net/tcp_server.hpp"
#include "uavdc/service/jsonl.hpp"
#include "uavdc/service/plan_service.hpp"
#include "uavdc/service/request.hpp"

#include "test_util.hpp"

namespace uavdc::net {
namespace {

core::PlannerOptions fast_options() {
    core::PlannerOptions opts;
    opts.delta_m = 25.0;
    opts.grasp_iterations = 3;
    return opts;
}

/// A TcpServer on its own thread with an ephemeral port. `stop_and_join`
/// triggers the graceful drain and returns the final counters.
struct ServerHandle {
    std::atomic<bool> stop{false};
    int port{0};
    std::thread thread;
    TcpServer::RunResult result;

    explicit ServerHandle(std::size_t write_queue_limit = 8u << 20) {
        std::promise<int> port_promise;
        auto port_future = port_promise.get_future();
        TcpServerConfig cfg;
        cfg.port = 0;
        cfg.service.workers = 2;
        cfg.service.defaults = fast_options();
        cfg.write_queue_limit = write_queue_limit;
        cfg.stop = &stop;
        cfg.poll_timeout_ms = 20;
        cfg.on_listening = [&port_promise](int p) {
            port_promise.set_value(p);
        };
        thread = std::thread([this, cfg = std::move(cfg)]() mutable {
            TcpServer server(std::move(cfg));
            result = server.run();
        });
        port = port_future.get();
    }

    TcpServer::RunResult stop_and_join() {
        stop.store(true);
        if (thread.joinable()) thread.join();
        return result;
    }

    ~ServerHandle() { (void)stop_and_join(); }
};

/// A static-mode Router on its own thread in front of `endpoints`.
/// `stop_and_join` triggers the graceful drain and returns the final
/// counters. A router that never finishes its drain cannot be joined, so
/// the test process then ends with a failure instead of hanging.
struct RouterHandle {
    std::atomic<bool> stop{false};
    int port{0};
    std::future<void> finished;
    Router::RunResult result;
    std::thread thread;

    explicit RouterHandle(std::vector<int> endpoints,
                          std::size_t write_queue_limit = 8u << 20) {
        std::promise<int> port_promise;
        auto port_future = port_promise.get_future();
        RouterConfig cfg;
        cfg.port = 0;
        cfg.endpoints = std::move(endpoints);
        cfg.write_queue_limit = write_queue_limit;
        cfg.stop = &stop;
        cfg.poll_timeout_ms = 20;
        cfg.on_listening = [&port_promise](int p) {
            port_promise.set_value(p);
        };
        std::promise<void> done;
        finished = done.get_future();
        thread = std::thread(
            [this, cfg = std::move(cfg), done = std::move(done)]() mutable {
                Router router(std::move(cfg));
                result = router.run();
                done.set_value();
            });
        port = port_future.get();
    }

    Router::RunResult stop_and_join() {
        stop.store(true);
        if (thread.joinable()) {
            if (finished.wait_for(std::chrono::seconds(30)) !=
                std::future_status::ready) {
                ADD_FAILURE() << "router still draining 30 s after stop";
                std::fflush(stdout);
                std::_Exit(1);
            }
            thread.join();
        }
        return result;
    }

    ~RouterHandle() { (void)stop_and_join(); }
};

/// Which front end a protocol test talks to: the plan server directly, or
/// a static-mode router in front of one. `stop_and_join` reports the
/// client-facing transport counters (the router's, when there is one) and
/// the backing server's service counters.
enum class Role { kServer, kRouter };

struct Frontend {
    Role role;
    ServerHandle server;
    std::unique_ptr<RouterHandle> router;

    explicit Frontend(Role r, std::size_t write_queue_limit = 8u << 20)
        : role(r), server(r == Role::kServer ? write_queue_limit : 8u << 20) {
        if (role == Role::kRouter) {
            router = std::make_unique<RouterHandle>(
                std::vector<int>{server.port}, write_queue_limit);
        }
    }

    [[nodiscard]] int port() const {
        return router ? router->port : server.port;
    }

    void request_stop() { (router ? router->stop : server.stop).store(true); }

    struct Result {
        TransportStats transport;
        service::ServiceStats service;
    };

    Result stop_and_join() {
        Result r;
        if (router) r.transport = router->stop_and_join().transport;
        const auto s = server.stop_and_join();
        if (!router) r.transport = s.transport;
        r.service = s.service;
        return r;
    }
};

/// Blocking test client: frames out, frames back with a deadline.
struct Client {
    Socket sock;
    FrameDecoder decoder;
    bool eof{false};

    explicit Client(int port) : sock(Socket::connect_tcp("127.0.0.1", port)) {
        sock.set_nodelay(true);
    }

    void send(const std::string& payload, bool length_prefixed) {
        ASSERT_TRUE(sock.write_all(encode_frame(payload, length_prefixed)));
    }

    /// Next frame within `timeout_ms`, or nullopt on timeout/EOF.
    std::optional<Frame> next(int timeout_ms = 10000) {
        for (;;) {
            if (auto f = decoder.next()) return f;
            if (eof) return std::nullopt;
            std::vector<PollEntry> entries;
            entries.push_back(
                {sock.fd(), true, false, false, false, false});
            if (poll_wait(entries, timeout_ms) == 0) return std::nullopt;
            char buf[4096];
            const IoResult r = sock.read_some(buf, sizeof(buf));
            if (r.status == IoStatus::kOk) {
                decoder.feed(buf, r.n);
            } else if (r.status == IoStatus::kEof ||
                       r.status == IoStatus::kError) {
                eof = true;
            }
        }
    }
};

std::string plan_request(const std::string& id, const model::Instance& inst) {
    service::PlanRequest req;
    req.id = id;
    req.planner = "alg2";
    req.instance = inst;
    return service::to_json(req).dump();
}

std::string ref_request(const std::string& id, std::uint64_t fp) {
    service::PlanRequest req;
    req.id = id;
    req.planner = "alg2";
    req.instance_ref = fp;
    return service::to_json(req).dump();
}

// The client-facing protocol tests run against both roles of the front:
// each body takes the role, and each role gets its own TEST so the names
// stay `NetServer.*` / `NetRouter.*`.

void pipelined_mixed_framing_all_answered(Role role) {
    Frontend fe(role);
    Client client(fe.port());

    const auto inst = uavdc::testing::small_instance(10, 200.0, 51);
    const auto fp = core::PlanningContext::instance_fingerprint(inst);

    // One inline registration, answered before the by-ref requests go out
    // (its plan is cached before its response is sent, so every by-ref
    // request below is a cache hit). Then pipelined by-ref requests,
    // alternating framings on the same connection — all written before any
    // read.
    std::map<std::string, io::Json> responses;
    std::map<std::string, bool> framing;
    auto receive = [&](int i) {
        auto f = client.next();
        ASSERT_TRUE(f.has_value()) << "response " << i << " missing";
        ASSERT_FALSE(f->malformed);
        const io::Json doc = io::Json::parse(f->payload);
        responses[doc.at("id").as_string()] = doc;
        framing[doc.at("id").as_string()] = f->length_prefixed;
    };
    client.send(plan_request("r0", inst), /*length_prefixed=*/false);
    receive(0);
    for (int i = 1; i <= 6; ++i) {
        client.send(ref_request("r" + std::to_string(i), fp), i % 2 == 0);
    }
    for (int i = 1; i <= 6; ++i) receive(i);
    ASSERT_EQ(responses.size(), 7u);
    std::string first_result;
    for (int i = 0; i <= 6; ++i) {
        const std::string id = "r" + std::to_string(i);
        ASSERT_TRUE(responses.count(id)) << id;
        EXPECT_EQ(responses[id].at("status").as_string(), "ok") << id;
        // Responses are framed the way their request was.
        EXPECT_EQ(framing[id], i >= 1 && i % 2 == 0) << id;
        // Same instance, same options: every result is byte-identical.
        const std::string key = responses[id].at("result").dump();
        if (first_result.empty()) {
            first_result = key;
        } else {
            EXPECT_EQ(key, first_result) << id;
        }
    }

    const auto result = fe.stop_and_join();
    EXPECT_EQ(result.transport.requests, 7u);
    EXPECT_EQ(result.transport.responses, 7u);
    EXPECT_EQ(result.transport.frames_malformed, 0u);
    EXPECT_EQ(result.service.internal_errors, 0u);
}

TEST(NetServer, PipelinedMixedFramingAllAnswered) {
    pipelined_mixed_framing_all_answered(Role::kServer);
}
TEST(NetRouter, PipelinedMixedFramingAllAnswered) {
    pipelined_mixed_framing_all_answered(Role::kRouter);
}

void malformed_payload_answers_bad_request_without_closing(Role role) {
    Frontend fe(role);
    Client client(fe.port());

    // Unparseable JSON: bad_request, connection survives.
    client.send("this is not json", false);
    auto f = client.next();
    ASSERT_TRUE(f.has_value());
    io::Json doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("status").as_string(), "bad_request");

    // Parseable JSON that is not a valid request: same contract. The
    // router forwards it (no instance key: shard 0), whose service rejects
    // it under the client's own id.
    client.send(R"({"id":"q","planner":"alg2"})", true);
    f = client.next();
    ASSERT_TRUE(f.has_value());
    doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("id").as_string(), "q");
    EXPECT_EQ(doc.at("status").as_string(), "bad_request");

    // Framing-level damage: diagnostic response, then resync.
    ASSERT_TRUE(client.sock.write_all("$nope\n"));
    f = client.next();
    ASSERT_TRUE(f.has_value());
    doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("status").as_string(), "bad_request");

    // The connection still serves real work.
    const auto inst = uavdc::testing::small_instance(8, 180.0, 52);
    client.send(plan_request("ok1", inst), false);
    f = client.next();
    ASSERT_TRUE(f.has_value());
    doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("id").as_string(), "ok1");
    EXPECT_EQ(doc.at("status").as_string(), "ok");

    const auto result = fe.stop_and_join();
    EXPECT_EQ(result.transport.frames_malformed, 1u);
    EXPECT_EQ(result.transport.requests, role == Role::kServer ? 1u : 2u);
}

TEST(NetServer, MalformedPayloadAnswersBadRequestWithoutClosing) {
    malformed_payload_answers_bad_request_without_closing(Role::kServer);
}
TEST(NetRouter, MalformedPayloadAnswersBadRequestWithoutClosing) {
    malformed_payload_answers_bad_request_without_closing(Role::kRouter);
}

void drain_barrier_answers_after_pipelined_requests(Role role) {
    Frontend fe(role);
    Client client(fe.port());

    const auto inst = uavdc::testing::small_instance(10, 200.0, 53);
    const auto fp = core::PlanningContext::instance_fingerprint(inst);
    client.send(plan_request("p", inst), false);
    for (int i = 0; i < 8; ++i) {
        client.send(ref_request("r" + std::to_string(i), fp), false);
    }
    client.send(R"({"op":"drain","id":"barrier"})", false);

    // The drain reply must arrive after all nine plan responses.
    std::vector<std::string> order;
    for (int i = 0; i < 10; ++i) {
        auto f = client.next();
        ASSERT_TRUE(f.has_value()) << "frame " << i;
        order.push_back(io::Json::parse(f->payload).at("id").as_string());
    }
    EXPECT_EQ(order.back(), "barrier");
    EXPECT_EQ(order.size(), 10u);

    // A drain on an idle connection answers immediately.
    client.send(R"({"op":"drain","id":"idle"})", true);
    auto f = client.next();
    ASSERT_TRUE(f.has_value());
    const io::Json doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("id").as_string(), "idle");
    EXPECT_EQ(doc.at("op").as_string(), "drain");
    EXPECT_TRUE(f->length_prefixed);
}

TEST(NetServer, DrainBarrierAnswersAfterPipelinedRequests) {
    drain_barrier_answers_after_pipelined_requests(Role::kServer);
}
TEST(NetRouter, DrainBarrierAnswersAfterPipelinedRequests) {
    drain_barrier_answers_after_pipelined_requests(Role::kRouter);
}

void stats_verb_embeds_transport_counters(Role role) {
    Frontend fe(role);
    Client client(fe.port());

    const auto inst = uavdc::testing::small_instance(8, 180.0, 54);
    client.send(plan_request("r", inst), false);
    ASSERT_TRUE(client.next().has_value());

    client.send(R"({"op":"stats","id":"s"})", false);
    auto f = client.next();
    ASSERT_TRUE(f.has_value());
    const io::Json doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("op").as_string(), "stats");
    const io::Json& stats = doc.at("stats");
    if (role == Role::kServer) {
        // Service-level counters next to the transport counters.
        EXPECT_EQ(stats.at("completed").as_number(), 1.0);
    } else {
        // The router has no service: its own shard table instead.
        EXPECT_FALSE(stats.contains("completed"));
        EXPECT_EQ(stats.at("shards").as_number(), 1.0);
        EXPECT_EQ(stats.at("pending").as_number(), 0.0);
    }
    const io::Json& transport = stats.at("transport");
    EXPECT_EQ(transport.at("requests").as_number(), 1.0);
    EXPECT_EQ(transport.at("responses").as_number(), 1.0);
    EXPECT_EQ(transport.at("open_connections").as_number(), 1.0);
    EXPECT_GE(transport.at("bytes_in").as_number(), 1.0);
    EXPECT_GE(transport.at("frames_decoded").as_number(), 2.0);
}

TEST(NetServer, StatsVerbEmbedsTransportCounters) {
    stats_verb_embeds_transport_counters(Role::kServer);
}
TEST(NetRouter, StatsVerbEmbedsTransportCounters) {
    stats_verb_embeds_transport_counters(Role::kRouter);
}

void graceful_stop_answers_every_submitted_request(Role role) {
    Frontend fe(role);
    Client client(fe.port());

    const auto inst = uavdc::testing::small_instance(10, 200.0, 55);
    const auto fp = core::PlanningContext::instance_fingerprint(inst);
    client.send(plan_request("p", inst), false);
    for (int i = 0; i < 16; ++i) {
        client.send(ref_request("r" + std::to_string(i), fp), false);
    }
    // Stop while the pipeline is in flight: whatever the front decoded is
    // answered (`ok` or `shutdown`), then the connection closes cleanly.
    fe.request_stop();

    std::set<std::string> answered;
    std::uint64_t shut = 0;
    while (auto f = client.next()) {
        ASSERT_FALSE(f->malformed);
        const io::Json doc = io::Json::parse(f->payload);
        const std::string status = doc.at("status").as_string();
        EXPECT_TRUE(status == "ok" || status == "shutdown") << status;
        if (status == "shutdown") ++shut;
        EXPECT_TRUE(answered.insert(doc.at("id").as_string()).second)
            << "duplicate response for " << doc.at("id").as_string();
    }
    EXPECT_TRUE(client.eof);  // orderly close, not a reset

    const auto result = fe.stop_and_join();
    // Exactly-once reconciliation: every delivered frame is accounted for
    // as a completed submission or an explicit shed, nothing double-counted.
    EXPECT_EQ(result.transport.requests, result.transport.responses);
    EXPECT_EQ(answered.size(), result.transport.requests +
                                   result.transport.shed_on_shutdown);
    EXPECT_EQ(result.transport.shed_on_shutdown, shut);
    EXPECT_EQ(result.service.internal_errors, 0u);
}

TEST(NetServer, GracefulStopAnswersEverySubmittedRequest) {
    graceful_stop_answers_every_submitted_request(Role::kServer);
}
TEST(NetRouter, GracefulStopAnswersEverySubmittedRequest) {
    graceful_stop_answers_every_submitted_request(Role::kRouter);
}

/// 50 pipelined `stats` frames in one write against a 1 KiB write-queue
/// bound: a few replies fill the queue and the rest of the chunk parks in
/// the decoder. The client has nothing more to send, so only the write
/// path can resume those frames — every one must still be answered.
void resumes_frames_parked_behind_write_queue_limit(Role role) {
    Frontend fe(role, /*write_queue_limit=*/1024);
    Client client(fe.port());

    std::string burst;
    for (int i = 0; i < 50; ++i) {
        burst += encode_frame(
            R"({"op":"stats","id":"s)" + std::to_string(i) + "\"}", false);
    }
    ASSERT_TRUE(client.sock.write_all(burst));
    for (int i = 0; i < 50; ++i) {
        auto f = client.next(5000);
        ASSERT_TRUE(f.has_value()) << "stats reply " << i << " of 50 missing";
        EXPECT_EQ(io::Json::parse(f->payload).at("id").as_string(),
                  "s" + std::to_string(i));
    }
    EXPECT_EQ(fe.stop_and_join().transport.control, 50u);
}

TEST(NetServer, ResumesFramesParkedBehindWriteQueueLimit) {
    resumes_frames_parked_behind_write_queue_limit(Role::kServer);
}
TEST(NetRouter, ResumesFramesParkedBehindWriteQueueLimit) {
    resumes_frames_parked_behind_write_queue_limit(Role::kRouter);
}

/// The response line with what legitimately differs between a miss and its
/// replayed hit blanked: the cache flag and the timings.
std::string line_without_hit_and_timings(service::PlanResponse resp) {
    resp.cache_hit = false;
    resp.queue_ms = 0.0;
    resp.exec_ms = 0.0;
    return service::response_line(resp);
}

service::PlanResponse submit_and_wait(service::PlanService& svc,
                                      service::PlanRequest req) {
    std::promise<service::PlanResponse> done;
    svc.submit(std::move(req), [&](service::PlanResponse resp) {
        done.set_value(std::move(resp));
    });
    auto resp = done.get_future().get();
    svc.drain();
    return resp;
}

TEST(NetRepository, ReloadReproducesByteIdenticalResponses) {
    const std::string path =
        ::testing::TempDir() + "uavdc_repo_reload.jsonl";
    std::remove(path.c_str());
    const auto inst = uavdc::testing::small_instance(10, 200.0, 56);
    const auto fp = core::PlanningContext::instance_fingerprint(inst);

    service::PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();

    service::PlanRequest by_ref;
    by_ref.id = "a";
    by_ref.planner = "alg2";
    by_ref.instance_ref = fp;

    service::PlanResponse miss;
    {
        Repository repo(path);
        auto store_cfg = cfg;
        store_cfg.store = repo.hooks();
        service::PlanService svc(store_cfg);
        auto req = by_ref;
        req.instance_ref.reset();
        req.instance = inst;
        miss = submit_and_wait(svc, std::move(req));
        ASSERT_EQ(miss.status, service::ResponseStatus::kOk) << miss.error;
        ASSERT_FALSE(miss.cache_hit);
        EXPECT_EQ(repo.appended(), 2u);  // instance + response
    }

    // The spliced log lines are the documents the format names.
    {
        std::ifstream in(path);
        std::string line;
        int lines = 0;
        while (std::getline(in, line)) {
            ++lines;
            EXPECT_EQ(io::Json::parse(line).dump(), line);
        }
        EXPECT_EQ(lines, 2);
    }

    // A fresh process: reload, then serve the same request by reference
    // only. The instance resolves from the repository and the response is
    // a cache hit whose line equals the miss's.
    {
        Repository repo(path);
        service::PlanService svc(cfg);
        const auto loaded = repo.load(svc);
        EXPECT_EQ(loaded.instances, 1u);
        EXPECT_EQ(loaded.responses, 1u);
        EXPECT_EQ(loaded.skipped, 0u);

        const auto hit = submit_and_wait(svc, by_ref);
        EXPECT_EQ(hit.status, service::ResponseStatus::kOk);
        EXPECT_TRUE(hit.cache_hit);
        EXPECT_EQ(svc.stats().cache_misses, 0u);
        EXPECT_EQ(line_without_hit_and_timings(hit),
                  line_without_hit_and_timings(miss));
    }
    std::remove(path.c_str());
}

TEST(NetRepository, OlderOptionsKeyInTheLogStillReplaysAsAHit) {
    // A log written before the options key was derived from the canonical
    // options string: its `key_lo` is the older field-by-field hash. Load
    // rekeys the entry from `canon`, so the by-ref request below is a hit
    // that serves the logged result bytes.
    const std::string dir = UAVDC_SOURCE_DIR "/tests/data/";
    const std::string path =
        ::testing::TempDir() + "uavdc_repo_older_key.jsonl";
    {
        std::ifstream src(dir + "repository_older_options_key.jsonl");
        ASSERT_TRUE(src.good());
        std::ofstream dst(path, std::ios::trunc);
        dst << src.rdbuf();
    }
    std::string logged_result;
    std::uint64_t instance_fp = 0;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            const auto doc = io::Json::parse(line);
            if (doc.at("type").as_string() == "instance") {
                instance_fp = service::fingerprint_from_hex(
                    doc.at("fp").as_string());
                continue;
            }
            // The fixture really carries a key this build does not compute.
            EXPECT_NE(service::fingerprint_from_hex(
                          doc.at("key_lo").as_string()),
                      service::options_key(doc.at("canon").as_string()));
            logged_result = doc.at("result").dump();
        }
    }
    ASSERT_NE(instance_fp, 0u);
    ASSERT_FALSE(logged_result.empty());

    service::PlanService::Config cfg;
    cfg.workers = 1;
    service::PlanService svc(cfg);
    Repository repo(path);
    const auto loaded = repo.load(svc);
    EXPECT_EQ(loaded.instances, 1u);
    EXPECT_EQ(loaded.responses, 1u);
    EXPECT_EQ(loaded.skipped, 0u);

    service::PlanRequest req;
    req.id = "older";
    req.planner = "alg2";
    req.instance_ref = instance_fp;
    const auto hit = submit_and_wait(svc, req);
    ASSERT_EQ(hit.status, service::ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    ASSERT_NE(hit.result_wire, nullptr);
    EXPECT_EQ(*hit.result_wire, logged_result);
    std::remove(path.c_str());
}

TEST(NetRepository, TruncatedTailIsSkippedOnLoad) {
    const std::string path =
        ::testing::TempDir() + "uavdc_repo_trunc.jsonl";
    std::remove(path.c_str());
    const auto inst = uavdc::testing::small_instance(8, 180.0, 57);
    {
        Repository repo(path);
        repo.append_instance(
            core::PlanningContext::instance_fingerprint(inst), inst);
    }
    {
        // Simulate a SIGKILL mid-append: a torn, unterminated record.
        std::FILE* f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"type\":\"resp", f);
        std::fclose(f);
    }
    service::PlanService::Config cfg;
    cfg.workers = 1;
    service::PlanService svc(cfg);
    Repository repo(path);
    const auto loaded = repo.load(svc);
    EXPECT_EQ(loaded.instances, 1u);
    EXPECT_EQ(loaded.responses, 0u);
    EXPECT_EQ(loaded.skipped, 1u);
    svc.drain();
    std::remove(path.c_str());
}

/// A scripted in-process "shard": accepts the router's upstream connection,
/// reads one forwarded request, then hangs up without answering (the
/// connection-level equivalent of kill -9 mid-request). On the second
/// connection it answers properly. This makes the retry path deterministic
/// — no sleeps, no real processes.
TEST(NetRouter, StaticModeResendsPendingExactlyOnce) {
    Socket shard_listener = Socket::listen_tcp("127.0.0.1", 0, 16);
    const int shard_port = shard_listener.local_port();

    std::vector<std::string> seen_wire;  // forwarded payloads, in order
    std::thread shard([&] {
        for (int round = 0; round < 2; ++round) {
            std::optional<Socket> conn;
            while (!conn.has_value()) {
                conn = shard_listener.accept_one();
            }
            FrameDecoder dec;
            std::optional<Frame> f;
            char buf[4096];
            while (!f.has_value()) {
                const IoResult r = conn->read_some(buf, sizeof(buf));
                if (r.status != IoStatus::kOk) break;
                dec.feed(buf, r.n);
                f = dec.next();
            }
            if (!f.has_value()) break;
            seen_wire.push_back(f->payload);
            if (round == 0) continue;  // hang up unanswered: conn closes
            service::PlanResponse resp;
            resp.id = io::Json::parse(f->payload).at("id").as_string();
            resp.status = service::ResponseStatus::kOk;
            (void)conn->write_all(
                encode_frame(service::response_line(resp), true));
            // Hold the connection open until the router drains.
            while (conn->read_some(buf, sizeof(buf)).status ==
                   IoStatus::kOk) {
            }
        }
    });

    std::atomic<bool> stop{false};
    std::promise<int> port_promise;
    auto port_future = port_promise.get_future();
    RouterConfig rcfg;
    rcfg.port = 0;
    rcfg.endpoints = {shard_port};
    rcfg.stop = &stop;
    rcfg.poll_timeout_ms = 20;
    rcfg.on_listening = [&](int p) { port_promise.set_value(p); };
    Router::RunResult rres;
    std::thread router([&] {
        Router r(rcfg);
        rres = r.run();
    });
    const int router_port = port_future.get();

    Client client(router_port);
    const auto inst = uavdc::testing::small_instance(8, 180.0, 58);
    client.send(plan_request("only", inst), false);

    // Exactly one response despite the dead first connection: the pending
    // request was resent, answered once, and handed back once.
    auto f = client.next(20000);
    ASSERT_TRUE(f.has_value());
    const io::Json doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("id").as_string(), "only");
    EXPECT_EQ(doc.at("status").as_string(), "ok");
    EXPECT_FALSE(client.next(200).has_value()) << "duplicate response";

    // The router's own stats agree.
    client.send(R"({"op":"stats","id":"s"})", false);
    f = client.next();
    ASSERT_TRUE(f.has_value());
    const io::Json stats = io::Json::parse(f->payload).at("stats");
    EXPECT_EQ(
        stats.at("transport").at("retried_after_shard_death").as_number(),
        1.0);
    EXPECT_EQ(stats.at("pending").as_number(), 0.0);

    stop.store(true);
    router.join();
    shard_listener.close();
    shard.join();
    EXPECT_TRUE(rres.clean_shutdown);
    EXPECT_EQ(rres.transport.retried_after_shard_death, 1u);
    // Both transmissions carried the identical tagged wire payload —
    // deterministic planning makes the retry safe.
    ASSERT_EQ(seen_wire.size(), 2u);
    EXPECT_EQ(seen_wire[0], seen_wire[1]);
}

/// A scripted "shard" that reads one forwarded request, hangs up and stops
/// listening, so the router cannot reconnect. A graceful stop must still
/// finish: the pending request is answered `shutdown` exactly once and
/// counted as its response.
TEST(NetRouter, GracefulStopAnswersPendingOnDownShard) {
    Socket shard_listener = Socket::listen_tcp("127.0.0.1", 0, 16);
    const int shard_port = shard_listener.local_port();

    std::promise<void> got_request;
    std::thread shard([&] {
        std::optional<Socket> conn;
        while (!conn.has_value()) {
            conn = shard_listener.accept_one();
        }
        FrameDecoder dec;
        char buf[4096];
        while (!dec.next().has_value()) {
            const IoResult r = conn->read_some(buf, sizeof(buf));
            if (r.status != IoStatus::kOk) break;
            dec.feed(buf, r.n);
        }
        conn->close();
        shard_listener.close();
        got_request.set_value();
    });

    RouterHandle router({shard_port});
    Client client(router.port);
    const auto inst = uavdc::testing::small_instance(8, 180.0, 59);
    client.send(plan_request("only", inst), false);
    got_request.get_future().wait();
    shard.join();

    const Router::RunResult res = router.stop_and_join();
    auto f = client.next();
    ASSERT_TRUE(f.has_value());
    const io::Json doc = io::Json::parse(f->payload);
    EXPECT_EQ(doc.at("id").as_string(), "only");
    EXPECT_EQ(doc.at("status").as_string(), "shutdown");
    EXPECT_FALSE(client.next().has_value()) << "duplicate response";
    EXPECT_TRUE(client.eof);

    EXPECT_EQ(res.transport.requests, 1u);
    EXPECT_EQ(res.transport.responses, 1u);
    EXPECT_EQ(res.transport.shed_on_shutdown, 0u);
    EXPECT_TRUE(res.clean_shutdown);
}

// ---------------------------------------------------------------------------
// The router forwards the client's bytes with its tag appended as a last
// `id` member. Whatever the payload's spelling, a response through the
// router must match, byte for byte, the one the JSONL path gives the same
// line (wall-clock timings aside).
// ---------------------------------------------------------------------------

std::string blank_timings(const std::string& response) {
    static const std::regex timing(
        R"re("(queue_ms|exec_ms|runtime_s)":[^,}]*)re");
    return std::regex_replace(response, timing, R"("$1":_)");
}

/// Each payload through `uavdc serve`'s JSONL session, one at a time (a
/// drain barrier after each), responses in order.
std::vector<std::string> jsonl_responses(
    const std::vector<std::string>& payloads) {
    std::string input;
    for (const std::string& p : payloads) {
        input += p + "\n" + R"({"op":"drain","id":"barrier"})" + "\n";
    }
    std::istringstream in(input);
    std::ostringstream out;
    service::JsonlConfig cfg;
    cfg.service.workers = 2;
    cfg.service.defaults = fast_options();
    (void)service::serve_jsonl(in, out, cfg);
    std::vector<std::string> lines;
    std::istringstream got(out.str());
    for (std::string line; std::getline(got, line);) {
        if (io::Json::parse(line).contains("op")) continue;
        lines.push_back(blank_timings(line));
    }
    return lines;
}

/// Each payload through a router in front of one server, one at a time,
/// in the given framing: the decoder strips nothing from a length-prefixed
/// payload and one trailing CR from a newline one.
std::vector<std::string> routed_responses(
    const std::vector<std::string>& payloads, bool length_prefixed) {
    Frontend fe(Role::kRouter);
    Client client(fe.port());
    std::vector<std::string> lines;
    for (const std::string& p : payloads) {
        client.send(p, length_prefixed);
        auto f = client.next();
        if (!f.has_value()) {
            ADD_FAILURE() << "no response to " << p.substr(0, 80);
            break;
        }
        EXPECT_EQ(f->length_prefixed, length_prefixed);
        lines.push_back(blank_timings(f->payload));
    }
    const auto result = fe.stop_and_join();
    EXPECT_EQ(result.transport.responses, result.transport.requests);
    EXPECT_EQ(result.service.internal_errors, 0u);
    return lines;
}

/// `{"planner":"alg2","instance":{...}}` with `head` spliced in first.
std::string inline_request(const std::string& head, std::uint64_t seed) {
    io::Json doc;
    doc["planner"] = "alg2";
    doc["instance"] =
        io::to_json(uavdc::testing::small_instance(8, 180.0, seed));
    const std::string body = doc.dump();
    return head.empty() ? body : "{" + head + "," + body.substr(1);
}

void expect_routed_like_jsonl(const std::vector<std::string>& payloads) {
    // JSONL lines cannot hold a raw newline; length-prefixed frames can.
    std::vector<std::string> one_line;
    for (const std::string& p : payloads) {
        std::string l = p;
        for (char& c : l) {
            if (c == '\n') c = ' ';
        }
        one_line.push_back(l);
    }
    const std::vector<std::string> want = jsonl_responses(one_line);
    ASSERT_EQ(want.size(), payloads.size());
    const auto lp = routed_responses(payloads, /*length_prefixed=*/true);
    const auto nl = routed_responses(one_line, /*length_prefixed=*/false);
    ASSERT_EQ(lp.size(), want.size());
    ASSERT_EQ(nl.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(lp[i], want[i]) << "length-prefixed, payload " << i;
        EXPECT_EQ(nl[i], want[i]) << "newline, payload " << i;
    }
}

TEST(NetRouter, ForwardsAwkwardIdsLikeJsonl) {
    expect_routed_like_jsonl({
        inline_request(R"("id":"q\"uote")", 61),
        inline_request(R"("id":"back\\slash\\")", 62),
        inline_request(R"("id":"ctl\u0001\t\n\u001f")", 63),
        inline_request(R"("id":"né-ascii-中-é")", 64),
        inline_request(R"("id":"7#hash#")", 65),
        inline_request(R"("id":"#")", 66),
        inline_request(R"("id":"")", 67),
    });
}

TEST(NetRouter, ForwardsRequestsWithoutIdLikeJsonl) {
    expect_routed_like_jsonl({
        inline_request("", 68),
        "{}",
        "{ }",
        "{\t\r\n}",
        R"({"planner":"alg2"})",
    });
}

TEST(NetRouter, ForwardsTrailingWhitespaceAndCrLikeJsonl) {
    expect_routed_like_jsonl({
        inline_request(R"("id":"ws1")", 69) + "   ",
        inline_request(R"("id":"ws2")", 70) + "\r",
        inline_request(R"("id":"ws3")", 71) + " \t\r",
        inline_request(R"("id":"ws4")", 72) + "\r\n\r",
        "  " + inline_request(R"("id":"ws5")", 73) + " \n ",
        "{}\r",
        R"({"id":"ws6"  ,  "planner" : "alg2"   }   )",
    });
}

TEST(NetRouter, ForwardsRepeatedIdKeysLikeJsonl) {
    // The parser keeps the last of repeated keys: the request answers to
    // "second", and the router's own tag, appended after both, wins at the
    // shard.
    expect_routed_like_jsonl({
        inline_request(R"("id":"first","id":"second")", 74),
        R"({"id":"a","planner":"alg2","id":"b"})",
    });
}

// A non-string `id` or `op` once threw out of the front's frame dispatch
// (and the JSONL loop), ending the process: it is a bad request.
TEST(NetRouter, NonStringIdsAndOpsAnswerLikeJsonl) {
    expect_routed_like_jsonl({
        R"({"id":5,"planner":"alg2"})",
        R"({"id":null})",
        R"({"id":["x"],"op":"nope"})",
        R"({"op":7,"id":"o7"})",
        R"({"op":{},"planner":"alg2"})",
        inline_request(R"("id":"after")", 76),
    });
}

/// The `StaticModeResendsPendingExactlyOnce` shape with a real server
/// behind it: the first upstream connection hangs up unanswered, the
/// second proxies the resent bytes to a TcpServer. The client's response
/// must still match JSONL byte for byte.
TEST(NetRouter, ResendAfterShardDeathAnswersLikeJsonl) {
    const std::string payload =
        inline_request(R"("id":"resent\"#1")", 75) + " \r\n";
    const std::vector<std::string> want = jsonl_responses({payload});
    ASSERT_EQ(want.size(), 1u);

    ServerHandle server;
    Socket shard_listener = Socket::listen_tcp("127.0.0.1", 0, 16);
    const int shard_port = shard_listener.local_port();
    std::vector<std::string> seen_wire;
    std::thread shard([&] {
        for (int round = 0; round < 2; ++round) {
            std::optional<Socket> conn;
            while (!conn.has_value()) conn = shard_listener.accept_one();
            FrameDecoder dec;
            std::optional<Frame> f;
            char buf[4096];
            while (!f.has_value()) {
                const IoResult r = conn->read_some(buf, sizeof(buf));
                if (r.status != IoStatus::kOk) break;
                dec.feed(buf, r.n);
                f = dec.next();
            }
            if (!f.has_value()) break;
            seen_wire.push_back(f->payload);
            if (round == 0) continue;  // hang up unanswered
            Client up(server.port);
            up.send(f->payload, true);
            const auto r = up.next();
            if (r.has_value()) {
                (void)conn->write_all(encode_frame(r->payload, true));
            }
            while (conn->read_some(buf, sizeof(buf)).status ==
                   IoStatus::kOk) {
            }
        }
    });

    RouterHandle router({shard_port});
    Client client(router.port);
    client.send(payload, /*length_prefixed=*/true);
    auto f = client.next(20000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(blank_timings(f->payload), want[0]);
    EXPECT_FALSE(client.next(200).has_value()) << "duplicate response";

    const Router::RunResult res = router.stop_and_join();
    shard_listener.close();
    shard.join();
    EXPECT_EQ(res.transport.retried_after_shard_death, 1u);
    ASSERT_EQ(seen_wire.size(), 2u);
    EXPECT_EQ(seen_wire[0], seen_wire[1]);
    // The client's bytes, tag appended before the closing brace.
    EXPECT_EQ(seen_wire[0].substr(0, payload.size() - 4),
              payload.substr(0, payload.size() - 4));
    EXPECT_EQ(seen_wire[0].substr(payload.size() - 4),
              R"(,"id":"1#resent\"#1"} )" "\r\n");
}

TEST(NetSignal, TriggerSetsFlagAndWakesPipe) {
    auto& sig = ShutdownSignal::install();
    sig.reset();
    EXPECT_FALSE(sig.requested());
    sig.trigger();
    EXPECT_TRUE(sig.requested());
    // The wake fd is readable so pollers exit their wait immediately.
    std::vector<PollEntry> entries;
    entries.push_back({sig.wake_fd(), true, false, false, false, false});
    EXPECT_EQ(poll_wait(entries, 1000), 1);
    EXPECT_TRUE(entries[0].readable);
    sig.reset();
    EXPECT_FALSE(sig.requested());
    entries[0] = {sig.wake_fd(), true, false, false, false, false};
    EXPECT_EQ(poll_wait(entries, 0), 0);
}

TEST(NetTransportStats, JsonCarriesEveryCounter) {
    TransportStats t;
    t.connections_opened = 3;
    t.open_connections = 2;
    t.bytes_in = 100;
    t.bytes_out = 200;
    t.frames_decoded = 7;
    t.frames_malformed = 1;
    t.requests = 5;
    t.responses = 4;
    t.shed_on_shutdown = 1;
    t.retried_after_shard_death = 2;
    t.shard_respawns = 1;
    const io::Json doc = to_json(t);
    EXPECT_EQ(doc.at("connections_opened").as_number(), 3.0);
    EXPECT_EQ(doc.at("open_connections").as_number(), 2.0);
    EXPECT_EQ(doc.at("bytes_in").as_number(), 100.0);
    EXPECT_EQ(doc.at("bytes_out").as_number(), 200.0);
    EXPECT_EQ(doc.at("frames_decoded").as_number(), 7.0);
    EXPECT_EQ(doc.at("frames_malformed").as_number(), 1.0);
    EXPECT_EQ(doc.at("requests").as_number(), 5.0);
    EXPECT_EQ(doc.at("responses").as_number(), 4.0);
    EXPECT_EQ(doc.at("shed_on_shutdown").as_number(), 1.0);
    EXPECT_EQ(doc.at("retried_after_shard_death").as_number(), 2.0);
    EXPECT_EQ(doc.at("shard_respawns").as_number(), 1.0);
}

}  // namespace
}  // namespace uavdc::net
