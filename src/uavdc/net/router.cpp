#include "uavdc/net/router.hpp"

#include <csignal>
#include <map>
#include <memory>
#include <utility>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/process.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::net {

namespace {

constexpr std::size_t kReadChunk = 64u * 1024;

bool is_json_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// The client's request bytes with `"id":"<tag>"` appended as the last
/// member of the top-level object, which `payload` must hold (non-empty:
/// only requests with an `id` are forwarded). Json::parse keeps the last
/// of repeated keys, so the shard reads the tag whatever ids the client
/// sent, and the request is never decoded into a document and encoded
/// again on its way through.
std::string tag_request(const std::string& payload, const std::string& tag) {
    std::size_t close = payload.size();
    while (close > 0 && is_json_space(payload[close - 1])) --close;
    UAVDC_DCHECK(close > 0 && payload[close - 1] == '}');
    --close;
    std::string out;
    out.reserve(payload.size() + tag.size() + 16);
    out.append(payload, 0, close);
    out += ",\"id\":";
    io::Json::dump_string(out, tag);
    out.append(payload, close);
    return out;
}

/// One forwarded-but-unanswered request. Entries leave the table only when
/// their response is handed to the client (or the client is gone), which is
/// exactly the exactly-once bookkeeping the resend path relies on.
struct PendingReq {
    Front::ConnId client_id{0};
    std::string id;     ///< the client's request id (untagged)
    std::size_t shard{0};
    bool client_lp{false};
    bool sent{false};   ///< appended to a live upstream at least once
    std::string wire;   ///< length-prefixed tagged request frame
};

struct Upstream {
    Socket sock;
    FrameDecoder decoder;
    std::string outbuf;
    bool up{false};
    pid_t pid{-1};        ///< managed mode only
    Socket child_out;     ///< managed mode: announce pipe / stdout noise
    int endpoint_port{-1};

    explicit Upstream(std::size_t max_frame) : decoder(max_frame) {}
};

/// The router role: plan requests are tagged `seq#id` and forwarded, as the
/// client's bytes, to a shard upstream; shard responses are de-tagged and
/// delivered. Its own poll descriptors are the shard sockets and the
/// managed children's stdout pipes.
class RouteRole final : public Front::Role {
  public:
    explicit RouteRole(const RouterConfig& cfg)
        : cfg_(cfg),
          managed_(cfg.endpoints.empty()),
          front_(cfg, *this),
          t_(front_.transport()) {
        const std::size_t nshards =
            managed_ ? static_cast<std::size_t>(cfg_.shards)
                     : cfg_.endpoints.size();
        UAVDC_REQUIRE(nshards > 0) << "router: need --shards or endpoints";
        for (std::size_t i = 0; i < nshards; ++i) {
            shards_.push_back(std::make_unique<Upstream>(cfg_.max_frame_bytes));
            if (!managed_) shards_[i]->endpoint_port = cfg_.endpoints[i];
        }
    }

    Front& front() { return front_; }

    /// Initial bring-up: every shard must come up before we take traffic.
    void bring_up() {
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            int attempts = 0;
            while (!revive(i)) {
                if (++attempts > 50) {
                    throw std::runtime_error(
                        "router: shard " + std::to_string(i) +
                        " failed to start");
                }
                std::vector<PollEntry> none;
                poll_wait(none, 100);  // plain sleep between attempts
            }
        }
    }

    /// SIGTERM every managed worker; true when all of them exit 0.
    bool reap_children() {
        if (!managed_) return true;
        for (auto& u : shards_) {
            if (u->pid > 0) signal_child(u->pid, SIGTERM);
        }
        bool clean = true;
        for (auto& u : shards_) {
            if (u->pid > 0 && wait_child(u->pid) != 0) clean = false;
        }
        return clean;
    }

    bool request(Front::ConnId conn, const Frame& frame, const io::Json& doc,
                 const std::string& id, bool shed) override {
        const bool length_prefixed = frame.length_prefixed;
        try {
            service::check_request_envelope(doc);
        } catch (const std::exception& ex) {
            front_.answer(conn, id, service::ResponseStatus::kBadRequest,
                          ex.what(), length_prefixed);
            return false;
        }
        if (shed) {
            front_.answer(conn, id, service::ResponseStatus::kShutdown,
                          "router draining; request was not forwarded",
                          length_prefixed);
            return false;
        }
        const std::size_t shard = shard_of(doc);
        const std::uint64_t seq = next_seq_++;
        PendingReq p;
        p.client_id = conn;
        p.id = id;
        p.shard = shard;
        p.client_lp = length_prefixed;
        p.wire = encode_frame(
            tag_request(frame.payload, std::to_string(seq) + "#" + id),
            /*length_prefixed=*/true);
        if (shards_[shard]->up) {
            shards_[shard]->outbuf += p.wire;
            p.sent = true;
        }
        pending_.emplace(seq, std::move(p));
        return true;
    }

    io::Json stats() override {
        io::Json stats;
        stats["shards"] = shards_.size();
        stats["pending"] = pending_.size();
        return stats;
    }

    void tick(bool stopping) override {
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            if (shards_[i]->up) continue;
            if (stopping) {
                answer_pending_shutdown(i);
            } else {
                (void)revive(i);
            }
        }
    }

    void poll_set(std::vector<PollEntry>& entries) override {
        tags_.clear();
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            Upstream& u = *shards_[i];
            if (u.up) {
                PollEntry e;
                e.fd = u.sock.fd();
                e.want_read = true;
                e.want_write = !u.outbuf.empty();
                entries.push_back(e);
                tags_.emplace_back(i, false);
            }
            if (managed_ && u.child_out.valid()) {
                entries.push_back(
                    {u.child_out.fd(), true, false, false, false, false});
                tags_.emplace_back(i, true);
            }
        }
    }

    void on_poll(const std::vector<PollEntry>& entries) override {
        for (std::size_t k = 0; k < tags_.size(); ++k) {
            const auto [i, child_out] = tags_[k];
            if (child_out) {
                if (entries[k].readable) drain_child_out(i);
            } else {
                serve_shard(i, entries[k]);
            }
        }
    }

  private:
    std::vector<std::string> shard_argv(std::size_t i) const {
        std::vector<std::string> argv{self_exe_path(), "serve", "--tcp",
                                      "--host=" + cfg_.host, "--port=0",
                                      "--announce"};
        if (cfg_.shard_workers > 0) {
            argv.push_back("--workers=" + std::to_string(cfg_.shard_workers));
        }
        if (!cfg_.repo_dir.empty()) {
            argv.push_back("--repo=" + cfg_.repo_dir + "/shard-" +
                           std::to_string(i) + ".jsonl");
        }
        return argv;
    }

    /// (Re)connect shard `i`, resending everything still pending for it.
    /// Returns false (shard stays down) on any failure — the next loop
    /// iteration retries, paced by the poll timeout.
    bool revive(std::size_t i) {
        Upstream& u = *shards_[i];
        if (managed_ && !child_alive(u.pid)) {
            const bool had_child = u.pid > 0;
            ChildProcess child;
            try {
                child = spawn_child(shard_argv(i));
            } catch (const std::exception&) {
                return false;
            }
            child.stdout_rd.set_nonblocking(true);
            const auto line =
                read_line(child.stdout_rd, cfg_.spawn_timeout_ms);
            if (!line.has_value() || line->rfind("LISTENING ", 0) != 0) {
                signal_child(child.pid, SIGKILL);
                (void)wait_child(child.pid);
                return false;
            }
            u.pid = child.pid;
            u.child_out = std::move(child.stdout_rd);
            u.endpoint_port = std::stoi(line->substr(10));
            if (had_child) ++t_.shard_respawns;
        }
        try {
            u.sock = Socket::connect_tcp(cfg_.host, u.endpoint_port);
        } catch (const std::exception&) {
            return false;
        }
        u.sock.set_nonblocking(true);
        u.sock.set_nodelay(true);
        u.decoder = FrameDecoder(cfg_.max_frame_bytes);
        u.outbuf.clear();
        u.up = true;
        for (auto& [seq, p] : pending_) {
            if (p.shard != i) continue;
            if (p.sent) ++t_.retried_after_shard_death;
            u.outbuf += p.wire;
            p.sent = true;
        }
        return true;
    }

    void mark_down(std::size_t i) {
        Upstream& u = *shards_[i];
        u.up = false;
        u.sock.close();
        u.outbuf.clear();
        u.decoder = FrameDecoder(cfg_.max_frame_bytes);
    }

    /// Draining with shard `i` down: it is not revived, so each request
    /// still pending on it is answered `shutdown` — exactly once, as its
    /// response, so `requests == responses` still holds at exit.
    void answer_pending_shutdown(std::size_t i) {
        for (auto it = pending_.begin(); it != pending_.end();) {
            const PendingReq& p = it->second;
            if (p.shard != i) {
                ++it;
                continue;
            }
            service::PlanResponse resp;
            resp.id = p.id;
            resp.status = service::ResponseStatus::kShutdown;
            resp.error = "router draining; shard down, request not answered";
            front_.deliver(p.client_id,
                           encode_frame(service::response_line(resp),
                                        p.client_lp));
            it = pending_.erase(it);
        }
    }

    /// Shard selector: the request's instance fingerprint when one can be
    /// determined (ref directly, inline by content hash); an undeterminable
    /// key routes to shard 0, whose PlanService produces the authoritative
    /// bad_request.
    std::size_t shard_of(const io::Json& doc) const {
        std::uint64_t fp = 0;
        try {
            if (doc.contains("instance_ref")) {
                fp = service::fingerprint_from_hex(
                    doc.at("instance_ref").as_string());
            } else if (doc.contains("instance")) {
                const model::Instance inst =
                    io::instance_from_json(doc.at("instance"));
                fp = core::PlanningContext::instance_fingerprint(inst);
            }
        } catch (const std::exception&) {
            fp = 0;
        }
        return static_cast<std::size_t>(fp % shards_.size());
    }

    /// De-tag a shard response and hand it to its client. The id prefix
    /// (`"<seq>#"`) is stripped textually — object keys are sorted by the
    /// serializer, so the first `"id":"` in the payload is the top-level id
    /// (every earlier key holds a number/bool, and escaping prevents the
    /// sequence appearing inside an error string). Anything unexpected
    /// falls back to a full parse.
    void forward_response(const std::string& payload) {
        std::uint64_t seq = 0;
        std::string out;
        bool parsed = false;
        const std::size_t pos = payload.find("\"id\":\"");
        if (pos != std::string::npos) {
            std::size_t i = pos + 6;
            std::uint64_t v = 0;
            bool digits = false;
            while (i < payload.size() && payload[i] >= '0' &&
                   payload[i] <= '9') {
                v = v * 10 + static_cast<std::uint64_t>(payload[i] - '0');
                digits = true;
                ++i;
            }
            if (digits && i < payload.size() && payload[i] == '#') {
                seq = v;
                out = payload;
                out.erase(pos + 6, i + 1 - (pos + 6));
                parsed = true;
            }
        }
        if (!parsed) {
            try {
                io::Json doc = io::Json::parse(payload);
                const std::string tagged = doc.string_or("id", "");
                const std::size_t hash = tagged.find('#');
                if (hash == std::string::npos) return;  // not ours; drop
                seq = std::stoull(tagged.substr(0, hash));
                doc["id"] = tagged.substr(hash + 1);
                out = doc.dump();
            } catch (const std::exception&) {
                return;  // undecodable response; drop
            }
        }
        auto it = pending_.find(seq);
        if (it == pending_.end()) return;  // duplicate after resend race
        const PendingReq p = std::move(it->second);
        pending_.erase(it);
        front_.deliver(p.client_id, encode_frame(out, p.client_lp));
    }

    void serve_shard(std::size_t i, const PollEntry& e) {
        Upstream& u = *shards_[i];
        if (!u.up) return;
        if (e.error) {
            mark_down(i);
            return;
        }
        if (e.readable) {
            char buf[kReadChunk];
            while (true) {
                const IoResult r = u.sock.read_some(buf, sizeof(buf));
                if (r.status == IoStatus::kOk) {
                    u.decoder.feed(buf, r.n);
                    while (auto f = u.decoder.next()) {
                        if (f->malformed) {
                            ++t_.frames_malformed;
                            continue;
                        }
                        forward_response(f->payload);
                    }
                    continue;
                }
                if (r.status == IoStatus::kEof ||
                    r.status == IoStatus::kError) {
                    mark_down(i);
                    return;
                }
                break;
            }
        }
        if (e.writable && !u.outbuf.empty()) {
            const IoResult r =
                u.sock.write_some(u.outbuf.data(), u.outbuf.size());
            if (r.status == IoStatus::kOk) {
                u.outbuf.erase(0, r.n);
            } else if (r.status == IoStatus::kError) {
                mark_down(i);
            }
        }
    }

    /// Post-announce worker stdout (final summaries etc.): drain and
    /// discard so the child never blocks on a full pipe; close on EOF so a
    /// dead child's POLLHUP doesn't spin the loop until the respawn
    /// replaces the pipe.
    void drain_child_out(std::size_t i) {
        Socket& out = shards_[i]->child_out;
        char buf[256];
        while (true) {
            const IoResult r = out.read_some(buf, sizeof(buf));
            if (r.status == IoStatus::kOk) continue;
            if (r.status != IoStatus::kWouldBlock) out.close();
            break;
        }
    }

    const RouterConfig& cfg_;
    const bool managed_;
    Front front_;
    TransportStats& t_;
    std::vector<std::unique_ptr<Upstream>> shards_;
    std::map<std::uint64_t, PendingReq> pending_;
    std::uint64_t next_seq_{1};
    /// Per role poll entry: {shard, is its child's stdout}.
    std::vector<std::pair<std::size_t, bool>> tags_;
};

}  // namespace

Router::RunResult Router::run() {
    RouteRole role(cfg_);
    role.bring_up();
    RunResult result;
    result.transport = role.front().run();
    result.clean_shutdown = role.reap_children();
    return result;
}

}  // namespace uavdc::net
