#include "uavdc/net/front.hpp"

#include <utility>

namespace uavdc::net {

namespace {

constexpr std::size_t kReadChunk = 64u * 1024;

}  // namespace

/// One client connection's loop-side state. `submitted`/`delivered` count
/// accepted plan requests only (control verbs are answered inline), which
/// is exactly the pair the per-connection `drain` barrier compares.
struct Front::Conn {
    ConnId id;
    Socket sock;
    FrameDecoder decoder;
    std::string outbuf;
    std::uint64_t submitted{0};
    std::uint64_t delivered{0};
    struct DrainWait {
        std::uint64_t threshold;  ///< release when delivered >= this
        std::string id;
        bool length_prefixed;
    };
    std::vector<DrainWait> drains;
    bool read_eof{false};
    bool dead{false};  ///< peer reset / write error: discard silently

    Conn(ConnId i, Socket s, std::size_t max_frame)
        : id(i), sock(std::move(s)), decoder(max_frame) {}
};

Front::Front(const FrontConfig& cfg, Role& role) : cfg_(cfg), role_(role) {}

Front::~Front() = default;

void Front::deliver(ConnId conn, const std::string& frame) {
    auto it = conns_.find(conn);
    if (it == conns_.end() || it->second->dead) return;
    Conn& c = *it->second;
    c.outbuf += frame;
    ++c.delivered;
    ++t_.responses;
    release_drains(c);
}

void Front::answer(ConnId conn, const std::string& id,
                   service::ResponseStatus status, const std::string& why,
                   bool length_prefixed) {
    answer(*conns_.at(conn), id, status, why, length_prefixed);
}

void Front::answer(Conn& c, const std::string& id,
                   service::ResponseStatus status, const std::string& why,
                   bool length_prefixed) {
    service::PlanResponse resp;
    resp.id = id;
    resp.status = status;
    resp.error = why;
    c.outbuf += encode_frame(service::response_line(resp), length_prefixed);
    if (status == service::ResponseStatus::kShutdown) ++t_.shed_on_shutdown;
}

void Front::control_reply(Conn& c, const std::string& id,
                          const std::string& op, bool length_prefixed) {
    TransportStats snap = t_;
    snap.open_connections = conns_.size();
    for (const auto& [cid, cc] : conns_) {
        snap.write_queue_bytes += cc->outbuf.size();
    }
    io::Json stats = role_.stats();
    stats["transport"] = to_json(snap);
    io::Json reply;
    reply["id"] = id;
    reply["op"] = op;
    reply["status"] = "ok";
    reply["stats"] = std::move(stats);
    c.outbuf += encode_frame(reply.dump(), length_prefixed);
    ++t_.control;
}

void Front::release_drains(Conn& c) {
    for (std::size_t i = 0; i < c.drains.size();) {
        if (c.delivered >= c.drains[i].threshold) {
            control_reply(c, c.drains[i].id, "drain",
                          c.drains[i].length_prefixed);
            c.drains.erase(c.drains.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

// Decode-side dispatch of one frame. `shed` (drain path): the role answers
// plan requests with `shutdown` instead of accepting them.
void Front::dispatch(Conn& c, const Frame& f, bool shed) {
    if (f.malformed) {
        ++t_.frames_malformed;
        answer(c, "", service::ResponseStatus::kBadRequest,
               "malformed frame: " + f.error, false);
        return;
    }
    ++t_.frames_decoded;
    if (f.payload.empty()) return;  // blank line, JSONL-style

    io::Json doc;
    try {
        doc = io::Json::parse(f.payload);
    } catch (const std::exception& ex) {
        answer(c, "", service::ResponseStatus::kBadRequest,
               std::string("unparseable frame: ") + ex.what(),
               f.length_prefixed);
        return;
    }
    const std::string id = service::envelope_string(doc, "id");
    const std::string op = service::envelope_string(doc, "op");
    if (op == "stats") {
        control_reply(c, id, "stats", f.length_prefixed);
        return;
    }
    if (op == "drain") {
        if (c.delivered >= c.submitted) {
            control_reply(c, id, "drain", f.length_prefixed);
        } else {
            c.drains.push_back({c.submitted, id, f.length_prefixed});
        }
        return;
    }
    if (!op.empty()) {
        answer(c, id, service::ResponseStatus::kBadRequest,
               "unknown op '" + op + "' (expected stats|drain)",
               f.length_prefixed);
        return;
    }
    if (role_.request(c.id, f, doc, id, shed)) {
        ++c.submitted;
        ++t_.requests;
    }
}

// Decode + dispatch whatever is buffered for `c`, stopping at the
// write-queue bound: a connection whose client stopped reading keeps its
// complete-but-undispatched frames *in the decoder* (bounded by
// max_frame_bytes per frame) instead of growing the output queue. The
// write path calls this again once the client drained some output.
void Front::pump_frames(Conn& c) {
    while (!c.dead && c.outbuf.size() < cfg_.write_queue_limit) {
        auto f = c.decoder.next();
        if (!f) break;
        dispatch(c, *f, /*shed=*/false);
    }
}

// Graceful drain: no new connections, no further reads. Frames already
// decoded into the buffers but not yet dispatched are shed; everything
// accepted completes in the loop.
void Front::begin_stop() {
    stopping_ = true;
    listener_.close();
    for (auto& [id, c] : conns_) {
        if (c->dead) continue;
        while (auto f = c->decoder.next()) {
            dispatch(*c, *f, /*shed=*/true);
        }
    }
}

// Close whatever is finished: a dead peer immediately; a drained
// connection (EOF or front drain, nothing owed, nothing buffered) with an
// orderly FIN.
void Front::reap() {
    for (auto it = conns_.begin(); it != conns_.end();) {
        const Conn& c = *it->second;
        const bool drained = c.submitted == c.delivered && c.outbuf.empty() &&
                             c.drains.empty();
        if (c.dead || ((c.read_eof || stopping_) && drained)) {
            ++t_.connections_closed;
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void Front::accept_all() {
    while (auto accepted = listener_.accept_one()) {
        accepted->set_nonblocking(true);
        accepted->set_nodelay(true);
        const ConnId id = next_conn_id_++;
        conns_.emplace(id, std::make_unique<Conn>(id, std::move(*accepted),
                                                  cfg_.max_frame_bytes));
        ++t_.connections_opened;
    }
}

void Front::serve(Conn& c, const PollEntry& e) {
    if (e.error) {
        c.dead = true;
        return;
    }
    if (e.readable && !c.read_eof && !c.dead && !stopping_) {
        char buf[kReadChunk];
        while (c.outbuf.size() < cfg_.write_queue_limit) {
            const IoResult r = c.sock.read_some(buf, sizeof(buf));
            if (r.status == IoStatus::kOk) {
                t_.bytes_in += r.n;
                c.decoder.feed(buf, r.n);
                pump_frames(c);
                continue;
            }
            if (r.status == IoStatus::kEof) c.read_eof = true;
            if (r.status == IoStatus::kError) c.dead = true;
            break;
        }
    }
    // Write whatever is queued, writable-polled or not: responses the role
    // delivered during this iteration then leave now instead of one poll
    // round later (a full socket just answers EAGAIN).
    if (!c.outbuf.empty() && !c.dead) {
        const IoResult r = c.sock.write_some(c.outbuf.data(), c.outbuf.size());
        if (r.status == IoStatus::kOk) {
            t_.bytes_out += r.n;
            c.outbuf.erase(0, r.n);
            // Resume frames parked behind the write-queue bound: a client
            // that already sent everything produces no further read event.
            if (!stopping_) pump_frames(c);
        } else if (r.status == IoStatus::kError) {
            c.dead = true;
        }
    }
}

TransportStats Front::run() {
    listener_ = Socket::listen_tcp(cfg_.host, cfg_.port, 256);
    listener_.set_nonblocking(true);
    if (cfg_.on_listening) cfg_.on_listening(listener_.local_port());

    std::vector<PollEntry> entries;
    std::vector<Conn*> entry_conns;  // parallel to the client entries
    while (true) {
        if (!stopping_ && cfg_.stop != nullptr &&
            cfg_.stop->load(std::memory_order_acquire)) {
            begin_stop();
        }
        role_.tick(stopping_);
        reap();
        if (stopping_ && conns_.empty()) break;

        entries.clear();
        entry_conns.clear();
        role_.poll_set(entries);
        if (cfg_.wake_fd >= 0) {
            entries.push_back({cfg_.wake_fd, true, false, false, false, false});
        }
        const std::size_t listener_slot = entries.size();
        if (!stopping_) {
            entries.push_back(
                {listener_.fd(), true, false, false, false, false});
        }
        const std::size_t first_conn = entries.size();
        for (const auto& [id, c] : conns_) {
            PollEntry e;
            e.fd = c->sock.fd();
            e.want_read = !stopping_ && !c->read_eof && !c->dead &&
                          c->outbuf.size() < cfg_.write_queue_limit;
            e.want_write = !c->outbuf.empty() && !c->dead;
            entries.push_back(e);
            entry_conns.push_back(c.get());
        }
        poll_wait(entries, cfg_.poll_timeout_ms);

        role_.on_poll(entries);
        if (!stopping_ && entries[listener_slot].readable) accept_all();
        for (std::size_t i = 0; i < entry_conns.size(); ++i) {
            serve(*entry_conns[i], entries[first_conn + i]);
        }
    }
    return t_;
}

}  // namespace uavdc::net
