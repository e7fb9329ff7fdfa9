#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uavdc/io/json.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/net/transport_stats.hpp"
#include "uavdc/service/request.hpp"

namespace uavdc::net {

/// Client-facing settings, shared by `TcpServerConfig` and `RouterConfig`.
struct FrontConfig {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 binds an ephemeral port (see `on_listening`)
    std::size_t max_frame_bytes = 16u << 20;
    /// Per-connection backpressure bound: once this many response bytes are
    /// queued for a slow reader, the front stops *reading* that connection
    /// until the queue drains below the bound — pipelining cannot buffer
    /// unbounded output for a client that never consumes it.
    std::size_t write_queue_limit = 8u << 20;
    /// Graceful-drain request (`ShutdownSignal::flag()` in the CLI; a plain
    /// atomic in tests). Observed promptly via `wake_fd` when supplied,
    /// within the poll timeout otherwise.
    const std::atomic<bool>* stop = nullptr;
    int wake_fd = -1;  ///< optional readable-on-signal fd added to the poll set
    int poll_timeout_ms = 200;
    /// Called once, with the bound port, after listen succeeds (the
    /// `--announce` handshake that lets a parent spawn workers on port 0).
    std::function<void(int)> on_listening;
};

/// The client side of the wire: a single-threaded poll(2) loop over
/// persistent, pipelined client connections, shared by the plan server
/// (`TcpServer`) and the router (`Router`). A `Role` adds what is its own —
/// how a plan request is answered, the body of a `stats` reply, and any
/// descriptors of its own in the poll set.
///
/// Wire protocol: every frame (see `FrameDecoder`) carries one JSON
/// document — a plan request (handed to the role), `{"op":"stats",...}`
/// (an immediate snapshot, with transport counters under `"transport"`),
/// or `{"op":"drain",...}` (a per-connection barrier: answered only after
/// every plan request previously accepted on that connection has been
/// answered). Each response is framed the way its request was. Malformed
/// payloads, framing damage and unknown verbs are answered with
/// `bad_request` — the connection stays open.
///
/// Graceful drain (`stop` set, or SIGTERM via the CLI): the listener
/// closes, no further bytes are read, accepted requests complete and their
/// responses flush, frames decoded but not yet handed to the role are shed
/// (`shutdown`, or `bad_request` when invalid), then connections close
/// cleanly and `run` returns.
class Front {
  public:
    using ConnId = std::uint64_t;

    class Role {
      public:
        /// One plan request: `frame` as received, `doc` its payload parsed
        /// (no `"op"`), `id` its id. Return true to accept it — the role
        /// then owes exactly one `deliver` for it, framed as `frame` was.
        /// Otherwise answer it now through `answer`: `bad_request`, or
        /// `shutdown` when `shed` (the front is draining).
        virtual bool request(ConnId conn, const Frame& frame,
                             const io::Json& doc, const std::string& id,
                             bool shed) = 0;
        /// Body of a `stats`/`drain` reply; the front adds `"transport"`.
        [[nodiscard]] virtual io::Json stats() = 0;
        /// Once per loop iteration, before the poll set is built.
        virtual void tick(bool /*stopping*/) {}
        /// Append the role's descriptors; they come first in the poll set.
        virtual void poll_set(std::vector<PollEntry>& entries) = 0;
        /// Handle the role's descriptors after the poll (same order).
        virtual void on_poll(const std::vector<PollEntry>& entries) = 0;

      protected:
        ~Role() = default;  // never owned or deleted through a Role
    };

    Front(const FrontConfig& cfg, Role& role);
    ~Front();
    Front(const Front&) = delete;
    Front& operator=(const Front&) = delete;

    /// Bind, serve until the stop flag (plus drain), and return the final
    /// counters. Throws std::runtime_error when the bind itself fails.
    TransportStats run();

    /// Hand the framed response to an accepted request to its connection
    /// (dropped when the client is gone).
    void deliver(ConnId conn, const std::string& frame);
    /// Answer a request the role did not accept; a `shutdown` answer is
    /// counted in `shed_on_shutdown`.
    void answer(ConnId conn, const std::string& id,
                service::ResponseStatus status, const std::string& why,
                bool length_prefixed);

    [[nodiscard]] TransportStats& transport() { return t_; }

  private:
    struct Conn;

    void dispatch(Conn& c, const Frame& f, bool shed);
    void pump_frames(Conn& c);
    void answer(Conn& c, const std::string& id,
                service::ResponseStatus status, const std::string& why,
                bool length_prefixed);
    void control_reply(Conn& c, const std::string& id, const std::string& op,
                       bool length_prefixed);
    void release_drains(Conn& c);
    void begin_stop();
    void reap();
    void accept_all();
    void serve(Conn& c, const PollEntry& e);

    const FrontConfig& cfg_;
    Role& role_;
    TransportStats t_;
    Socket listener_;
    std::map<ConnId, std::unique_ptr<Conn>> conns_;
    ConnId next_conn_id_{1};
    bool stopping_{false};
};

}  // namespace uavdc::net
