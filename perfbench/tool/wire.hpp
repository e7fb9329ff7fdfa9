#pragma once

// The benchmark's own client side of the wire: child-process spawning, a
// minimal length-prefixed framer, response field scanning and /proc
// sampling. It deliberately does not use net/frame or io/json, so a change
// to those layers moves only the server side of every measurement.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

[[nodiscard]] std::int64_t now_ns();

/// A spawned server process whose first stdout line is `LISTENING <port>`.
struct Child {
    pid_t pid{-1};
    int port{0};
    std::string name;
};

/// fork+exec `argv` with stdout on a pipe and stderr appended to
/// `log_path`; waits up to `timeout_ms` for the `LISTENING <port>` line.
/// Throws std::runtime_error (the child is killed and reaped) on failure.
[[nodiscard]] Child spawn_listening(const std::vector<std::string>& argv,
                                    const std::string& name,
                                    const std::string& log_path,
                                    int timeout_ms);

/// Pin every thread of process `pid` (0: the calling thread only) to CPU
/// `cpu`, or to every online CPU when `cpu` is negative.
void pin(pid_t pid, int cpu);

/// SIGTERM, wait up to `timeout_ms`, then SIGKILL; always reaps. Returns
/// the exit code (128+signal when killed by a signal).
int stop_child(Child& c, int timeout_ms);

/// Kill and reap every child still registered (used on error paths and
/// from the SIGTERM handler's aftermath).
void kill_all_children();

/// utime+stime of `pid` in microseconds, from /proc/<pid>/stat.
[[nodiscard]] double cpu_us(pid_t pid);
/// Peak resident set (`VmHWM`) of `pid` in MiB, from /proc/<pid>/status.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// Machine-wide CPU time in clock ticks from the `cpu` line of /proc/stat:
/// time spent running (user, nice, system, irq, softirq) and time the
/// hypervisor ran something else while a CPU had work (steal).
struct CpuTicks {
    double busy{0.0};
    double steal{0.0};
};
[[nodiscard]] CpuTicks cpu_ticks();

/// `$<len>\n<payload>` — the length-prefixed framing of the wire protocol.
void append_frame(std::string& out, std::string_view payload);

/// One client connection (blocking connect, then non-blocking I/O).
class Conn {
  public:
    explicit Conn(int port);
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    [[nodiscard]] int fd() const { return fd_; }
    /// Queue framed bytes and write as much as the socket takes.
    void send(const std::string& bytes);
    /// Write pending bytes; returns false on a dead socket.
    bool flush();
    [[nodiscard]] bool want_write() const { return off_ < out_.size(); }
    /// Read what is available; false on EOF/error.
    bool read_some();
    /// Pop the next complete length-prefixed payload, if any. The view
    /// stays valid until the next read_some().
    bool next_frame(std::string_view& payload);

    /// Blocking round trip of one framed payload (control verbs, probes).
    std::string call(const std::string& payload, int timeout_ms);

  private:
    int fd_{-1};
    std::string out_;
    std::size_t off_{0};
    std::string in_;
    std::size_t in_off_{0};
    std::size_t consumed_{0};
};

/// Fields the client reads from a response envelope without a JSON parser.
/// The envelope is emitted in sorted-key order:
/// {"cache_hit":..,["error":..,]"exec_ms":..,"id":"..","partial":..,
///  "queue_ms":..,"result":{..},"status":".."}
struct Envelope {
    std::string_view id;
    std::string_view status;
    std::string_view result;  ///< raw bytes of the `result` value
    double queue_ms{0.0};
    double exec_ms{0.0};
};

/// False when the payload does not have the envelope shape.
bool scan_envelope(std::string_view payload, Envelope& env);

}  // namespace pb
