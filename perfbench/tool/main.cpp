// perfbench_tool — one run of the end-to-end plan-service benchmark.
//
// Spawns two `uavdc serve --tcp --announce --workers=1` shards and a
// `uavdc route --endpoints=...` router, primes them (set-up, timed several
// times), discards a warm-up pass, then alternates open-loop phases at a
// fixed offered rate with closed-loop saturation phases over at most four
// connections from this one process. Figures are taken over the calm
// stretches of the run, those in which the hypervisor stole little CPU
// time. Every response is checked against an in-process reference. With
// `--trace 1` it also probes the router hop and replays the same requests
// in-process with spans.
//
// The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit codes: 0 ok, 1 correctness gate failed, 2 error, 4 too little of the
// run was calm (no result line).

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "trace.hpp"
#include "uavdc/io/json.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace pb {
namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

/// Client connections, clamped to the number of CPUs.
constexpr int kConnections = 4;
/// The discarded warm-up pass after priming: the first pass after start-up
/// ran about a third slower than later ones.
constexpr double kWarmupS = 1.0;
/// cold_paper instances of the engine crossover in the traced run.
constexpr int kCrossover = 4;

/// Per-workload parameters (perfbench/workloads.json, passed by run.py).
struct Args {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{0.0};
    bool trace{false};
    std::string uavdc;
    std::string out_dir;
    bool tamper{false};        ///< corrupt one response (gate self-test)
    double open_rps{0.0};      ///< open-loop offered rate
    double open_share{0.0};    ///< share of --seconds spent in open loops
    double slo_ms{0.0};        ///< latency limit for slo_frac
    int window{0};             ///< closed-loop requests in flight per conn
    int setups{0};             ///< calm set-ups whose median is setup_s
    std::uint64_t replay{0};   ///< measured requests replayed when traced
    int connections{0};
};

Args parse_args(int argc, char** argv) {
    std::map<std::string, std::string> kv;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0) {
            throw std::invalid_argument("unexpected argument " + k);
        }
        kv[k.substr(2)] = argv[i + 1];
    }
    auto need = [&](const char* k) {
        const auto it = kv.find(k);
        if (it == kv.end()) {
            throw std::invalid_argument(std::string("--") + k + " is required");
        }
        return it->second;
    };
    Args a;
    a.workload = need("workload");
    a.seed = std::stoull(need("seed"));
    a.seconds = std::stod(need("seconds"));
    a.trace = need("trace") == "1";
    a.uavdc = need("uavdc");
    a.out_dir = need("out");
    a.tamper = need("tamper") == "1";
    a.open_rps = std::stod(need("open-rps"));
    a.open_share = std::stod(need("open-share"));
    a.slo_ms = std::stod(need("slo-ms"));
    a.window = std::stoi(need("window"));
    a.setups = std::stoi(need("setups"));
    a.replay = std::stoull(need("replay"));
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    a.connections = std::clamp(kConnections, 1, static_cast<int>(std::max(1L, cpus)));
    return a;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest whole percentile up to p99 with at least ten of `n`
/// samples beyond it.
double tail_percentile(std::size_t n) {
    if (n < 20) return 50.0;
    return std::min(99.0, std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

/// Stretches of the run in which the hypervisor stole at most this share of
/// the machine's CPU time are calm; only calm stretches are measured. On a
/// shared 4-vCPU VM steal came in episodes: between them it read 0-1% over
/// a run, with single ticks here and there; in them 20-70% for seconds to
/// minutes, during which warm_hits' open-loop p50 rose up to fifteenfold
/// and throughput fell by up to a third.
constexpr double kCalmSteal = 0.05;
/// A run needs at least this share of its planned set-ups, open-loop time
/// and saturation time calm. It extends itself (more set-ups, more rounds,
/// up to three times the plan) to get there, and otherwise fails as
/// unsteady instead of reporting figures the noise set.
constexpr double kMinCalmShare = 0.5;

/// Seconds of set-up attempts a run may spend looking for calm ones, and
/// seconds since its start up to which it adds measured rounds while too
/// little was calm. Steal episodes lasted from seconds to a few minutes;
/// within these budgets the run, its check and its trace still end inside
/// run.py's hard timeout.
constexpr double kSetupBudgetS = 45.0;
constexpr double kMeasureBudgetS = 110.0;

/// Share of the machine's CPU time (all CPUs) stolen between two samples
/// `secs` apart.
double stolen_share(const CpuTicks& from, const CpuTicks& to, double secs) {
    static const double per_s =
        static_cast<double>(::sysconf(_SC_CLK_TCK)) *
        static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
    return (to.steal - from.steal) / std::max(1e-9, secs * per_s);
}

struct Cluster {
    std::vector<Child> shards;
    Child router;

    [[nodiscard]] std::vector<pid_t> pids() const {
        std::vector<pid_t> out;
        for (const auto& s : shards) out.push_back(s.pid);
        out.push_back(router.pid);
        return out;
    }

    /// Measured phases run pinned, given at least four CPUs: the client on
    /// CPU 0, the router on CPU 1, shard s on CPU 2 + s. Left to the
    /// scheduler, placement differed from run to run and warm_hits
    /// throughput was bimodal (about 32k vs 48k rps on a 4-vCPU VM), and
    /// two cold_paper shards landing on one CPU doubled open-loop latency.
    void pin_all() const {
        if (::sysconf(_SC_NPROCESSORS_ONLN) < 4) return;
        pin(0, 0);
        pin(router.pid, 1);
        for (std::size_t s = 0; s < shards.size(); ++s) {
            pin(shards[s].pid, static_cast<int>(2 + s));
        }
    }
};

Cluster spawn_cluster(const Args& a, int round) {
    Cluster c;
    const std::string log = a.out_dir + "/servers.log";
    for (int s = 0; s < 2; ++s) {
        c.shards.push_back(spawn_listening(
            // A deep admission queue: an open-loop burst after a scheduling
            // stall shows up as latency instead of `overloaded` answers.
            {a.uavdc, "serve", "--tcp", "--port=0", "--announce",
             "--workers=1", "--queue=4096"},
            "shard" + std::to_string(s) + "/round" + std::to_string(round),
            log, 30000));
    }
    c.router = spawn_listening(
        {a.uavdc, "route",
         "--endpoints=" + std::to_string(c.shards[0].port) + "," +
             std::to_string(c.shards[1].port),
         "--port=0", "--announce"},
        "router/round" + std::to_string(round), log, 30000);
    return c;
}

/// Stop router first (it forwards), then shards; every exit must be 0.
std::string stop_cluster(Cluster& c) {
    std::string bad;
    auto stop = [&](Child& ch) {
        const std::string name = ch.name;
        const int code = stop_child(ch, 20000);
        if (code != 0) bad += name + " exited " + std::to_string(code) + "; ";
    };
    stop(c.router);
    for (auto& s : c.shards) stop(s);
    return bad;
}

struct Timing {
    std::int64_t due{0};
    std::int64_t sent{0};
    std::int64_t recv{0};
    double queue_ms{0.0};
    double exec_ms{0.0};
    std::uint8_t phase{0};
};

enum Phase : std::uint8_t { kWarmup = 1, kSaturation = 2, kOpen = 3 };

/// Machine-wide /proc/stat samples taken at least every kSampleNs while
/// the client drives load, so every stretch of the run has a steal share.
class TickLog {
  public:
    static constexpr std::int64_t kSampleNs = 100000000;
    static constexpr std::size_t kSpan = 5;  ///< intervals: about 0.5 s

    void sample(std::int64_t now, bool force = false) {
        if (!force && !t_.empty() && now - t_.back() < kSampleNs) return;
        t_.push_back(now);
        ticks_.push_back(cpu_ticks());
    }
    [[nodiscard]] std::size_t intervals() const {
        return t_.empty() ? 0 : t_.size() - 1;
    }
    [[nodiscard]] std::int64_t begin(std::size_t k) const { return t_[k]; }
    [[nodiscard]] std::int64_t end(std::size_t k) const { return t_[k + 1]; }
    /// Interval holding time `t`, or intervals() when outside every one.
    [[nodiscard]] std::size_t at(std::int64_t t) const {
        const auto it = std::upper_bound(t_.begin(), t_.end(), t);
        if (it == t_.begin() || it == t_.end()) return intervals();
        return static_cast<std::size_t>(it - t_.begin()) - 1;
    }
    /// Calm: the hypervisor stole at most kCalmSteal of the CPU time in
    /// the second around interval k (kSpan intervals each side). The span
    /// also drops the edges of a steal episode, where the host was already
    /// (or still) slow while single samples showed little steal, and lets a
    /// lone tick of steal pass.
    [[nodiscard]] bool calm(std::size_t k) const {
        if (k >= intervals()) return false;
        const std::size_t lo = k > kSpan ? k - kSpan : 0;
        const std::size_t hi = std::min(intervals(), k + kSpan + 1);
        return stolen_share(ticks_[lo], ticks_[hi],
                            static_cast<double>(t_[hi] - t_[lo]) * 1e-9) <= kCalmSteal;
    }
    /// Calm seconds and all seconds of [b, e).
    [[nodiscard]] std::pair<double, double> calm_time(std::int64_t b,
                                                      std::int64_t e) const {
        double calm_s = 0.0, all_s = 0.0;
        for (std::size_t k = 0; k < intervals(); ++k) {
            const auto lo = std::max(b, begin(k));
            const auto hi = std::min(e, end(k));
            if (hi <= lo) continue;
            const double s = static_cast<double>(hi - lo) * 1e-9;
            all_s += s;
            if (calm(k)) calm_s += s;
        }
        return {calm_s, all_s};
    }
    /// Stolen share of the machine's CPU time over every interval.
    [[nodiscard]] double steal_overall() const {
        if (intervals() == 0) return 0.0;
        return stolen_share(ticks_.front(), ticks_.back(),
                            static_cast<double>(t_.back() - t_.front()) * 1e-9);
    }

  private:
    std::vector<std::int64_t> t_;
    std::vector<CpuTicks> ticks_;
};

/// Drives requests over the client connections and records what comes
/// back. Request i has id `i`; outcomes_[i] and times_[i] describe it.
class Driver {
  public:
    Driver(const Args& a, const Workload& wl, int port,
           std::vector<std::string> keyed, TickLog& ticks)
        : a_(a), wl_(wl), keyed_(std::move(keyed)), ticks_(ticks) {
        for (int i = 0; i < a.connections; ++i) {
            conns_.push_back(std::make_unique<Conn>(port));
        }
        inflight_.assign(conns_.size(), 0);
    }

    /// Closed loop: `window` requests in flight per connection for
    /// `secs`; returns responses received inside the window.
    std::uint64_t closed(Phase phase, double secs) {
        const std::int64_t t0 = now_ns();
        const std::int64_t end = t0 + static_cast<std::int64_t>(secs * 1e9);
        closed_phase_ = phase;
        closed_open_ = true;
        received_in_window_ = 0;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            for (int w = 0; w < a_.window; ++w) issue(c, phase, now_ns());
        }
        while (now_ns() < end) pump(end);
        closed_open_ = false;
        window_end_ns_ = now_ns();
        return received_in_window_;
    }

    /// Open loop at `rate` for `secs` of due times; returns requests sent.
    std::uint64_t open(double rate, double secs) {
        const std::int64_t t0 = now_ns();
        const auto n = static_cast<std::uint64_t>(std::llround(rate * secs));
        const double gap = 1e9 / rate;
        std::size_t c = 0;
        for (std::uint64_t k = 0; k < n;) {
            const std::int64_t now = now_ns();
            while (k < n &&
                   t0 + static_cast<std::int64_t>(gap * static_cast<double>(k)) <=
                       now) {
                issue(c, kOpen,
                      t0 + static_cast<std::int64_t>(gap *
                                                     static_cast<double>(k)));
                c = (c + 1) % conns_.size();
                ++k;
            }
            if (k < n) {
                pump(t0 + static_cast<std::int64_t>(gap * static_cast<double>(k)));
            }
        }
        return n;
    }

    /// Send requests until `n` have been sent in all, then wait for them:
    /// a short run still answers every request of the workload's quality
    /// set. Not measured.
    bool top_up(std::uint64_t n, int timeout_ms) {
        for (std::size_t c = 0; outcomes_.size() < n; c = (c + 1) % conns_.size()) {
            issue(c, kWarmup, now_ns());
        }
        return drain(timeout_ms);
    }

    /// Wait for every outstanding response (bounded).
    bool drain(int timeout_ms) {
        const std::int64_t end =
            now_ns() + std::int64_t{timeout_ms} * 1000000;
        while (outstanding() > 0 && now_ns() < end) pump(end);
        return outstanding() == 0;
    }

    [[nodiscard]] std::uint64_t outstanding() const {
        std::uint64_t n = 0;
        for (auto v : inflight_) n += v;
        return n;
    }

    [[nodiscard]] std::int64_t window_end_ns() const { return window_end_ns_; }
    /// Responses whose id matches no request sent.
    [[nodiscard]] std::uint64_t stray() const { return stray_; }
    std::vector<Outcome>& outcomes() { return outcomes_; }
    [[nodiscard]] const std::vector<Timing>& times() const { return times_; }
    /// Build the next `n` requests now, so a phase sends them without
    /// paying for their construction (costly workloads only).
    void prepare(std::uint64_t n) {
        if (!wl_.costly()) return;
        const std::uint64_t from = outcomes_.size();
        ready_.clear();
        ready_base_ = from;
        for (std::uint64_t i = 0; i < n; ++i) ready_.push_back(wl_.request(from + i));
    }

  private:
    void issue(std::size_t c, Phase phase, std::int64_t due) {
        const std::uint64_t i = outcomes_.size();
        Request r = i >= ready_base_ && i - ready_base_ < ready_.size()
                        ? std::move(ready_[i - ready_base_])
                        : wl_.request(i);
        Outcome o;
        o.id = std::to_string(i);
        o.key = r.key;
        o.measured = phase != kWarmup;
        o.quality = i < wl_.quality_requests();
        if (r.key < 0) o.payload = r.payload;
        outcomes_.push_back(std::move(o));
        Timing t;
        t.due = due;
        t.phase = phase;
        frame_.clear();
        append_frame(frame_, r.payload);
        t.sent = now_ns();
        times_.push_back(t);
        conns_[c]->send(frame_);
        ++inflight_[c];
    }

    void pump(std::int64_t until) {
        if (g_stop.load()) throw std::runtime_error("interrupted by signal");
        ticks_.sample(now_ns());
        std::vector<pollfd> fds;
        for (const auto& c : conns_) {
            fds.push_back({c->fd(),
                           static_cast<short>(POLLIN |
                                              (c->want_write() ? POLLOUT : 0)),
                           0});
        }
        const std::int64_t wait =
            std::clamp<std::int64_t>(until - now_ns(), 0, 50000000);
        timespec ts{0, static_cast<long>(wait)};
        const int r = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (r <= 0) return;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            if (fds[c].revents == 0) continue;
            if (!conns_[c]->flush() ||
                ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
                 !conns_[c]->read_some())) {
                throw std::runtime_error("connection to the router lost");
            }
            std::string_view payload;
            while (conns_[c]->next_frame(payload)) on_response(c, payload);
        }
    }

    void on_response(std::size_t c, std::string_view payload) {
        const std::int64_t now = now_ns();
        Envelope env;
        std::uint64_t i = 0;
        if (!scan_envelope(payload, env) ||
            std::from_chars(env.id.data(), env.id.data() + env.id.size(), i)
                    .ec != std::errc() ||
            i >= outcomes_.size()) {
            ++stray_;
            return;
        }
        auto& o = outcomes_[i];
        auto& t = times_[i];
        if (++o.responses == 1) {
            --inflight_[c];
            o.status = std::string(env.status);
            t.recv = now;
            t.queue_ms = env.queue_ms;
            t.exec_ms = env.exec_ms;
            std::string_view result = env.result;
            std::string tampered;
            if (a_.tamper && o.measured && !tampered_) {
                // Gate self-test: one digit of one measured result changes.
                tampered = std::string(result);
                const auto d = tampered.find_first_of("123456789");
                if (d != std::string::npos) {
                    tampered[d] = tampered[d] == '9' ? '8' : '9';
                }
                result = tampered;
                tampered_ = true;
            }
            if (o.key >= 0) {
                const auto& want = keyed_[static_cast<std::size_t>(o.key)];
                if (result != want) {
                    o.key_mismatch = true;
                    o.result = std::string(result);
                }
            } else {
                o.result = std::string(result);
            }
            if (closed_open_) {
                ++received_in_window_;
                issue(c, closed_phase_, now_ns());
            }
        }
    }

    const Args& a_;
    const Workload& wl_;
    std::vector<std::string> keyed_;
    TickLog& ticks_;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<std::uint64_t> inflight_;
    std::vector<Outcome> outcomes_;
    std::vector<Timing> times_;
    std::string frame_;
    std::vector<Request> ready_;
    std::uint64_t ready_base_{0};
    bool closed_open_{false};
    Phase closed_phase_{kWarmup};
    std::uint64_t received_in_window_{0};
    std::int64_t window_end_ns_{0};
    std::uint64_t stray_{0};
    bool tampered_{false};
};

/// Pipelined priming: send everything, wait for every answer.
std::vector<Outcome> prime(const Cluster& c, const std::vector<Request>& reqs,
                           int timeout_ms) {
    Conn conn(c.router.port);
    std::vector<Outcome> out(reqs.size());
    std::map<std::string, std::size_t> by_id;
    std::string batch;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        const auto& p = reqs[k].payload;
        const auto at = p.find("\"id\":\"") + 6;
        out[k].id = p.substr(at, p.find('"', at) - at);
        out[k].payload = p;
        out[k].key = reqs[k].key;
        by_id[out[k].id] = k;
        append_frame(batch, p);
    }
    conn.send(batch);
    std::size_t answered = 0;
    const std::int64_t end = now_ns() + std::int64_t{timeout_ms} * 1000000;
    while (answered < reqs.size()) {
        if (g_stop.load()) throw std::runtime_error("interrupted by signal");
        if (now_ns() >= end) throw std::runtime_error("priming timed out");
        pollfd p{conn.fd(),
                 static_cast<short>(POLLIN | (conn.want_write() ? POLLOUT : 0)),
                 0};
        ::poll(&p, 1, 50);
        if (!conn.flush() || !conn.read_some()) {
            throw std::runtime_error("connection lost while priming");
        }
        std::string_view payload;
        while (conn.next_frame(payload)) {
            Envelope env;
            if (!scan_envelope(payload, env)) continue;
            const auto it = by_id.find(std::string(env.id));
            if (it == by_id.end()) continue;
            auto& o = out[it->second];
            if (o.responses++ == 0) ++answered;
            o.status = std::string(env.status);
            o.result = std::string(env.result);
        }
    }
    return out;
}

struct Counters {
    double bytes{0.0};
    double hits{0.0};
    double misses{0.0};
};

/// Sum of transport bytes (router + shards) and shard response-cache
/// counters, from the `stats` verb.
Counters read_counters(const Cluster& c) {
    Counters k;
    auto stats = [](int port) {
        Conn conn(port);
        return uavdc::io::Json::parse(
            conn.call(R"({"op":"stats","id":"bench-stats"})", 10000));
    };
    auto bytes = [](const uavdc::io::Json& doc) {
        const auto& t = doc.at("stats").at("transport");
        return t.at("bytes_in").as_number() + t.at("bytes_out").as_number();
    };
    k.bytes += bytes(stats(c.router.port));
    for (const auto& s : c.shards) {
        const auto doc = stats(s.port);
        k.bytes += bytes(doc);
        k.hits += doc.at("stats").at("cache").at("hits").as_number();
        k.misses += doc.at("stats").at("cache").at("misses").as_number();
    }
    return k;
}

double cluster_cpu_us(const Cluster& c) {
    double us = 0.0;
    for (pid_t p : c.pids()) us += cpu_us(p);
    return us;
}

/// Median round trip in microseconds of `n` probe requests on `port`.
double probe_rtt_us(int port, const Workload& wl, const std::string& tag,
                    int n) {
    Conn conn(port);
    std::vector<double> rtt;
    for (int j = 0; j < n + 10; ++j) {
        const auto t0 = now_ns();
        const auto resp =
            conn.call(wl.probe(tag + std::to_string(j)), 10000);
        const auto t1 = now_ns();
        Envelope env;
        if (!scan_envelope(resp, env) || env.status != "ok") {
            throw std::runtime_error("router-hop probe failed on port " +
                                     std::to_string(port));
        }
        if (j >= 10) rtt.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    return percentile(rtt, 50.0);
}

std::string fmt_short(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// Result of a run that found too little calm time to measure.
struct Unsteady : std::runtime_error {
    using std::runtime_error::runtime_error;
};

int run(const Args& a) {
    const auto t_start = now_ns();
    const auto wl = make_workload(a.workload, a.seed);
    std::map<std::string, std::pair<double, std::string>> metrics;
    auto put = [&](const std::string& name, double v, const std::string& unit) {
        metrics[name] = {v, unit};
    };
    std::map<std::string, double> detail;

    // --- set-up: spawn + LISTENING + priming answered, until `setups`
    // calm set-ups are timed or kSetupBudgetS is spent ---
    std::vector<double> setups;
    Cluster cluster;
    std::vector<Outcome> primed;
    int round = 0;
    for (;; ++round) {
        if (round > 0) {
            const auto bad = stop_cluster(cluster);
            if (!bad.empty()) throw std::runtime_error("set-up: " + bad);
        }
        const auto priming = wl->priming(round);
        const CpuTicks k0 = cpu_ticks();
        const auto t0 = now_ns();
        cluster = spawn_cluster(a, round);
        primed = prime(cluster, priming, 170000);
        const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
        const double steal = stolen_share(k0, cpu_ticks(), secs);
        detail["setup_s." + std::to_string(round)] = secs;
        detail["setup_steal." + std::to_string(round)] = steal;
        if (steal <= kCalmSteal) setups.push_back(secs);
        if (static_cast<int>(setups.size()) >= a.setups ||
            static_cast<double>(now_ns() - t_start) * 1e-9 >= kSetupBudgetS) {
            break;
        }
    }
    const int setup_round = round;
    detail["calm.setups"] = static_cast<double>(setups.size());
    if (static_cast<double>(setups.size()) < kMinCalmShare * a.setups) {
        throw Unsteady("machine unsteady: hypervisor steal above " +
                       fmt_short(kCalmSteal * 100.0) + "% of the CPU time left " +
                       std::to_string(setups.size()) + " of " +
                       std::to_string(setup_round + 1) + " set-ups calm; no figures reported");
    }
    const auto priming = wl->priming(setup_round);
    std::vector<std::string> keyed;
    for (const auto& o : primed) {
        if (o.key < 0) continue;
        if (keyed.size() <= static_cast<std::size_t>(o.key)) {
            keyed.resize(static_cast<std::size_t>(o.key) + 1);
        }
        keyed[static_cast<std::size_t>(o.key)] = o.result;
    }

    const auto t_drive = now_ns();
    cluster.pin_all();
    TickLog ticks;
    Driver d(a, *wl, cluster.router.port, keyed, ticks);
    // --- warm-up pass, discarded ---
    d.prepare(static_cast<std::uint64_t>(a.open_rps * 2.0 * kWarmupS * 2.0));
    const std::uint64_t warm_n = d.closed(kWarmup, kWarmupS);
    if (!d.drain(120000)) throw std::runtime_error("warm-up did not drain");
    const std::uint64_t first_measured = d.outcomes().size();

    // --- measured phases ---
    // The run alternates an open-loop phase at the workload's fixed offered
    // rate with a closed-loop saturation phase, kRounds times, so a noisy
    // episode on a shared machine lands in a few intervals of both instead
    // of in one whole phase. Open loops go first in each round so their
    // latencies follow a drained system. While too little of the measured
    // time was calm, more rounds follow, up to kMeasureBudgetS.
    constexpr int kRounds = 4;
    const double open_s = a.seconds * a.open_share / kRounds;
    const double sat_phase_s = a.seconds * (1.0 - a.open_share) / kRounds;
    const Counters c0 = read_counters(cluster);
    std::uint64_t open_n = 0;
    std::uint64_t sat_n = 0;
    double cpu_sat_us = 0.0;
    std::vector<std::pair<std::int64_t, std::int64_t>> open_spans, sat_spans;
    auto calm_of = [&](const auto& spans) {
        double calm = 0.0;
        for (const auto& [b, e] : spans) calm += ticks.calm_time(b, e).first;
        return calm;
    };
    auto calm_enough = [&] {
        return calm_of(open_spans) >= kMinCalmShare * open_s * kRounds &&
               calm_of(sat_spans) >= kMinCalmShare * sat_phase_s * kRounds;
    };
    bool drained = true;
    int rounds = 0;
    auto in_budget = [&] {
        return static_cast<double>(now_ns() - t_start) * 1e-9 < kMeasureBudgetS;
    };
    for (; drained && (rounds < kRounds || (!calm_enough() && in_budget())); ++rounds) {
        d.prepare(static_cast<std::uint64_t>(std::llround(a.open_rps * open_s)));
        const auto o0 = now_ns();
        open_n += d.open(a.open_rps, open_s);
        open_spans.emplace_back(o0, o0 + static_cast<std::int64_t>(open_s * 1e9));
        if (!d.drain(120000)) throw std::runtime_error("open loop did not drain");
        // Twice the warm-up pace, plus what is in flight.
        d.prepare(static_cast<std::uint64_t>(
            2.0 * static_cast<double>(warm_n) / kWarmupS * sat_phase_s +
            a.connections * a.window));
        const double cpu0 = cluster_cpu_us(cluster);
        const auto t0 = now_ns();
        sat_n += d.closed(kSaturation, sat_phase_s);
        cpu_sat_us += cluster_cpu_us(cluster) - cpu0;
        sat_spans.emplace_back(t0, d.window_end_ns());
        drained = d.drain(120000);
    }
    ticks.sample(now_ns(), true);
    const Counters c1 = read_counters(cluster);
    if (drained) drained = d.top_up(wl->quality_requests(), 120000);

    // --- router hop at pipeline 1 (traced run only) ---
    if (a.trace) {
        const double via_router = probe_rtt_us(cluster.router.port, *wl, "hr", 200);
        const double direct = 0.5 * (probe_rtt_us(cluster.shards[0].port, *wl, "h0", 200) +
                                     probe_rtt_us(cluster.shards[1].port, *wl, "h1", 200));
        put("net.router_hop_us", via_router - direct, "us");
    }
    double rss = 0.0;
    for (pid_t p : cluster.pids()) rss += peak_rss_mb(p);
    const std::string stop_bad = stop_cluster(cluster);
    pin(0, -1);  // the checker threads inherit this thread's CPU set
    detail["wall.drive_s"] = static_cast<double>(now_ns() - t_drive) * 1e-9;

    // --- correctness gate ---
    std::vector<Outcome> all = primed;
    auto& outs = d.outcomes();
    all.insert(all.end(), std::make_move_iterator(outs.begin()),
               std::make_move_iterator(outs.end()));
    const auto t_check = now_ns();
    const auto rep = check_outcomes(all, keyed, priming, 4);
    detail["wall.check_s"] = static_cast<double>(now_ns() - t_check) * 1e-9;
    std::vector<std::string> reasons = rep.reasons;
    std::uint64_t failed = rep.failed;
    if (!drained) reasons.insert(reasons.begin(), "responses missing after drain timeout");
    if (!stop_bad.empty()) reasons.insert(reasons.begin(), "shutdown: " + stop_bad);
    if (d.stray() > 0) {
        reasons.insert(reasons.begin(), std::to_string(d.stray()) +
                                            " responses with an unknown id");
    }
    bool correct = rep.ok && drained && stop_bad.empty() && d.stray() == 0;

    // --- calm share: enough of the run was measurable, or no figures ---
    const double calm_open_s = calm_of(open_spans);
    const double calm_sat_s = calm_of(sat_spans);
    detail["calm.open_s"] = calm_open_s;
    detail["calm.saturation_s"] = calm_sat_s;
    detail["rounds"] = static_cast<double>(rounds);
    std::string unsteady;
    if (drained && !calm_enough()) {
        unsteady = "calm open-loop " + fmt_short(calm_open_s) + " s, saturation " +
                   fmt_short(calm_sat_s) + " s in " + std::to_string(rounds) + " rounds";
    }

    // --- end-to-end numbers, over calm intervals ---
    const auto& times = d.times();
    const std::size_t base = primed.size();
    std::vector<double> late_ms, queue_ms, exec_ms, transport_ms, lat_ms;
    std::uint64_t calm_open_n = 0;
    std::uint64_t slo_ok = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        const auto& t = times[i];
        if (t.phase != kOpen) continue;
        late_ms.push_back(static_cast<double>(t.sent - t.due) * 1e-6);
        if (!ticks.calm(ticks.at(t.due))) continue;
        ++calm_open_n;
        const auto& o = all[base + i];
        if (o.responses != 1 || o.status != "ok" || t.recv == 0) continue;
        const double l = static_cast<double>(t.recv - t.due) * 1e-6;
        lat_ms.push_back(l);
        if (l <= a.slo_ms) ++slo_ok;
        queue_ms.push_back(t.queue_ms);
        exec_ms.push_back(t.exec_ms);
        transport_ms.push_back(static_cast<double>(t.recv - t.sent) * 1e-6 -
                               t.queue_ms - t.exec_ms);
    }
    // Throughput: saturation completions received in calm intervals over
    // the calm seconds of the saturation phases, one ratio for the run:
    // cold_paper's requests differ up to tenfold in cost, so any window of
    // ~100 completions strays +-10% from its neighbours even when calm.
    double calm_done = 0.0;
    for (const auto& t : times) {
        if (t.phase != kSaturation || t.recv == 0 || !ticks.calm(ticks.at(t.recv))) continue;
        const bool in_span = std::any_of(sat_spans.begin(), sat_spans.end(), [&](const auto& sp) {
            return t.recv >= sp.first && t.recv <= sp.second;
        });
        if (in_span) calm_done += 1.0;
    }
    const double rps = calm_sat_s > 0.0 ? calm_done / calm_sat_s : 0.0;
    const double tail_p = tail_percentile(lat_ms.size());
    const double measured = static_cast<double>(rep.attempted);

    put("setup_s", percentile(setups, 50.0), "s");
    put("rps", rps, "1/s");
    put("p50_ms", percentile(lat_ms, 50.0), "ms");
    // Reported with the per-layer metrics, not gated: the tail of the calm
    // intervals still carries queues built up in a stolen interval just
    // before them.
    put("bench.tail_ms", percentile(lat_ms, tail_p), "ms");
    put("slo_frac", calm_open_n ? static_cast<double>(slo_ok) / static_cast<double>(calm_open_n) : 0.0,
        "fraction");
    put("ok_frac", measured > 0 ? 1.0 - static_cast<double>(rep.failed) / measured : 0.0, "fraction");
    put("cpu_us_per_req", sat_n ? cpu_sat_us / static_cast<double>(sat_n) : 0.0, "us");
    put("rss_mb", rss, "MiB");
    put("volume_mb", rep.volume_mb, "MB");

    // --- per-layer numbers from the untraced run ---
    put("service.queue_ms", percentile(queue_ms, 50.0), "ms");
    put("service.exec_ms", percentile(exec_ms, 50.0), "ms");
    put("core.planner_ms", rep.planner_ms_p50, "ms");
    put("core.candidates_per_plan", rep.candidates_per_plan, "count");
    put("net.transport_ms", percentile(transport_ms, 50.0), "ms");
    const double measured_reqs = static_cast<double>(sat_n + open_n);
    put("net.bytes_per_req", (c1.bytes - c0.bytes) / std::max(1.0, measured_reqs), "B");
    const double lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
    put("service.cache_hit_ratio", lookups > 0 ? (c1.hits - c0.hits) / lookups : 0.0, "fraction");
    put("bench.gen_late_ms", percentile(late_ms, 99.0), "ms");
    put("bench.steal_frac", ticks.steal_overall(), "fraction");

    detail["tail_percentile"] = tail_p;
    detail["open_samples"] = static_cast<double>(open_n);
    detail["open_samples.calm"] = static_cast<double>(calm_open_n);
    detail["open_rps"] = a.open_rps;
    detail["slo_ms"] = a.slo_ms;
    detail["saturation_requests"] = static_cast<double>(sat_n);
    detail["quality_requests"] = static_cast<double>(wl->quality_requests());

    // --- traced in-process replay ---
    if (a.trace) {
        TraceOptions opt;
        opt.priming_round = setup_round;
        opt.first = first_measured;
        opt.count = std::min<std::uint64_t>(a.replay, times.size() - opt.first);
        // The replay must answer every request with the servers' bytes,
        // which the gate has just checked against the reference.
        for (std::size_t k = 0; k < primed.size(); ++k) opt.expected.push_back(&all[k].result);
        for (std::uint64_t i = 0; i < opt.count; ++i) {
            const auto& o = all[base + opt.first + i];
            opt.expected.push_back(o.key >= 0 ? &keyed[static_cast<std::size_t>(o.key)] : &o.result);
        }
        const auto cold = make_workload("cold_paper", a.seed);
        opt.crossover = cold.get();
        opt.crossover_instances = kCrossover;
        opt.spans_path = a.out_dir + "/spans.csv";
        const auto t_trace = now_ns();
        const auto tr = run_trace(*wl, opt);
        detail["wall.trace_s"] = static_cast<double>(now_ns() - t_trace) * 1e-9;
        for (const auto& [name, v] : tr.metrics) {
            if (name.starts_with("detail.")) {
                detail[name.substr(7)] = v;
                continue;
            }
            std::string unit = "ms";
            if (name.ends_with("_ns")) unit = "ns";
            else if (name.ends_with("_us") || name.rfind("trace.self_us", 0) == 0) unit = "us";
            else if (name == "trace.overhead_pct") unit = "%";
            put(name, v, unit);
        }
        if (correct && !tr.reasons.empty()) {
            correct = false;
            failed += tr.mismatched;
            reasons.insert(reasons.end(), tr.reasons.begin(), tr.reasons.end());
        }
    }

    for (const auto& r : reasons) std::cerr << "perfbench: FAIL " << r << "\n";

    static const char* kEndToEnd[] = {"setup_s", "rps", "p50_ms",
                                      "slo_frac", "ok_frac", "cpu_us_per_req",
                                      "rss_mb", "volume_mb"};
    auto is_e2e = [](const std::string& n) {
        return std::find(std::begin(kEndToEnd), std::end(kEndToEnd), n) !=
               std::end(kEndToEnd);
    };
    std::ostringstream det;
    det << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed;
    for (const auto& [k, v] : detail) det << ",\"" << k << "\":" << fmt(v);
    for (const auto& [k, v] : metrics) det << ",\"" << k << "\":" << fmt(v.first);
    det << ",\"reasons\":" << reasons.size() << "}";
    std::ofstream(a.out_dir + "/detail.json") << det.str() << "\n";
    std::cout << "detail " << det.str() << "\n";

    // A correct run on too unsteady a machine reports no figures.
    if (correct && !unsteady.empty()) {
        throw Unsteady("machine unsteady: hypervisor steal above " +
                       fmt_short(kCalmSteal * 100.0) + "% of the CPU time left " +
                       unsteady + "; no figures reported");
    }

    std::ostringstream out;
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << std::max<std::uint64_t>(1, rep.attempted)
        << ",\"failed\":" << failed << ",\"metrics\":{";
    bool first = true;
    for (const auto& [k, v] : metrics) {
        if (is_e2e(k) == a.trace) continue;
        out << (first ? "" : ",") << "\"" << k << "\":{\"value\":" << fmt(v.first)
            << ",\"unit\":\"" << v.second << "\"}";
        first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
    std::signal(SIGTERM, pb::on_signal);
    std::signal(SIGINT, pb::on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return pb::run(pb::parse_args(argc, argv));
    } catch (const pb::Unsteady& ex) {
        std::cerr << "perfbench: FAIL " << ex.what() << "\n";
        pb::kill_all_children();
        return 4;
    } catch (const std::exception& ex) {
        std::cerr << "perfbench: FAIL " << ex.what() << "\n";
        pb::kill_all_children();
        return 2;
    }
}
