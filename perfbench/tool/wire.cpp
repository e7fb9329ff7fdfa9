#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace pb {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::mutex g_children_mu;
std::vector<pid_t> g_children;

void register_child(pid_t pid) {
    std::lock_guard lock(g_children_mu);
    g_children.push_back(pid);
}

void forget_child(pid_t pid) {
    std::lock_guard lock(g_children_mu);
    std::erase(g_children, pid);
}

/// Reap `pid` within `timeout_ms`; returns the wait status or -1.
int wait_for(pid_t pid, int timeout_ms) {
    const auto deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
    for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) return status;
        if (r < 0 && errno != EINTR) return 0;  // already reaped elsewhere
        if (now_ns() >= deadline) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

int exit_code(int status) {
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return 255;
}

}  // namespace

void pin(pid_t pid, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long c = 0; c < n; ++c) {
        if (cpu < 0 || c == cpu) CPU_SET(static_cast<std::size_t>(c), &set);
    }
    if (pid == 0) {
        ::sched_setaffinity(0, sizeof(set), &set);
        return;
    }
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    for (const auto& task : std::filesystem::directory_iterator(dir)) {
        const auto tid = static_cast<pid_t>(
            std::stol(task.path().filename().string()));
        ::sched_setaffinity(tid, sizeof(set), &set);
    }
}

Child spawn_listening(const std::vector<std::string>& argv,
                      const std::string& name, const std::string& log_path,
                      int timeout_ms) {
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) {
        throw std::runtime_error("spawn " + name + ": pipe failed");
    }
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (log_fd < 0) {
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        throw std::runtime_error("spawn " + name + ": cannot open " +
                                 log_path);
    }
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        ::close(log_fd);
        throw std::runtime_error("spawn " + name + ": fork failed");
    }
    if (pid == 0) {
        // Die with the benchmark even if it is killed without cleanup.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(pipefd[1], STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        const int devnull = ::open("/dev/null", O_RDONLY);
        if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
        ::execv(args[0], args.data());
        _exit(127);
    }
    register_child(pid);
    ::close(pipefd[1]);
    ::close(log_fd);

    Child c;
    c.pid = pid;
    c.name = name;
    std::string line;
    const auto deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
    bool ok = false;
    while (now_ns() < deadline) {
        pollfd p{pipefd[0], POLLIN, 0};
        const int wait_ms = static_cast<int>(
            std::max<std::int64_t>(1, (deadline - now_ns()) / 1000000));
        const int r = ::poll(&p, 1, wait_ms);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) break;
        char ch = 0;
        const ssize_t n = ::read(pipefd[0], &ch, 1);
        if (n <= 0) break;
        if (ch == '\n') {
            if (line.rfind("LISTENING ", 0) == 0) {
                c.port = std::atoi(line.c_str() + 10);
                ok = c.port > 0;
            }
            break;
        }
        line.push_back(ch);
    }
    // The pipe stays readable by nobody afterwards; closing our end is
    // safe because the servers print nothing else on stdout.
    ::close(pipefd[0]);
    if (!ok) {
        stop_child(c, 2000);
        throw std::runtime_error("spawn " + name +
                                 ": no LISTENING line (see " + log_path + ")");
    }
    return c;
}

int stop_child(Child& c, int timeout_ms) {
    if (c.pid <= 0) return 0;
    ::kill(c.pid, SIGTERM);
    int status = wait_for(c.pid, timeout_ms);
    int code = 0;
    if (status < 0) {
        ::kill(c.pid, SIGKILL);
        status = wait_for(c.pid, 5000);
        code = 128 + SIGKILL;
    } else {
        code = exit_code(status);
    }
    forget_child(c.pid);
    c.pid = -1;
    return code;
}

void kill_all_children() {
    std::vector<pid_t> pids;
    {
        std::lock_guard lock(g_children_mu);
        pids.swap(g_children);
    }
    for (pid_t p : pids) ::kill(p, SIGKILL);
    for (pid_t p : pids) wait_for(p, 5000);
}

double cpu_us(pid_t pid) {
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime/stime are the
    // 14th/15th fields overall, i.e. the 12th/13th after ") ".
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream rest(text.substr(close + 2));
    std::string tok;
    double ticks = 0.0;
    for (int field = 3; rest >> tok; ++field) {
        if (field == 14 || field == 15) ticks += std::stod(tok);
        if (field == 15) break;
    }
    return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

CpuTicks cpu_ticks() {
    std::ifstream f("/proc/stat");
    std::string label;
    double v[8] = {};
    f >> label;
    for (double& x : v) f >> x;
    // user nice system idle iowait irq softirq steal
    return {v[0] + v[1] + v[2] + v[5] + v[6], v[7]};
}

void append_frame(std::string& out, std::string_view payload) {
    out += '$';
    out += std::to_string(payload.size());
    out += '\n';
    out.append(payload);
}

Conn::Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("client: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd_);
        throw std::runtime_error("client: connect to port " +
                                 std::to_string(port) + " failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
    if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const std::string& bytes) {
    if (off_ == out_.size()) {
        out_.clear();
        off_ = 0;
    }
    out_ += bytes;
    flush();
}

bool Conn::flush() {
    while (off_ < out_.size()) {
        const ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            off_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        return false;
    }
    return true;
}

bool Conn::read_some() {
    if (consumed_ > 0) {
        in_.erase(0, consumed_);
        in_off_ -= consumed_;
        consumed_ = 0;
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            in_.append(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        return false;
    }
}

bool Conn::next_frame(std::string_view& payload) {
    // consumed_ marks bytes already handed out; they are erased lazily on
    // the next read so returned views stay valid until then.
    const std::size_t start = in_off_;
    if (start >= in_.size()) return false;
    if (in_[start] != '$') {
        throw std::runtime_error("client: response is not length-prefixed");
    }
    const auto nl = in_.find('\n', start);
    if (nl == std::string::npos) return false;
    std::size_t len = 0;
    const auto [p, ec] =
        std::from_chars(in_.data() + start + 1, in_.data() + nl, len);
    if (ec != std::errc() || p != in_.data() + nl) {
        throw std::runtime_error("client: bad length header");
    }
    if (in_.size() - (nl + 1) < len) return false;
    payload = std::string_view(in_).substr(nl + 1, len);
    in_off_ = nl + 1 + len;
    consumed_ = in_off_;
    return true;
}

std::string Conn::call(const std::string& payload, int timeout_ms) {
    std::string framed;
    append_frame(framed, payload);
    send(framed);
    const auto deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
    for (;;) {
        std::string_view frame;
        if (next_frame(frame)) return std::string(frame);
        if (now_ns() >= deadline) {
            throw std::runtime_error("client: call timed out");
        }
        pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)),
                 0};
        ::poll(&p, 1, 50);
        if (!flush() || !read_some()) {
            throw std::runtime_error("client: connection lost in call");
        }
    }
}

namespace {

double number_after(std::string_view s, std::string_view key) {
    const auto at = s.find(key);
    if (at == std::string_view::npos) return 0.0;
    double v = 0.0;
    const char* b = s.data() + at + key.size();
    std::from_chars(b, s.data() + s.size(), v);
    return v;
}

}  // namespace

bool scan_envelope(std::string_view payload, Envelope& env) {
    env = Envelope{};
    const auto id_at = payload.find("\"id\":\"");
    if (id_at == std::string_view::npos) return false;
    const auto id_b = id_at + 6;
    const auto id_e = payload.find('"', id_b);
    if (id_e == std::string_view::npos) return false;
    env.id = payload.substr(id_b, id_e - id_b);
    const auto st_at = payload.rfind(",\"status\":\"");
    if (st_at == std::string_view::npos || st_at < id_e) return false;
    const auto st_b = st_at + 11;
    const auto st_e = payload.find('"', st_b);
    if (st_e == std::string_view::npos) return false;
    env.status = payload.substr(st_b, st_e - st_b);
    env.exec_ms = number_after(payload.substr(0, id_at), "\"exec_ms\":");
    const auto res_at = payload.find(",\"result\":", id_e);
    const std::string_view mid =
        payload.substr(id_e, (res_at == std::string_view::npos ? st_at
                                                                : res_at) -
                                 id_e);
    env.queue_ms = number_after(mid, "\"queue_ms\":");
    if (res_at != std::string_view::npos) {
        env.result = payload.substr(res_at + 10, st_at - (res_at + 10));
    }
    return true;
}

}  // namespace pb
