#include "uavdc/net/tcp_server.hpp"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "uavdc/net/frame.hpp"
#include "uavdc/net/socket.hpp"

namespace uavdc::net {

namespace {

/// The server role: plan requests go to `PlanService`, completions come
/// back through the wake pipe. The service is declared last (destroyed
/// first, after its own drain) because its worker callbacks reference the
/// completion queue and the pipe.
class ServeRole final : public Front::Role {
  public:
    ServeRole(const TcpServerConfig& cfg,
              const service::PlanService::Config& svc_cfg)
        : front_(cfg, *this), svc_(svc_cfg, nullptr) {
        auto [rd, wr] = Socket::pipe_pair();
        wake_rd_ = std::move(rd);
        wake_wr_ = std::move(wr);
        wake_rd_.set_nonblocking(true);
        wake_wr_.set_nonblocking(true);
    }

    Front& front() { return front_; }
    service::PlanService& svc() { return svc_; }

    bool request(Front::ConnId conn, const Frame& frame, const io::Json& doc,
                 const std::string& id, bool shed) override {
        const bool length_prefixed = frame.length_prefixed;
        service::PlanRequest req;
        try {
            req = service::request_from_json(doc);
        } catch (const std::exception& ex) {
            front_.answer(conn, id, service::ResponseStatus::kBadRequest,
                          ex.what(), length_prefixed);
            return false;
        }
        if (shed) {
            front_.answer(conn, id, service::ResponseStatus::kShutdown,
                          "server draining; request was not submitted",
                          length_prefixed);
            return false;
        }
        svc_.submit(std::move(req),
                    [this, conn, length_prefixed](service::PlanResponse resp) {
                        complete(conn, length_prefixed, resp);
                    });
        return true;
    }

    io::Json stats() override { return service::to_json(svc_.stats()); }

    void poll_set(std::vector<PollEntry>& entries) override {
        entries.push_back({wake_rd_.fd(), true, false, false, false, false});
    }

    void on_poll(const std::vector<PollEntry>& entries) override {
        if (entries[0].readable) drain_readable(wake_rd_);
        std::vector<std::pair<Front::ConnId, std::string>> batch;
        {
            std::lock_guard lock(done_mu_);
            batch.swap(done_);
        }
        for (const auto& [conn, frame] : batch) front_.deliver(conn, frame);
    }

  private:
    // Completion path: workers encode off the loop thread (the JSON dump of
    // a large plan is the expensive part), enqueue, and poke the pipe.
    void complete(Front::ConnId conn, bool length_prefixed,
                  const service::PlanResponse& resp) {
        std::string frame =
            encode_frame(service::response_line(resp), length_prefixed);
        {
            std::lock_guard lock(done_mu_);
            done_.emplace_back(conn, std::move(frame));
        }
        const char byte = 1;
        (void)wake_wr_.write_some(&byte, 1);
    }

    Front front_;
    std::mutex done_mu_;
    std::vector<std::pair<Front::ConnId, std::string>> done_;
    Socket wake_rd_;
    Socket wake_wr_;
    service::PlanService svc_;
};

}  // namespace

TcpServer::RunResult TcpServer::run() {
    RunResult result;
    // The repository outlives the service, whose store hooks write to it.
    std::unique_ptr<Repository> repo;
    service::PlanService::Config svc_cfg = cfg_.service;
    if (!cfg_.repo_path.empty()) {
        repo = std::make_unique<Repository>(cfg_.repo_path);
        svc_cfg.store = repo->hooks();
    }

    ServeRole role(cfg_, svc_cfg);
    if (repo) result.preloaded = repo->load(role.svc());
    result.transport = role.front().run();
    role.svc().drain();
    result.service = role.svc().stats();
    if (repo) result.repo_appends = repo->appended();
    return result;
}

}  // namespace uavdc::net
