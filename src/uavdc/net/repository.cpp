#include "uavdc/net/repository.hpp"

#include <fstream>
#include <stdexcept>

#include "uavdc/io/serialize.hpp"

namespace uavdc::net {

using service::fingerprint_from_hex;
using service::fingerprint_to_hex;

Repository::Repository(std::string path) : path_(std::move(path)) {
    out_ = std::fopen(path_.c_str(), "ae");  // append + O_CLOEXEC
    if (out_ == nullptr) {
        throw std::runtime_error("repository: cannot open '" + path_ +
                                 "' for append");
    }
}

Repository::~Repository() {
    if (out_ != nullptr) std::fclose(out_);
}

Repository::LoadResult Repository::load(service::PlanService& svc) {
    LoadResult r;
    std::ifstream in(path_);
    if (!in) return r;  // nothing persisted yet
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
            const io::Json doc = io::Json::parse(line);
            const std::string type = doc.string_or("type", "");
            if (type == "instance") {
                svc.preload_instance(io::instance_from_json(doc.at("instance")));
                ++r.instances;
            } else if (type == "response") {
                const std::string& canon = doc.at("canon").as_string();
                svc.preload_response(
                    fingerprint_from_hex(doc.at("key_hi").as_string()),
                    service::options_key(canon), canon,
                    fingerprint_from_hex(doc.at("check").as_string()),
                    doc.at("result"));
                ++r.responses;
            } else {
                ++r.skipped;
            }
        } catch (const std::exception&) {
            // A SIGKILL mid-append leaves at most one damaged line;
            // anything after it is suspect too, so stop replaying here.
            ++r.skipped;
            break;
        }
    }
    return r;
}

service::PlanService::StoreHooks Repository::hooks() {
    service::PlanService::StoreHooks h;
    h.on_instance = [this](std::uint64_t fp, const model::Instance& inst) {
        append_instance(fp, inst);
    };
    h.on_response = [this](std::uint64_t key_hi, std::uint64_t key_lo,
                           const std::string& canon, std::uint64_t check,
                           const std::string& result_wire) {
        append_response(key_hi, key_lo, canon, check, result_wire);
    };
    return h;
}

void Repository::append_instance(std::uint64_t fp,
                                 const model::Instance& inst) {
    io::Json doc;
    doc["type"] = "instance";
    doc["fp"] = fingerprint_to_hex(fp);
    doc["instance"] = io::to_json(inst);
    append_line(doc.dump());
}

void Repository::append_response(std::uint64_t key_hi, std::uint64_t key_lo,
                                 const std::string& options_canon,
                                 std::uint64_t instance_check,
                                 const std::string& result_wire) {
    // The keys in io::Json::dump()'s sorted order, so the line reads back
    // as the document the format above names.
    std::string line = "{\"canon\":";
    io::Json::dump_string(line, options_canon);
    line += ",\"check\":\"" + fingerprint_to_hex(instance_check) +
            "\",\"key_hi\":\"" + fingerprint_to_hex(key_hi) +
            "\",\"key_lo\":\"" + fingerprint_to_hex(key_lo) +
            "\",\"result\":";
    line += result_wire;
    line += ",\"type\":\"response\"}";
    append_line(line);
}

void Repository::append_line(const std::string& line) {
    std::lock_guard lock(mu_);
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fputc('\n', out_);
    // Push into the kernel page cache now: data there survives SIGKILL of
    // this process (fsync-grade durability against power loss is out of
    // scope for the loopback shard drill).
    std::fflush(out_);
    ++appended_;
}

std::uint64_t Repository::appended() const {
    std::lock_guard lock(mu_);
    return appended_;
}

}  // namespace uavdc::net
