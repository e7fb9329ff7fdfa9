#include "uavdc/util/flags.hpp"

#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace uavdc::util {

namespace {

bool is_flag(const std::string& s) {
    return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!is_flag(arg)) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && !is_flag(argv[i + 1]) &&
                   argv[i + 1][0] != '-') {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "";  // bare boolean flag
        }
    }
}

const std::string* Flags::find(const std::string& name) const {
    read_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

std::vector<std::string> Flags::unknown() const {
    std::vector<std::string> out;
    for (const auto& [name, value] : values_) {
        if (read_.count(name) == 0) out.push_back(name);
    }
    return out;
}

bool Flags::report_unknown(std::ostream& err) const {
    const auto names = unknown();
    for (const auto& name : names) {
        if (name != "help") err << "unknown flag --" << name << "\n";
    }
    return !names.empty();
}

bool Flags::has(const std::string& name) const {
    return find(name) != nullptr;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : *v;
}

double Flags::get_double(const std::string& name, double fallback) const {
    const std::string* v = find(name);
    if (v == nullptr || v->empty()) return fallback;
    return std::stod(*v);
}

int Flags::get_int(const std::string& name, int fallback) const {
    const std::string* v = find(name);
    if (v == nullptr || v->empty()) return fallback;
    return std::stoi(*v);
}

long long Flags::get_int64(const std::string& name, long long fallback) const {
    const std::string* v = find(name);
    if (v == nullptr || v->empty()) return fallback;
    return std::stoll(*v);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
    const std::string* found = find(name);
    if (found == nullptr) return fallback;
    const std::string& v = *found;
    if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
        return true;
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    throw std::invalid_argument("Flags: bad boolean for --" + name + ": " + v);
}

std::vector<double> Flags::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
    const std::string* v = find(name);
    if (v == nullptr || v->empty()) return fallback;
    std::vector<double> out;
    std::stringstream ss(*v);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) out.push_back(std::stod(tok));
    }
    return out;
}

std::vector<int> Flags::get_int_list(const std::string& name,
                                     std::vector<int> fallback) const {
    const std::string* v = find(name);
    if (v == nullptr || v->empty()) return fallback;
    std::vector<int> out;
    std::stringstream ss(*v);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) out.push_back(std::stoi(tok));
    }
    return out;
}

}  // namespace uavdc::util
