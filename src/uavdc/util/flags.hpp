#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace uavdc::util {

/// Tiny command-line flag parser for the CLI and the bench/example binaries.
/// Accepts `--name=value`, `--name value`, and bare boolean `--name`.
/// Every getter (and `has`) records the name it asked for; `unknown()` then
/// reports the flags given that nothing asked for. Positional arguments are
/// preserved in order.
class Flags {
  public:
    Flags(int argc, const char* const* argv);

    /// True if --name was present (with or without a value).
    [[nodiscard]] bool has(const std::string& name) const;

    [[nodiscard]] std::string get_string(const std::string& name,
                                         const std::string& fallback) const;
    [[nodiscard]] double get_double(const std::string& name,
                                    double fallback) const;
    [[nodiscard]] int get_int(const std::string& name, int fallback) const;
    [[nodiscard]] long long get_int64(const std::string& name,
                                      long long fallback) const;
    /// Bare `--name` and `--name=true/1/yes/on` are true;
    /// `--name=false/0/no/off` is false.
    [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

    /// Comma-separated list of doubles, e.g. --deltas=5,10,20.
    [[nodiscard]] std::vector<double> get_double_list(
        const std::string& name, std::vector<double> fallback) const;
    /// Comma-separated list of ints.
    [[nodiscard]] std::vector<int> get_int_list(
        const std::string& name, std::vector<int> fallback) const;

    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

    [[nodiscard]] const std::string& program() const { return program_; }

    /// Names of the flags given on the command line that no getter or
    /// `has` has asked for so far, sorted. A program calls this once it
    /// has read every flag it takes: what is left is a typo (or `--help`).
    [[nodiscard]] std::vector<std::string> unknown() const;

    /// Writes "unknown flag --NAME" to `err` for each `unknown()` name but
    /// `help`, and returns true when `unknown()` is non-empty (`--help`
    /// included): the caller then prints its usage and exits 2.
    [[nodiscard]] bool report_unknown(std::ostream& err) const;

  private:
    /// The value of --name, recording that it was asked for.
    [[nodiscard]] const std::string* find(const std::string& name) const;

    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> read_;
};

}  // namespace uavdc::util
