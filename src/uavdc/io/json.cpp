#include "uavdc/io/json.hpp"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace uavdc::io {

namespace {

[[noreturn]] void type_error(const char* want) {
    throw std::runtime_error(std::string("Json: value is not ") + want);
}

/// Parse [first, last), consumed whole, as strtod would: the same accept
/// set and bit-equal values, without copying the token. from_chars reads
/// strtod's grammar without its leading '+', and returns subnormals that
/// strtod calls out of range (ERANGE for any inexact result that is tiny
/// after rounding, which a from_chars result of exactly DBL_MIN can also
/// be). So outside the normal range, and on overflow and underflow, strtod
/// itself decides.
bool parse_double(const char* first, const char* last, double& out) {
    const char* digits = first;
    if (digits != last && *digits == '+') {
        ++digits;
        if (digits != last && (*digits == '+' || *digits == '-')) return false;
    }
    const auto [end, ec] = std::from_chars(digits, last, out);
    if (end != last || ec == std::errc::invalid_argument) return false;
    if (ec == std::errc{} && (out == 0.0 || std::abs(out) > DBL_MIN)) {
        return true;
    }
    const std::string token(first, last);
    char* stop = nullptr;
    errno = 0;
    out = std::strtod(token.c_str(), &stop);
    return errno != ERANGE && stop == token.c_str() + token.size();
}

/// Recursive-descent parser over a string view with offset tracking.
class Parser {
  public:
    explicit Parser(const std::string& text) : s_(text) {}

    Json parse_document() {
        Json v = parse_value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& why) const {
        throw std::runtime_error("Json parse error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    char next() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c) {
        if (next() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    bool consume_literal(const char* lit) {
        std::size_t n = 0;
        while (lit[n]) ++n;
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json parse_value() {
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{':
                return parse_object();
            case '[':
                return parse_array();
            case '"':
                return Json(parse_string());
            case 't':
                if (consume_literal("true")) return Json(true);
                fail("bad literal");
            case 'f':
                if (consume_literal("false")) return Json(false);
                fail("bad literal");
            case 'n':
                if (consume_literal("null")) return Json(nullptr);
                fail("bad literal");
            default:
                return parse_number();
        }
    }

    Json parse_object() {
        expect('{');
        Json::Object obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Json(std::move(obj));
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value();
            skip_ws();
            const char c = next();
            if (c == '}') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}'");
            }
        }
        return Json(std::move(obj));
    }

    Json parse_array() {
        expect('[');
        Json::Array arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Json(std::move(arr));
        }
        for (;;) {
            arr.push_back(parse_value());
            skip_ws();
            const char c = next();
            if (c == ']') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']'");
            }
        }
        return Json(std::move(arr));
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"') break;
            if (c == '\\') {
                const char e = next();
                switch (e) {
                    case '"':
                        out += '"';
                        break;
                    case '\\':
                        out += '\\';
                        break;
                    case '/':
                        out += '/';
                        break;
                    case 'b':
                        out += '\b';
                        break;
                    case 'f':
                        out += '\f';
                        break;
                    case 'n':
                        out += '\n';
                        break;
                    case 'r':
                        out += '\r';
                        break;
                    case 't':
                        out += '\t';
                        break;
                    case 'u': {
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = next();
                            code <<= 4;
                            if (h >= '0' && h <= '9') {
                                code |= static_cast<unsigned>(h - '0');
                            } else if (h >= 'a' && h <= 'f') {
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            } else if (h >= 'A' && h <= 'F') {
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            } else {
                                fail("bad \\u escape");
                            }
                        }
                        // UTF-8 encode the BMP code point (surrogate pairs
                        // are passed through as two 3-byte sequences, which
                        // round-trips our own output).
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xC0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (code >> 12));
                            out += static_cast<char>(0x80 |
                                                     ((code >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        }
                        break;
                    }
                    default:
                        fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                out += c;
            }
        }
        return out;
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        double v = 0.0;
        if (!parse_double(s_.data() + start, s_.data() + pos_, v)) {
            fail("bad number");
        }
        return Json(v);
    }

    const std::string& s_;
    std::size_t pos_{0};
};

void escape_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\b':
                out += "\\b";
                break;
            case '\f':
                out += "\\f";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

/// The bytes of printf's "%.0f" for integers below 1e15 and "%.17g"
/// otherwise (inf and nan included), without the format-string parse.
void dump_number(std::string& out, double d) {
    char buf[32];
    const bool integral =
        std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15;
    const std::to_chars_result r =
        integral ? std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::fixed, 0)
                 : std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

}  // namespace

void Json::dump_string(std::string& out, const std::string& s) {
    escape_string(out, s);
}

void Json::dump_double(std::string& out, double d) {
    dump_number(out, d);
}

bool Json::as_bool() const {
    if (!is_bool()) type_error("a bool");
    return std::get<bool>(value_);
}

double Json::as_number() const {
    if (!is_number()) type_error("a number");
    return std::get<double>(value_);
}

const std::string& Json::as_string() const {
    if (!is_string()) type_error("a string");
    return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
    if (!is_array()) type_error("an array");
    return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
    if (!is_object()) type_error("an object");
    return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
    if (!is_array()) type_error("an array");
    return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
    if (!is_object()) type_error("an object");
    return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) {
        throw std::runtime_error("Json: missing key '" + key + "'");
    }
    return it->second;
}

bool Json::contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
}

double Json::number_or(const std::string& key, double fallback) const {
    return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
    return contains(key) ? at(key).as_string() : std::move(fallback);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
    return contains(key) ? at(key).as_bool() : fallback;
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = Object{};
    return as_object()[key];
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    if (is_null()) {
        out += "null";
    } else if (is_bool()) {
        out += as_bool() ? "true" : "false";
    } else if (is_number()) {
        dump_number(out, as_number());
    } else if (is_string()) {
        escape_string(out, as_string());
    } else if (is_array()) {
        const auto& arr = as_array();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i) out += ',';
            newline(depth + 1);
            arr[i].dump_to(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
    } else {
        const auto& obj = as_object();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto& [k, v] : obj) {
            if (!first) out += ',';
            first = false;
            newline(depth + 1);
            escape_string(out, k);
            out += indent > 0 ? ": " : ":";
            v.dump_to(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
    }
}

Json Json::parse(const std::string& text) {
    Parser p(text);
    return p.parse_document();
}

Json load_json_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
}

void save_json_file(const std::string& path, const Json& doc) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << doc.dump(2) << '\n';
    if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace uavdc::io
