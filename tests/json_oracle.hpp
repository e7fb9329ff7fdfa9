#pragma once

// Test-only oracles for io::Json's number I/O: a copy of its parser with
// std::stod on the number path, and its compact serializer with snprintf's
// "%.0f"/"%.17g" on the number path. io::Json must accept and reject exactly what `OracleParser` does, with
// bit-equal trees, and `oracle_dump` must equal Json::dump byte for byte.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "uavdc/io/json.hpp"

namespace uavdc::testing::json_oracle {

using io::Json;

/// io::Json's recursive-descent parser, numbers read by std::stod.
class OracleParser {
  public:
    explicit OracleParser(const std::string& text) : s_(text) {}

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
        try {
            std::size_t used = 0;
            const double v = std::stod(s_.substr(start, pos_ - start), &used);
            if (used != pos_ - start) fail("bad number");
            return Json(v);
        } catch (const std::exception&) {
            fail("bad number");
        }
    }

    const std::string& s_;
    std::size_t pos_{0};
};

inline Json parse(const std::string& text) {
    OracleParser p(text);
    return p.parse_document();
}

/// snprintf's "%.0f" for integers below 1e15 and "%.17g" otherwise.
inline void dump_number(std::string& out, double d) {
    char buf[32];
    if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", d);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    out += buf;
}

/// Json::dump(0) with `dump_number` on the number path.
inline void dump_to(std::string& out, const Json& v) {
    if (v.is_null()) {
        out += "null";
    } else if (v.is_bool()) {
        out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
        dump_number(out, v.as_number());
    } else if (v.is_string()) {
        Json::dump_string(out, v.as_string());
    } else if (v.is_array()) {
        out += '[';
        bool first = true;
        for (const Json& e : v.as_array()) {
            if (!first) out += ',';
            first = false;
            dump_to(out, e);
        }
        out += ']';
    } else {
        out += '{';
        bool first = true;
        for (const auto& [k, e] : v.as_object()) {
            if (!first) out += ',';
            first = false;
            Json::dump_string(out, k);
            out += ':';
            dump_to(out, e);
        }
        out += '}';
    }
}

inline std::string dump(const Json& v) {
    std::string out;
    dump_to(out, v);
    return out;
}

}  // namespace uavdc::testing::json_oracle
