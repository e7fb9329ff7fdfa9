// Differential tests of io::Json's number I/O against the std::stod /
// snprintf oracle in json_oracle.hpp: a list of edge spellings, seeded
// random bit patterns, and seeded byte mutations of a checked-in corpus of
// request documents. Parse must accept and reject the same inputs, with the
// same error and bit-equal trees; dump must match the oracle byte for byte.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "json_oracle.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/util/rng.hpp"

namespace uavdc {
namespace {

namespace oracle = testing::json_oracle;
using io::Json;

struct Outcome {
    bool ok{false};
    std::string error;
    Json doc;
};

template <typename Parse>
Outcome run_parse(Parse&& parse, const std::string& text) {
    Outcome out;
    try {
        out.doc = parse(text);
        out.ok = true;
    } catch (const std::exception& ex) {
        out.error = ex.what();
    }
    return out;
}

std::uint64_t bits_of(double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

double from_bits(std::uint64_t b) {
    double d = 0.0;
    std::memcpy(&d, &b, sizeof(d));
    return d;
}

/// Json::operator== compares numbers with ==, which equates 0 and -0.
bool bit_equal(const Json& a, const Json& b) {
    if (a.is_number() && b.is_number()) {
        return bits_of(a.as_number()) == bits_of(b.as_number());
    }
    if (a.is_array() && b.is_array()) {
        const auto& x = a.as_array();
        const auto& y = b.as_array();
        if (x.size() != y.size()) return false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (!bit_equal(x[i], y[i])) return false;
        }
        return true;
    }
    if (a.is_object() && b.is_object()) {
        const auto& x = a.as_object();
        const auto& y = b.as_object();
        if (x.size() != y.size()) return false;
        for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
            if (i->first != j->first || !bit_equal(i->second, j->second)) {
                return false;
            }
        }
        return true;
    }
    return a == b;
}

/// Empty when io::Json parses `text` as the oracle does; else what differs.
std::string parse_mismatch(const std::string& text) {
    const Outcome want = run_parse(oracle::parse, text);
    const Outcome got = run_parse(Json::parse, text);
    if (got.ok != want.ok) {
        return want.ok ? "rejected (" + got.error + "), oracle accepts"
                       : "accepted, oracle rejects (" + want.error + ")";
    }
    if (!want.ok) {
        return got.error == want.error ? ""
                                       : "error '" + got.error +
                                             "', oracle '" + want.error + "'";
    }
    if (!bit_equal(got.doc, want.doc)) return "trees differ in bits";
    const std::string dumped = got.doc.dump();
    const std::string expected = oracle::dump(want.doc);
    if (dumped != expected) return "dump '" + dumped + "', oracle '" + expected + "'";
    return "";
}

/// Collects the first few mismatches instead of flooding the log.
struct Mismatches {
    std::size_t count{0};
    std::string first;

    void check(const std::string& text) {
        const std::string why = parse_mismatch(text);
        if (why.empty()) return;
        if (++count <= 8) {
            first += "\n  '" + text.substr(0, 200) + "': " + why;
        }
    }
};

TEST(JsonDifferential, EdgeNumberSpellingsParseLikeStod) {
    const std::vector<std::string> edges = {
        "+5", "+-5", "-+5", "++5", "+", "+.5", ".5", "5.", "-.5", ".", "-.",
        ".e5", "5.e3", "01", "00", "-0", "-0.0e-999", "0e-400", "1e", "1e+",
        "1E-5", "1e+5", "1..2", "1-2", "e5", "-e5", "-", "--5", "1e400",
        "-1e400", "1e-400", "4.9e-324", "-4.9e-324", "1e-310", "1e-320",
        "2e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        // Either side of DBL_MIN (2.2250738585072014e-308): strtod calls
        // every inexact result that is tiny after rounding out of range,
        // even one that rounds to DBL_MIN itself.
        "2.2250738585072014e-308", "2.2250738585072013e-308",
        "2.2250738585072012e-308", "2.2250738585072011e-308",
        "2.225073858507201e-308", "2.2250738585072009e-308",
        "-2.2250738585072012e-308", "2.2250738585072015e-308",
        // 2^-1074 written out exactly: a subnormal strtod accepts.
        "4.940656458412465441765687928682213723650598026143247644255856825006"
        "7550727020875186529983636163599237979656469544571773092665671035593"
        "9796398774796010781878126300713190311404527845817167848982103688718"
        "6360569987307230500063874091535649843873124733972731696151400317153"
        "8539807412623856559117102665855668676818703956031062493194527159149"
        "2455329305456544401127480129709999541931989409080416563324524757147"
        "8690147267801593552386115501348035264934720193790268107107491703332"
        "2268447533357208324319360923828934583680601060115061698097530783422"
        "7731832924790498252473077637592724787465608477820373446969953364701"
        "7972677717585125660551199131504891101451037862738167250955837389733"
        "5989936648099411642057026370902792427675445652290875386825064197182"
        "65533447265625e-324",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "-1.7976931348623159e308",
        "999999999999999", "1000000000000000", "1e15", "1e17", "1e-5",
        "0.0001", "0.00001", "123456789012345678901234567890"};
    Mismatches bad;
    for (const std::string& e : edges) {
        bad.check(e);
        bad.check("[" + e + "]");
        bad.check("{\"a\": " + e + " }");
        bad.check("[1," + e + ",2]");
    }
    EXPECT_EQ(bad.count, 0u) << bad.first;

    // The accept set pinned on its own, apart from the oracle.
    EXPECT_EQ(Json::parse("+5").as_number(), 5.0);
    EXPECT_EQ(Json::parse(".5").as_number(), 0.5);
    EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
    EXPECT_EQ(Json::parse("2.2250738585072013e-308").as_number(), DBL_MIN);
    for (const char* rejected :
         {"+-5", "-+5", "1e", "-", "1e400", "-1e400", "1e-400", "4.9e-324",
          "1e-310", "2.2250738585072012e-308"}) {
        EXPECT_THROW((void)Json::parse(rejected), std::runtime_error)
            << rejected;
    }
}

/// One seeded double from the ranges where number I/O is delicate.
double interesting_double(util::Rng& rng) {
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return rng.uniform_int(lo, hi);
    };
    const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    switch (pick(0, 7)) {
        case 0:  // any bit pattern: nan payloads, inf, subnormals included
            return from_bits(rng.next_u64());
        case 1:  // subnormal
            return sign * from_bits(rng.next_u64() & ((1ULL << 52) - 1));
        case 2: {  // a few ulps either side of DBL_MIN
            double d = DBL_MIN;
            for (auto n = pick(-4, 4); n != 0; n += n > 0 ? -1 : 1) {
                d = std::nextafter(d, n > 0 ? 1.0 : 0.0);
            }
            return sign * d;
        }
        case 3: {  // +-0, +-inf, nan
            const double specials[] = {
                0.0, std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::quiet_NaN()};
            return sign * specials[pick(0, 2)];
        }
        case 4: {  // the 1e15 edge of the integer branch
            const double base = 1e15 + static_cast<double>(pick(-3, 3));
            switch (pick(0, 3)) {
                case 0:
                    return sign * base;
                case 1:
                    return sign * (base - 0.5);
                case 2:
                    return sign * std::nextafter(1e15, pick(0, 1) ? 0.0 : 2e15);
                default:
                    return sign * static_cast<double>(pick(0, 999999999999999));
            }
        }
        case 5: {  // around %.17g's switch to exponent form (1e-4, 1e17)
            const double points[] = {1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17, 1e18};
            double d = points[pick(0, 6)];
            for (auto n = pick(-3, 3); n != 0; n += n > 0 ? -1 : 1) {
                d = std::nextafter(d, n > 0 ? 1e300 : 0.0);
            }
            return sign * d;
        }
        case 6:  // any decimal magnitude
            return sign * rng.uniform(1.0, 10.0) *
                   std::pow(10.0, static_cast<double>(pick(-324, 308)));
        default:  // near DBL_MAX
            return sign * rng.uniform(0.5, 1.0) * DBL_MAX;
    }
}

TEST(JsonDifferential, SeededBitPatternsDumpAndParseLikeOracle) {
    util::Rng rng(20260419);
    Mismatches bad;
    std::size_t dump_mismatches = 0;
    std::string first_dump;
    char buf[512];
    for (int i = 0; i < 200000; ++i) {
        const double d = interesting_double(rng);
        const std::string got = Json(d).dump();
        std::string want;
        oracle::dump_number(want, d);
        if (got != want && ++dump_mismatches <= 8) {
            std::snprintf(buf, sizeof(buf), "%a", d);
            first_dump += "\n  " + std::string(buf) + ": '" + got +
                          "', oracle '" + want + "'";
        }
        if (!std::isfinite(d)) {
            bad.check(want);  // nan and inf spellings must fail alike
            continue;
        }
        bad.check(want);
        // Other spellings of the same value: shorter and longer mantissas
        // (these land on either side of DBL_MIN), an explicit '+'.
        const int prec = static_cast<int>(rng.uniform_int(0, 25));
        std::snprintf(buf, sizeof(buf),
                      rng.bernoulli(0.5) ? "%.*e" : "%.*g", prec, d);
        bad.check(buf);
        if (d >= 0.0 && rng.bernoulli(0.25)) bad.check("+" + want);
        if (std::abs(d) < 1e20 && rng.bernoulli(0.1)) {
            std::snprintf(buf, sizeof(buf), "%.*f", prec, d);
            bad.check(buf);
        }
    }
    EXPECT_EQ(dump_mismatches, 0u) << first_dump;
    EXPECT_EQ(bad.count, 0u) << bad.first;
}

std::vector<std::string> load_corpus() {
    const std::string dir =
        std::string(UAVDC_SOURCE_DIR) + "/tests/data/json_corpus/";
    std::vector<std::string> docs;
    for (const char* name : {"inline_request.json", "ref_request.json",
                             "options_request.json", "control.json",
                             "numbers.json"}) {
        std::ifstream in(dir + name);
        EXPECT_TRUE(in.good()) << dir + name;
        std::ostringstream ss;
        ss << in.rdbuf();
        docs.push_back(ss.str());
    }
    return docs;
}

/// One to four byte edits: replace, insert, delete, duplicate a span, or
/// truncate. The alphabet leans on number syntax.
std::string mutate(const std::string& doc, util::Rng& rng) {
    static const std::string alphabet =
        "0123456789+-.eE+-.eE0\"{}[],: \t\r\n\\/untrfaslx\x01\x7f\xc3";
    std::string s = doc;
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits && !s.empty(); ++e) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
        const char c = alphabet[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        switch (rng.uniform_int(0, 9)) {
            case 0:
            case 1:
            case 2:
                s[at] = c;
                break;
            case 3:
            case 4:
            case 5:
                s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
                break;
            case 6:
            case 7:
                s.erase(at, 1);
                break;
            case 8: {
                const auto len = static_cast<std::size_t>(rng.uniform_int(1, 16));
                s.insert(at, s.substr(at, len));
                break;
            }
            default:
                s.resize(at);
        }
    }
    return s;
}

TEST(JsonDifferential, MutatedRequestCorpusParsesLikeOracle) {
    const std::vector<std::string> corpus = load_corpus();
    util::Rng rng(77);
    Mismatches bad;
    std::size_t accepted = 0;
    std::size_t total = 0;
    for (const std::string& doc : corpus) {
        bad.check(doc);
        for (int i = 0; i < 4000; ++i) {
            const std::string m = mutate(doc, rng);
            bad.check(m);
            ++total;
            try {
                (void)Json::parse(m);
                ++accepted;
            } catch (const std::exception&) {
            }
        }
    }
    EXPECT_EQ(bad.count, 0u) << bad.first;
    // The mutations reach both sides of the accept set.
    EXPECT_GT(accepted, total / 20);
    EXPECT_LT(accepted, total - total / 20);
}

}  // namespace
}  // namespace uavdc
