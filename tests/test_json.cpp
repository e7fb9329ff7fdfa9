#include "uavdc/io/json.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace uavdc::io {
namespace {

TEST(Json, ParsePrimitives) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseWhitespaceTolerant) {
    const Json v = Json::parse("  {\n \"a\" : [ 1 , 2 ] }\t");
    EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, ParseNested) {
    const Json v = Json::parse(
        R"({"a": {"b": [1, {"c": "deep"}]}, "d": null})");
    EXPECT_EQ(v.at("a").at("b").as_array()[1].at("c").as_string(), "deep");
    EXPECT_TRUE(v.at("d").is_null());
}

TEST(Json, ParseEscapes) {
    const Json v = Json::parse(R"("line\nbreak \"q\" back\\slash A")");
    EXPECT_EQ(v.as_string(), "line\nbreak \"q\" back\\slash A");
}

TEST(Json, ParseUnicodeEscapeMultibyte) {
    const Json v = Json::parse(R"("é中")");
    EXPECT_EQ(v.as_string(), "\xC3\xA9\xE4\xB8\xAD");  // é, 中 in UTF-8
}

TEST(Json, ParseErrors) {
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(Json::parse("tru"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("nul"), std::runtime_error);
    EXPECT_THROW(Json::parse("--1"), std::runtime_error);
}

// The router appends its tag as a last `id` member to a client's request
// bytes: it relies on the parser keeping the last of repeated keys.
TEST(Json, ParseKeepsLastOfRepeatedKeys) {
    const Json v = Json::parse(
        R"({"id":"a","x":{"k":1,"k":2},"id":"b","y":0,"id":"c"})");
    EXPECT_EQ(v.as_object().size(), 3u);
    EXPECT_EQ(v.at("id").as_string(), "c");
    EXPECT_EQ(v.at("x").at("k").as_number(), 2.0);
    EXPECT_EQ(Json::parse(R"({"id":"a","id":7})").at("id").as_number(), 7.0);
}

TEST(Json, TypeMismatchThrows) {
    const Json v = Json::parse("[1]");
    EXPECT_THROW((void)v.as_object(), std::runtime_error);
    EXPECT_THROW((void)v.as_string(), std::runtime_error);
    EXPECT_THROW((void)v.at("x"), std::runtime_error);
    const Json obj = Json::parse("{}");
    EXPECT_THROW((void)obj.at("missing"), std::runtime_error);
}

TEST(Json, Fallbacks) {
    const Json v = Json::parse(R"({"n": 5, "s": "x", "b": true})");
    EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 5.0);
    EXPECT_DOUBLE_EQ(v.number_or("missing", 7.5), 7.5);
    EXPECT_EQ(v.string_or("s", ""), "x");
    EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
    EXPECT_TRUE(v.bool_or("b", false));
    EXPECT_FALSE(v.bool_or("missing", false));
}

TEST(Json, BuildWithOperatorBracket) {
    Json doc;
    doc["name"] = "test";
    doc["count"] = 3;
    doc["nested"]["x"] = 1.5;
    EXPECT_EQ(doc.at("name").as_string(), "test");
    EXPECT_DOUBLE_EQ(doc.at("nested").at("x").as_number(), 1.5);
}

TEST(Json, DumpCompactAndPretty) {
    Json doc;
    doc["b"] = 2;
    doc["a"] = Json(Json::Array{Json(1), Json("x")});
    const std::string compact = doc.dump();
    EXPECT_EQ(compact, R"({"a":[1,"x"],"b":2})");
    const std::string pretty = doc.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\": [\n"), std::string::npos);
}

TEST(Json, DumpIntegersWithoutDecimals) {
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(-3.0).dump(), "-3");
    EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, RoundTripPreservesValue) {
    const std::string src =
        R"({"arr":[1,2.5,"s",true,null],"nested":{"k":-1e-3},"str":"a\"b"})";
    const Json first = Json::parse(src);
    const Json second = Json::parse(first.dump());
    EXPECT_EQ(first, second);
}

TEST(Json, RoundTripDoublesExactly) {
    const double vals[] = {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0};
    for (double v : vals) {
        const Json parsed = Json::parse(Json(v).dump());
        EXPECT_DOUBLE_EQ(parsed.as_number(), v);
    }
}

TEST(JsonFile, SaveAndLoad) {
    const std::string path = ::testing::TempDir() + "/uavdc_json_test.json";
    Json doc;
    doc["k"] = "v";
    save_json_file(path, doc);
    const Json loaded = load_json_file(path);
    EXPECT_EQ(loaded, doc);
    std::remove(path.c_str());
}

TEST(JsonFile, LoadMissingThrows) {
    EXPECT_THROW(load_json_file("/nonexistent/file.json"),
                 std::runtime_error);
}

}  // namespace
}  // namespace uavdc::io
