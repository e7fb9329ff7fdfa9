#include "uavdc/util/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace uavdc::util {
namespace {

Flags make(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, EqualsSyntax) {
    const auto f = make({"--delta=5.5", "--n=42", "--name=test"});
    EXPECT_DOUBLE_EQ(f.get_double("delta", 0.0), 5.5);
    EXPECT_EQ(f.get_int("n", 0), 42);
    EXPECT_EQ(f.get_string("name", ""), "test");
}

TEST(Flags, SpaceSyntax) {
    const auto f = make({"--delta", "7.5", "--label", "abc"});
    EXPECT_DOUBLE_EQ(f.get_double("delta", 0.0), 7.5);
    EXPECT_EQ(f.get_string("label", ""), "abc");
}

TEST(Flags, BareBooleans) {
    const auto f = make({"--full", "--verbose=false", "--quiet=0",
                         "--loud=yes"});
    EXPECT_TRUE(f.get_bool("full", false));
    EXPECT_FALSE(f.get_bool("verbose", true));
    EXPECT_FALSE(f.get_bool("quiet", true));
    EXPECT_TRUE(f.get_bool("loud", false));
    EXPECT_TRUE(f.get_bool("absent", true));
    EXPECT_FALSE(f.get_bool("absent2", false));
}

TEST(Flags, BadBooleanThrows) {
    const auto f = make({"--x=maybe"});
    EXPECT_THROW(f.get_bool("x", false), std::invalid_argument);
}

TEST(Flags, FallbacksWhenAbsent) {
    const auto f = make({});
    EXPECT_DOUBLE_EQ(f.get_double("d", 1.25), 1.25);
    EXPECT_EQ(f.get_int("i", -3), -3);
    EXPECT_EQ(f.get_int64("big", 1LL << 40), 1LL << 40);
    EXPECT_EQ(f.get_string("s", "dflt"), "dflt");
    EXPECT_FALSE(f.has("d"));
}

TEST(Flags, Lists) {
    const auto f = make({"--deltas=5,10,20.5", "--ks=1,2,4"});
    EXPECT_EQ(f.get_double_list("deltas", {}),
              (std::vector<double>{5.0, 10.0, 20.5}));
    EXPECT_EQ(f.get_int_list("ks", {}), (std::vector<int>{1, 2, 4}));
    EXPECT_EQ(f.get_int_list("absent", {9}), (std::vector<int>{9}));
}

TEST(Flags, Positional) {
    const auto f = make({"input.txt", "--x=1", "output.txt"});
    EXPECT_EQ(f.positional(),
              (std::vector<std::string>{"input.txt", "output.txt"}));
    EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, NegativeNumberValueViaEquals) {
    const auto f = make({"--shift=-4.5"});
    EXPECT_DOUBLE_EQ(f.get_double("shift", 0.0), -4.5);
}

TEST(Flags, LastValueWins) {
    const auto f = make({"--n=1", "--n=2"});
    EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, UnknownReportsFlagsNoGetterRead) {
    const auto f = make({"--reduce-bnad=40", "--delta=5", "--help", "--full",
                         "--deltas=1,2", "pos"});
    EXPECT_EQ(f.unknown(), (std::vector<std::string>{
                               "delta", "deltas", "full", "help",
                               "reduce-bnad"}));
    (void)f.get_double("delta", 0.0);
    (void)f.has("full");
    (void)f.get_double_list("deltas", {});
    (void)f.get_int("absent", 0);  // asking for an absent flag is fine
    EXPECT_EQ(f.unknown(),
              (std::vector<std::string>{"help", "reduce-bnad"}));
    std::ostringstream err;
    EXPECT_TRUE(f.report_unknown(err));
    EXPECT_EQ(err.str(), "unknown flag --reduce-bnad\n");  // --help: usage only
    (void)f.get_string("help", "");
    (void)f.get_int("reduce-bnad", 0);
    EXPECT_TRUE(f.unknown().empty());
    EXPECT_FALSE(f.report_unknown(err));
}

}  // namespace
}  // namespace uavdc::util
