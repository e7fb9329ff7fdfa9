// Randomized property tests: structures survive round-trips, and the
// frame decoder keeps its invariants on mutated streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "uavdc/io/json.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc {
namespace {

// ---------------------------------------------------------------------------
// JSON: random documents round-trip through dump + parse.
// ---------------------------------------------------------------------------

io::Json random_json(util::Rng& rng, int depth) {
    const int kind =
        static_cast<int>(rng.uniform_int(0, depth > 0 ? 5 : 3));
    switch (kind) {
        case 0:
            return io::Json(nullptr);
        case 1:
            return io::Json(rng.bernoulli(0.5));
        case 2:
            return io::Json(rng.uniform(-1e6, 1e6));
        case 3: {
            std::string s;
            const auto len = rng.uniform_int(0, 12);
            for (int i = 0; i < len; ++i) {
                // Mix printable ASCII with characters needing escapes.
                const char pool[] =
                    "abcXYZ019 _-\"\\\n\t,{}[]:";
                s += pool[rng.uniform_int(
                    0, static_cast<std::int64_t>(sizeof(pool)) - 2)];
            }
            return io::Json(std::move(s));
        }
        case 4: {
            io::Json::Array arr;
            const auto len = rng.uniform_int(0, 5);
            for (int i = 0; i < len; ++i) {
                arr.push_back(random_json(rng, depth - 1));
            }
            return io::Json(std::move(arr));
        }
        default: {
            io::Json::Object obj;
            const auto len = rng.uniform_int(0, 5);
            for (int i = 0; i < len; ++i) {
                obj["k" + std::to_string(i) +
                    std::to_string(rng.uniform_int(0, 99))] =
                    random_json(rng, depth - 1);
            }
            return io::Json(std::move(obj));
        }
    }
}

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, RandomDocumentRoundTrips) {
    util::Rng rng(GetParam());
    for (int trial = 0; trial < 40; ++trial) {
        const io::Json doc = random_json(rng, 4);
        const io::Json compact = io::Json::parse(doc.dump());
        EXPECT_EQ(compact, doc) << "compact, trial " << trial;
        const io::Json pretty = io::Json::parse(doc.dump(2));
        EXPECT_EQ(pretty, doc) << "pretty, trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Instance serialization fuzz: every generated workload round-trips.
// ---------------------------------------------------------------------------

class InstanceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InstanceFuzz, GeneratedInstanceRoundTrips) {
    util::Rng rng(GetParam());
    workload::GeneratorConfig cfg;
    cfg.num_devices = static_cast<int>(rng.uniform_int(0, 60));
    cfg.region_w = rng.uniform(50.0, 600.0);
    cfg.region_h = rng.uniform(50.0, 600.0);
    cfg.deployment = static_cast<workload::Deployment>(
        rng.uniform_int(0, 3));
    cfg.volumes = static_cast<workload::VolumeModel>(rng.uniform_int(0, 3));
    cfg.depot = {rng.uniform(-10.0, 700.0), rng.uniform(-10.0, 700.0)};
    const auto inst = workload::generate(cfg, GetParam() * 31 + 7);
    const auto back =
        io::instance_from_json(io::Json::parse(io::to_json(inst).dump()));
    ASSERT_EQ(back.devices.size(), inst.devices.size());
    for (std::size_t i = 0; i < inst.devices.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.devices[i].pos.x, inst.devices[i].pos.x);
        EXPECT_DOUBLE_EQ(back.devices[i].pos.y, inst.devices[i].pos.y);
        EXPECT_DOUBLE_EQ(back.devices[i].data_mb, inst.devices[i].data_mb);
    }
    EXPECT_DOUBLE_EQ(back.uav.energy_j, inst.uav.energy_j);
    EXPECT_EQ(back.uav.travel_energy_model, inst.uav.travel_energy_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstanceFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// ---------------------------------------------------------------------------
// Frame decoder: seeded streams in both framings, mutated and fed in random
// chunks to a decoder with a small frame limit.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxFrame = 48;

// Payloads that survive their framing unchanged and fit the limit: a newline
// payload holds no '\n', does not start with '$' and does not end in '\r'.
std::vector<net::Frame> random_frames(util::Rng& rng) {
    std::vector<net::Frame> frames(
        static_cast<std::size_t>(rng.uniform_int(1, 12)));
    for (auto& f : frames) {
        f.length_prefixed = rng.bernoulli(0.5);
        const auto len =
            rng.uniform_int(0, static_cast<std::int64_t>(kMaxFrame));
        for (std::int64_t i = 0; i < len; ++i) {
            const char pool[] = "{}[]\":,.-09az \t\\";
            f.payload += f.length_prefixed
                             ? static_cast<char>(rng.uniform_int(0, 255))
                             : pool[rng.uniform_int(
                                   0, static_cast<std::int64_t>(
                                          sizeof(pool)) - 2)];
        }
    }
    return frames;
}

std::string encode_all(const std::vector<net::Frame>& frames) {
    std::string wire;
    for (const auto& f : frames) {
        wire += net::encode_frame(f.payload, f.length_prefixed);
    }
    return wire;
}

// Byte flips, inserts, deletes, and `$` headers with huge, signed,
// overflowing, over-limit or unterminated lengths.
std::string mutate(std::string s, util::Rng& rng) {
    const char* const headers[] = {
        "$99999999999999999999999999\n", "$18446744073709551616\n",
        "$18446744073709551615\n",       "$4294967296\n",
        "$-1\n",                         "$+7\n",
        "$49\n",                         "$\n",
        "$ 5\n",                         "$000000000000000000000000000000000",
    };
    const auto edits = rng.uniform_int(1, 8);
    for (std::int64_t e = 0; e < edits; ++e) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
        switch (rng.uniform_int(0, 3)) {
            case 0:
                if (at < s.size()) {
                    s[at] = static_cast<char>(
                        s[at] ^ (1 << rng.uniform_int(0, 7)));
                }
                break;
            case 1:
                s.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
                break;
            case 2:
                if (at < s.size()) s.erase(at, 1);
                break;
            default:
                s.insert(at, headers[rng.uniform_int(
                                 0, std::size(headers) - 1)]);
        }
    }
    return s;
}

// Feeds `wire` in random chunk sizes, draining after every feed.
std::vector<net::Frame> decode_chunked(net::FrameDecoder& dec,
                                       const std::string& wire,
                                       util::Rng& rng) {
    std::vector<net::Frame> out;
    for (std::size_t pos = 0; pos < wire.size();) {
        const auto chunk = std::min(
            wire.size() - pos,
            static_cast<std::size_t>(rng.uniform_int(1, 2 * kMaxFrame)));
        dec.feed(wire.data() + pos, chunk);
        pos += chunk;
        while (auto f = dec.next()) out.push_back(std::move(*f));
    }
    return out;
}

class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzz, CleanStreamDecodesExactlyUnderAnyChunking) {
    util::Rng rng(GetParam());
    for (int trial = 0; trial < 40; ++trial) {
        const auto sent = random_frames(rng);
        net::FrameDecoder dec(kMaxFrame);
        const auto got = decode_chunked(dec, encode_all(sent), rng);
        ASSERT_EQ(got.size(), sent.size()) << "trial " << trial;
        for (std::size_t i = 0; i < sent.size(); ++i) {
            EXPECT_FALSE(got[i].malformed) << got[i].error;
            EXPECT_EQ(got[i].payload, sent[i].payload) << "frame " << i;
            EXPECT_EQ(got[i].length_prefixed, sent[i].length_prefixed);
        }
        EXPECT_EQ(dec.frames(), sent.size());
        EXPECT_EQ(dec.malformed(), 0u);
        EXPECT_FALSE(dec.mid_frame());
    }
}

TEST_P(FrameFuzz, MutatedStreamKeepsDecoderInvariants) {
    util::Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        const std::string wire = mutate(encode_all(random_frames(rng)), rng);
        net::FrameDecoder dec(kMaxFrame);
        std::vector<net::Frame> got;
        ASSERT_NO_THROW(got = decode_chunked(dec, wire, rng))
            << "trial " << trial;
        for (const auto& f : got) {
            if (!f.malformed) EXPECT_LE(f.payload.size(), kMaxFrame);
        }
        EXPECT_EQ(dec.frames() + dec.malformed(), got.size())
            << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u, 36u));

}  // namespace
}  // namespace uavdc
