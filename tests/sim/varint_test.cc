/**
 * @file
 * Tests for the zigzag-varint codec (sim/varint.h): the batch decoder
 * must agree byte-for-byte with the one-value reference decoder on
 * every input — random streams chopped at arbitrary block boundaries,
 * maximum-length encodings, and malformed or truncated tails.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "sim/varint.h"

namespace tlsim {
namespace sim {
namespace {

using varint::Status;

std::vector<std::uint8_t>
encodeAll(const std::vector<std::uint64_t> &vals)
{
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, varint::kMaxBytes> tmp;
    for (std::uint64_t v : vals) {
        std::size_t n = varint::encode(tmp.data(), v);
        bytes.insert(bytes.end(), tmp.begin(), tmp.begin() + n);
    }
    return bytes;
}

/** Decode the whole stream with the reference decoder. */
std::vector<std::uint64_t>
decodeAllRef(const std::vector<std::uint8_t> &bytes, std::size_t count)
{
    std::vector<std::uint64_t> vals;
    std::size_t pos = 0;
    while (vals.size() < count) {
        std::uint64_t v = 0;
        std::size_t used = 0;
        EXPECT_EQ(varint::decodeOne(bytes.data() + pos,
                                    bytes.size() - pos, &v, &used),
                  Status::Ok);
        vals.push_back(v);
        pos += used;
    }
    EXPECT_EQ(pos, bytes.size());
    return vals;
}

TEST(Varint, ZigzagRoundTrip)
{
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{1} << 40, -(std::int64_t{1} << 40),
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(varint::unzigzag(varint::zigzag(v)), v);
    }
}

TEST(Varint, EncodeDecodeOneRoundTrip)
{
    std::array<std::uint8_t, varint::kMaxBytes> buf;
    Rng rng(7);
    for (int iter = 0; iter < 10000; ++iter) {
        // Bias toward small values (realistic deltas) but cover the
        // full width: pick a random bit length first.
        unsigned bits = static_cast<unsigned>(rng.next() % 65);
        std::uint64_t v =
            bits == 0 ? 0
                      : rng.next() >> (64 - bits);
        std::size_t n = varint::encode(buf.data(), v);
        ASSERT_LE(n, varint::kMaxBytes);
        std::uint64_t back = ~v;
        std::size_t used = 0;
        ASSERT_EQ(varint::decodeOne(buf.data(), n, &back, &used),
                  Status::Ok);
        EXPECT_EQ(back, v);
        EXPECT_EQ(used, n);
    }
}

TEST(Varint, MaxLengthEncodings)
{
    std::array<std::uint8_t, varint::kMaxBytes> buf;
    // Values with bit 63 set need all ten bytes.
    for (std::uint64_t v :
         {~std::uint64_t{0}, std::uint64_t{1} << 63,
          (std::uint64_t{1} << 63) | 1}) {
        std::size_t n = varint::encode(buf.data(), v);
        EXPECT_EQ(n, varint::kMaxBytes);
        std::uint64_t back = 0;
        std::size_t used = 0;
        EXPECT_EQ(varint::decodeOne(buf.data(), n, &back, &used),
                  Status::Ok);
        EXPECT_EQ(back, v);
        std::uint64_t blk = 0;
        std::size_t decoded = 0, consumed = 0;
        EXPECT_EQ(varint::decodeBlock(buf.data(), n, 1, &blk, &decoded,
                                      &consumed),
                  Status::Ok);
        EXPECT_EQ(decoded, 1u);
        EXPECT_EQ(consumed, n);
        EXPECT_EQ(blk, v);
    }
}

TEST(Varint, RejectsOverflowingTenthByte)
{
    // Ten continuation-chained bytes whose last byte carries more
    // than the single remaining bit 63.
    std::array<std::uint8_t, varint::kMaxBytes> buf;
    buf.fill(0x80);
    buf[9] = 0x02; // payload bit past bit 63, no continuation
    std::uint64_t v = 0;
    std::size_t used = 0;
    EXPECT_EQ(varint::decodeOne(buf.data(), buf.size(), &v, &used),
              Status::Overflow);
    std::size_t decoded = 0, consumed = 0;
    EXPECT_EQ(varint::decodeBlock(buf.data(), buf.size(), 1, &v,
                                  &decoded, &consumed),
              Status::Overflow);
    EXPECT_EQ(decoded, 0u);
    EXPECT_EQ(consumed, 0u);
}

TEST(Varint, RejectsEndlessContinuation)
{
    std::array<std::uint8_t, 16> buf;
    buf.fill(0x80); // no terminator within kMaxBytes
    std::uint64_t v = 0;
    std::size_t used = 0;
    EXPECT_EQ(varint::decodeOne(buf.data(), buf.size(), &v, &used),
              Status::TooLong);
    std::size_t decoded = 0, consumed = 0;
    EXPECT_EQ(varint::decodeBlock(buf.data(), buf.size(), 1, &v,
                                  &decoded, &consumed),
              Status::TooLong);
}

TEST(Varint, TruncatedTailReportsNeedMore)
{
    // A varint cut mid-continuation must not decode.
    std::array<std::uint8_t, 3> buf = {0x80, 0x80, 0x80};
    std::uint64_t v = 0;
    std::size_t used = 0;
    EXPECT_EQ(varint::decodeOne(buf.data(), buf.size(), &v, &used),
              Status::NeedMore);
    std::size_t decoded = 0, consumed = 0;
    EXPECT_EQ(varint::decodeBlock(buf.data(), buf.size(), 1, &v,
                                  &decoded, &consumed),
              Status::NeedMore);
    EXPECT_EQ(decoded, 0u);
    EXPECT_EQ(consumed, 0u);
    EXPECT_EQ(varint::decodeBlock(buf.data(), 0, 1, &v, &decoded,
                                  &consumed),
              Status::NeedMore);
}

TEST(Varint, BlockDecodeMatchesReferenceOnRandomStreams)
{
    Rng rng(0xD1FFu);
    for (int iter = 0; iter < 200; ++iter) {
        std::size_t count = 1 + rng.next() % 300;
        std::vector<std::uint64_t> vals(count);
        for (auto &v : vals) {
            unsigned bits = static_cast<unsigned>(rng.next() % 65);
            v = bits == 0 ? 0 : rng.next() >> (64 - bits);
        }
        auto bytes = encodeAll(vals);
        ASSERT_EQ(decodeAllRef(bytes, count), vals);

        std::vector<std::uint64_t> got(count);
        std::size_t decoded = 0, consumed = 0;
        ASSERT_EQ(varint::decodeBlock(bytes.data(), bytes.size(),
                                      count, got.data(), &decoded,
                                      &consumed),
                  Status::Ok);
        EXPECT_EQ(decoded, count);
        EXPECT_EQ(consumed, bytes.size());
        EXPECT_EQ(got, vals);
    }
}

TEST(Varint, BlockDecodeResumesAcrossArbitraryBufferSplits)
{
    // Feed the encoded stream in chunks of every awkward size; the
    // decoder must report NeedMore at the split, preserve progress,
    // and produce identical output after the "refill".
    Rng rng(0xBEEFu);
    constexpr std::size_t kBlock = 64; // values asked for per call
    std::size_t count = 257;           // crosses several blocks
    std::vector<std::uint64_t> vals(count);
    for (auto &v : vals) {
        unsigned bits = static_cast<unsigned>(rng.next() % 65);
        v = bits == 0 ? 0 : rng.next() >> (64 - bits);
    }
    auto bytes = encodeAll(vals);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{9},
                              std::size_t{63}, std::size_t{64},
                              std::size_t{65}}) {
        std::vector<std::uint64_t> got;
        std::vector<std::uint8_t> buf;
        std::size_t fed = 0;
        while (got.size() < count) {
            std::size_t want =
                std::min<std::size_t>(kBlock, count - got.size());
            std::array<std::uint64_t, kBlock> out;
            std::size_t decoded = 0, used = 0;
            auto st = varint::decodeBlock(buf.data(), buf.size(), want,
                                          out.data(), &decoded, &used);
            got.insert(got.end(), out.begin(), out.begin() + decoded);
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(used));
            if (st == Status::Ok)
                continue;
            ASSERT_EQ(st, Status::NeedMore);
            ASSERT_LT(fed, bytes.size()) << "decoder starved";
            std::size_t take =
                std::min(chunk, bytes.size() - fed);
            buf.insert(buf.end(), bytes.begin() + fed,
                       bytes.begin() + fed + take);
            fed += take;
        }
        EXPECT_EQ(got, vals) << "chunk=" << chunk;
    }
}

} // namespace
} // namespace sim
} // namespace tlsim
