/**
 * @file
 * RPC framing codec: round-trip and corruption property tests.
 *
 * The contract under test (net/rpc_codec.h): frames survive
 * fragmentation at *every* byte boundary (TCP MSS segmentation and
 * ring-descriptor slicing both reduce to "arbitrary byte runs"), a
 * truncated tail never emits a frame, and any header corruption —
 * most importantly a flipped length prefix — is rejected
 * deterministically and stickily, never re-parsed from a misaligned
 * offset.
 */
#include <gtest/gtest.h>

#include <vector>

#include "net/rpc_codec.h"
#include "util/rng.h"

namespace fld::rpc {
namespace {

std::vector<uint8_t>
random_payload(Rng& rng, size_t len)
{
    std::vector<uint8_t> p(len);
    for (auto& b : p)
        b = uint8_t(rng.next());
    return p;
}

/** Feed `bytes` split at one boundary, return the decoded frames. */
std::vector<Frame>
decode_split(const std::vector<uint8_t>& bytes, size_t cut,
             bool* ok = nullptr)
{
    FrameDecoder dec;
    bool good = dec.feed(bytes.data(), cut);
    good = dec.feed(bytes.data() + cut, bytes.size() - cut) && good;
    if (ok)
        *ok = good;
    std::vector<Frame> out;
    Frame f;
    while (dec.next(&f))
        out.push_back(f);
    return out;
}

TEST(RpcCodec, RoundTripBasic)
{
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<uint8_t> wire =
        encode_frame(7, 0xdeadbeefcafef00dull, payload.data(),
                     payload.size());
    ASSERT_EQ(wire.size(), kHeaderBytes + payload.size());

    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(wire.data(), wire.size()));
    Frame f;
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.method, 7);
    EXPECT_EQ(f.request_id, 0xdeadbeefcafef00dull);
    EXPECT_EQ(f.payload, payload);
    EXPECT_FALSE(dec.next(&f));
    EXPECT_EQ(dec.frames_decoded(), 1u);
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(RpcCodec, EmptyPayloadRoundTrips)
{
    std::vector<uint8_t> wire = encode_frame(0, 42, nullptr, 0);
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(wire.data(), wire.size()));
    Frame f;
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 42u);
    EXPECT_TRUE(f.payload.empty());
}

/** Property: a multi-frame stream split at EVERY byte boundary
 *  round-trips identically — no boundary can desync the decoder. */
TEST(RpcCodec, EveryFragmentationBoundaryRoundTrips)
{
    Rng rng(0x517e);
    std::vector<Frame> sent;
    std::vector<uint8_t> wire;
    for (uint8_t i = 0; i < 5; ++i) {
        Frame f;
        f.method = i;
        f.request_id = 0x1000u + i;
        f.payload = random_payload(rng, size_t(rng.range(0, 97)));
        append_frame(wire, f.method, f.request_id, f.payload.data(),
                     f.payload.size());
        sent.push_back(std::move(f));
    }
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
        bool ok = false;
        std::vector<Frame> got = decode_split(wire, cut, &ok);
        ASSERT_TRUE(ok) << "cut at " << cut;
        ASSERT_EQ(got.size(), sent.size()) << "cut at " << cut;
        for (size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(got[i].method, sent[i].method);
            EXPECT_EQ(got[i].request_id, sent[i].request_id);
            EXPECT_EQ(got[i].payload, sent[i].payload);
        }
    }
}

/** Property: the same stream fed one byte at a time round-trips. */
TEST(RpcCodec, ByteAtATimeRoundTrips)
{
    Rng rng(0xb17e);
    std::vector<uint8_t> wire;
    for (int i = 0; i < 3; ++i) {
        auto p = random_payload(rng, size_t(rng.range(1, 300)));
        append_frame(wire, uint8_t(i), uint64_t(i) << 8, p.data(),
                     p.size());
    }
    FrameDecoder dec;
    for (uint8_t b : wire)
        ASSERT_TRUE(dec.feed(&b, 1));
    EXPECT_EQ(dec.frames_decoded(), 3u);
    EXPECT_EQ(dec.buffered(), 0u);
}

/** Property: random fragment sizes (descriptor-slicing shapes) over a
 *  long stream; the decoder must reassemble every frame in order. */
TEST(RpcCodec, RandomFragmentationRoundTrips)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        std::vector<Frame> sent;
        std::vector<uint8_t> wire;
        uint32_t frames = uint32_t(rng.range(1, 12));
        for (uint32_t i = 0; i < frames; ++i) {
            Frame f;
            f.method = uint8_t(rng.uniform(4));
            f.request_id = rng.next();
            f.payload =
                random_payload(rng, size_t(rng.range(0, 1500)));
            append_frame(wire, f.method, f.request_id,
                         f.payload.data(), f.payload.size());
            sent.push_back(std::move(f));
        }
        FrameDecoder dec;
        size_t pos = 0;
        while (pos < wire.size()) {
            // 1..MSS-ish chunks: both tiny and large runs occur.
            size_t n = std::min<size_t>(wire.size() - pos,
                                        1 + rng.uniform(1460));
            ASSERT_TRUE(dec.feed(wire.data() + pos, n));
            pos += n;
        }
        std::vector<Frame> got;
        Frame f;
        while (dec.next(&f))
            got.push_back(f);
        ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
        for (size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(got[i].request_id, sent[i].request_id);
            EXPECT_EQ(got[i].payload, sent[i].payload);
        }
    }
}

/**
 * Regression guard: a frame split exactly at the checksum word
 * boundaries. The header carries two trailing checksum words —
 * payload_csum at [16, 20) and header_csum at [20, 24) — and a cut
 * landing on (or inside) those words means the decoder validates the
 * header only after a second feed completes it; a decoder that
 * checked eagerly on the first fragment would misread a half-arrived
 * checksum as corruption.
 */
TEST(RpcCodec, SplitAtChecksumWordBoundaryRoundTrips)
{
    Rng rng(0xc5c5);
    auto p = random_payload(rng, 73);
    std::vector<uint8_t> wire =
        encode_frame(3, 0x0123456789abcdefull, p.data(), p.size());

    // Word-aligned cuts at each checksum field edge, plus every
    // mid-word position inside the two checksum words.
    for (size_t cut : {16u, 17u, 18u, 19u, 20u, 21u, 22u, 23u, 24u}) {
        bool ok = false;
        std::vector<Frame> got = decode_split(wire, cut, &ok);
        ASSERT_TRUE(ok) << "cut at " << cut;
        ASSERT_EQ(got.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(got[0].method, 3);
        EXPECT_EQ(got[0].request_id, 0x0123456789abcdefull);
        EXPECT_EQ(got[0].payload, p) << "cut at " << cut;
    }
}

/** A truncated tail yields the complete frames and no phantom one. */
TEST(RpcCodec, TruncatedTailEmitsNothing)
{
    Rng rng(0x7a11);
    auto p1 = random_payload(rng, 64);
    auto p2 = random_payload(rng, 128);
    std::vector<uint8_t> wire;
    append_frame(wire, 1, 11, p1.data(), p1.size());
    size_t first_end = wire.size();
    append_frame(wire, 2, 22, p2.data(), p2.size());

    for (size_t keep = first_end; keep < wire.size(); ++keep) {
        FrameDecoder dec;
        ASSERT_TRUE(dec.feed(wire.data(), keep));
        Frame f;
        ASSERT_TRUE(dec.next(&f));
        EXPECT_EQ(f.request_id, 11u);
        EXPECT_FALSE(dec.next(&f)) << "keep=" << keep;
        EXPECT_FALSE(dec.error());
        EXPECT_EQ(dec.buffered(), keep - first_end);
    }
}

/** Property: flipping any bit of the length prefix is rejected as a
 *  header-checksum error — deterministically, at every flip. */
TEST(RpcCodec, FlippedLengthPrefixRejected)
{
    Rng rng(0xf11f);
    auto p = random_payload(rng, 200);
    std::vector<uint8_t> wire = encode_frame(1, 99, p.data(), p.size());
    for (size_t byte = 4; byte < 8; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = wire;
            bad[byte] ^= uint8_t(1u << bit);
            FrameDecoder dec;
            EXPECT_FALSE(dec.feed(bad.data(), bad.size()));
            EXPECT_EQ(dec.error_code(),
                      DecodeError::BadHeaderChecksum);
            Frame f;
            EXPECT_FALSE(dec.next(&f));
        }
    }
}

/** Property: flipping ANY single header bit is rejected (magic /
 *  version / checksum fields each map to their named error). */
TEST(RpcCodec, AnyHeaderCorruptionRejected)
{
    Rng rng(0xc0de);
    auto p = random_payload(rng, 50);
    std::vector<uint8_t> wire = encode_frame(2, 7, p.data(), p.size());
    for (size_t byte = 0; byte < kHeaderBytes; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = wire;
            bad[byte] ^= uint8_t(1u << bit);
            FrameDecoder dec;
            bool ok = dec.feed(bad.data(), bad.size());
            EXPECT_FALSE(ok) << "byte " << byte << " bit " << bit;
            EXPECT_TRUE(dec.error());
            // Determinism: the same corruption always yields the same
            // error code.
            FrameDecoder dec2;
            dec2.feed(bad.data(), bad.size());
            EXPECT_EQ(dec.error_code(), dec2.error_code());
        }
    }
}

/** Payload corruption is caught by the payload checksum. */
TEST(RpcCodec, PayloadCorruptionRejected)
{
    Rng rng(0xabcd);
    auto p = random_payload(rng, 100);
    std::vector<uint8_t> wire = encode_frame(3, 5, p.data(), p.size());
    for (size_t i = 0; i < 16; ++i) {
        std::vector<uint8_t> bad = wire;
        size_t byte = kHeaderBytes + rng.uniform(p.size());
        bad[byte] ^= uint8_t(1 + rng.uniform(255));
        FrameDecoder dec;
        EXPECT_FALSE(dec.feed(bad.data(), bad.size()));
        EXPECT_EQ(dec.error_code(), DecodeError::BadPayloadChecksum);
    }
}

/** Errors are sticky: a good frame after a bad one is never emitted,
 *  regardless of how the bytes were fragmented. */
TEST(RpcCodec, ErrorIsStickyAcrossFragmentation)
{
    Rng rng(0x5f1c);
    auto p = random_payload(rng, 40);
    std::vector<uint8_t> bad = encode_frame(1, 1, p.data(), p.size());
    bad[5] ^= 0x40; // corrupt the length prefix
    std::vector<uint8_t> good =
        encode_frame(2, 2, p.data(), p.size());
    std::vector<uint8_t> wire = bad;
    wire.insert(wire.end(), good.begin(), good.end());

    for (size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(wire.data(), cut);
        dec.feed(wire.data() + cut, wire.size() - cut);
        EXPECT_TRUE(dec.error()) << "cut " << cut;
        Frame f;
        EXPECT_FALSE(dec.next(&f)) << "cut " << cut;
        EXPECT_EQ(dec.buffered(), 0u) << "cut " << cut;
        // Further feeds keep failing without buffering anything.
        uint8_t x = 0;
        EXPECT_FALSE(dec.feed(&x, 1));
        EXPECT_EQ(dec.buffered(), 0u);
    }
}

TEST(RpcCodec, OversizePayloadRejected)
{
    std::vector<uint8_t> p(64);
    std::vector<uint8_t> wire = encode_frame(0, 1, p.data(), p.size());
    FrameDecoder dec(/*max_payload=*/32);
    EXPECT_FALSE(dec.feed(wire.data(), wire.size()));
    EXPECT_EQ(dec.error_code(), DecodeError::Oversize);
}

TEST(RpcCodec, ResetClearsErrorAndBuffer)
{
    std::vector<uint8_t> p(16, 0x5a);
    std::vector<uint8_t> bad = encode_frame(0, 1, p.data(), p.size());
    bad[0] ^= 0xff;
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bad.data(), bad.size()));
    dec.reset();
    EXPECT_FALSE(dec.error());
    std::vector<uint8_t> good = encode_frame(0, 2, p.data(), p.size());
    EXPECT_TRUE(dec.feed(good.data(), good.size()));
    Frame f;
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 2u);
}

/** Decoding is a pure function of the byte stream: same bytes, any
 *  fragmentation, same frames and same bookkeeping. */
TEST(RpcCodec, DeterministicAcrossRuns)
{
    Rng rng(0xd00d);
    std::vector<uint8_t> wire;
    for (int i = 0; i < 4; ++i) {
        auto p = random_payload(rng, size_t(rng.range(10, 600)));
        append_frame(wire, uint8_t(i), rng.next(), p.data(), p.size());
    }
    auto run = [&](size_t chunk) {
        FrameDecoder dec;
        for (size_t pos = 0; pos < wire.size(); pos += chunk)
            dec.feed(wire.data() + pos,
                     std::min(chunk, wire.size() - pos));
        std::vector<Frame> out;
        Frame f;
        while (dec.next(&f))
            out.push_back(f);
        return out;
    };
    std::vector<Frame> a = run(1), b = run(7), c = run(1460);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].request_id, b[i].request_id);
        EXPECT_EQ(a[i].payload, b[i].payload);
        EXPECT_EQ(b[i].payload, c[i].payload);
    }
}

TEST(RpcCodec, NextBetweenFeedsAndResetWithQueuedFrames)
{
    // Frames queue up between feed() calls and leave through next() in
    // stream order however the two interleave; reset() drops whatever
    // is still queued, and the decoder then starts a fresh stream.
    Rng rng(0x5eed);
    std::vector<std::vector<uint8_t>> frames;
    for (uint64_t id = 1; id <= 8; ++id) {
        auto p = random_payload(rng, size_t(rng.range(0, 300)));
        frames.push_back(encode_frame(uint8_t(id & 3), id, p.data(),
                                      p.size()));
    }
    auto feed = [](FrameDecoder& dec, const std::vector<uint8_t>& w) {
        return dec.feed(w.data(), w.size());
    };
    std::vector<uint8_t> three;
    for (int i = 0; i < 3; ++i)
        three.insert(three.end(), frames[size_t(i)].begin(),
                     frames[size_t(i)].end());

    FrameDecoder dec;
    ASSERT_TRUE(feed(dec, three)); // frames 1-3 in one feed
    EXPECT_EQ(dec.pending_frames(), 3u);
    Frame f;
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 1u);
    ASSERT_TRUE(feed(dec, frames[3])); // 4 queues behind 2 and 3
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 2u);
    // Frame 5 split: its head arrives with 6 still to come.
    const std::vector<uint8_t>& five = frames[4];
    ASSERT_TRUE(dec.feed(five.data(), 10));
    EXPECT_EQ(dec.pending_frames(), 2u);
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 3u);
    ASSERT_TRUE(dec.feed(five.data() + 10, five.size() - 10));
    ASSERT_TRUE(feed(dec, frames[5]));
    for (uint64_t want = 4; want <= 6; ++want) {
        ASSERT_TRUE(dec.next(&f));
        EXPECT_EQ(f.request_id, want);
        EXPECT_EQ(f.method, uint8_t(want & 3));
    }
    EXPECT_FALSE(dec.next(&f));
    EXPECT_EQ(dec.pending_frames(), 0u);

    // reset() with two frames queued and half of a third buffered.
    ASSERT_TRUE(feed(dec, frames[6]));
    ASSERT_TRUE(feed(dec, frames[7]));
    ASSERT_TRUE(dec.feed(frames[0].data(), 5));
    EXPECT_EQ(dec.pending_frames(), 2u);
    EXPECT_EQ(dec.buffered(), 5u);
    dec.reset();
    EXPECT_EQ(dec.pending_frames(), 0u);
    EXPECT_EQ(dec.buffered(), 0u);
    EXPECT_FALSE(dec.next(&f));
    EXPECT_EQ(dec.frames_decoded(), 8u) << "counters survive reset()";

    // A fresh stream after reset decodes from its first byte.
    ASSERT_TRUE(feed(dec, frames[1]));
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, 2u);
    EXPECT_FALSE(dec.next(&f));
}

} // namespace
} // namespace fld::rpc
