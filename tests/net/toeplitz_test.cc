/** @file Toeplitz RSS hash tests against the Microsoft spec vectors. */
#include "net/toeplitz.h"

#include <gtest/gtest.h>

#include "net/headers.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace fld::net {
namespace {

// Microsoft RSS verification suite, IPv4-with-ports cases.
// Input tuple order: src addr, dst addr, src port, dst port.
TEST(Toeplitz, MicrosoftVector1)
{
    // dst 161.142.100.80:1766 <- src 66.9.149.187:2794
    uint32_t h = toeplitz_ipv4(default_rss_key(),
                               ipv4_addr(66, 9, 149, 187),
                               ipv4_addr(161, 142, 100, 80), 2794, 1766);
    EXPECT_EQ(h, 0x51ccc178u);
}

TEST(Toeplitz, MicrosoftVector2)
{
    // dst 65.69.140.83:4739 <- src 199.92.111.2:14230
    uint32_t h = toeplitz_ipv4(default_rss_key(),
                               ipv4_addr(199, 92, 111, 2),
                               ipv4_addr(65, 69, 140, 83), 14230, 4739);
    EXPECT_EQ(h, 0xc626b0eau);
}

TEST(Toeplitz, MicrosoftVector3)
{
    // dst 12.22.207.184:38024 <- src 24.19.198.95:12898
    uint32_t h = toeplitz_ipv4(default_rss_key(),
                               ipv4_addr(24, 19, 198, 95),
                               ipv4_addr(12, 22, 207, 184), 12898, 38024);
    EXPECT_EQ(h, 0x5c2b394au);
}

TEST(Toeplitz, DifferentPortsDisperse)
{
    const auto& key = default_rss_key();
    uint32_t a = toeplitz_ipv4(key, 0x01020304, 0x05060708, 1000, 80);
    uint32_t b = toeplitz_ipv4(key, 0x01020304, 0x05060708, 1001, 80);
    EXPECT_NE(a, b);
}

TEST(Toeplitz, DeterministicAcrossCalls)
{
    const auto& key = default_rss_key();
    EXPECT_EQ(toeplitz_ipv4(key, 1, 2, 3, 4),
              toeplitz_ipv4(key, 1, 2, 3, 4));
}

TEST(Toeplitz, EmptyInputHashesToZero)
{
    EXPECT_EQ(toeplitz_hash(default_rss_key(), nullptr, 0), 0u);
}

TEST(Toeplitz, SpreadsFlowsAcrossQueues)
{
    // 60 distinct flows into 16 queues: expect many queues occupied
    // (this is the property the defrag experiment relies on).
    const auto& key = default_rss_key();
    std::array<int, 16> hits{};
    for (uint16_t flow = 0; flow < 60; ++flow) {
        uint32_t h = toeplitz_ipv4(key, ipv4_addr(10, 0, 0, 1),
                                   ipv4_addr(10, 0, 0, 2),
                                   uint16_t(40000 + flow), 5201);
        hits[h % 16]++;
    }
    int occupied = 0;
    for (int c : hits)
        occupied += c > 0;
    EXPECT_GE(occupied, 12);
}

TEST(RssTable, MatchesMicrosoftVectors)
{
    const RssTable& t = default_rss_table();
    EXPECT_EQ(t.ipv4(ipv4_addr(66, 9, 149, 187),
                     ipv4_addr(161, 142, 100, 80), 2794, 1766),
              0x51ccc178u);
    EXPECT_EQ(t.ipv4(ipv4_addr(199, 92, 111, 2), ipv4_addr(65, 69, 140, 83),
                     14230, 4739),
              0xc626b0eau);
}

TEST(RssTable, EqualsBitSerialOnRandomTuplesAndPairs)
{
    const RssKey& key = default_rss_key();
    const RssTable& t = default_rss_table();
    Rng rng(0x7031);
    for (int i = 0; i < 10'000; ++i) {
        uint32_t src = uint32_t(rng.next());
        uint32_t dst = uint32_t(rng.next());
        uint16_t sport = uint16_t(rng.next());
        uint16_t dport = uint16_t(rng.next());
        ASSERT_EQ(t.ipv4(src, dst, sport, dport),
                  toeplitz_ipv4(key, src, dst, sport, dport))
            << i;
        uint8_t pair[8];
        store_be32(pair, src);
        store_be32(pair + 4, dst);
        ASSERT_EQ(t.ip_pair(src, dst), toeplitz_hash(key, pair, 8)) << i;
    }
}

TEST(RssTable, OtherKeysMatchTheirBitSerialHash)
{
    RssKey key{};
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = uint8_t(i * 37 + 11);
    RssTable t(key);
    EXPECT_EQ(t.ipv4(0x0a000001, 0xc0a80101, 40000, 443),
              toeplitz_ipv4(key, 0x0a000001, 0xc0a80101, 40000, 443));
    EXPECT_EQ(t.ip_pair(0, 0), 0u);
}

} // namespace
} // namespace fld::net
