/**
 * @file
 * The shared ring-protocol rules, checked exhaustively over the 16-bit
 * index space against straightforward reference models.
 */
#include "nic/ring_protocol.h"

#include <gtest/gtest.h>

#include <vector>

namespace fld::nic {
namespace {

/** Reference: pop outstanding indices oldest first, each compared to
 *  the counter by signed 16-bit distance, up to and including the
 *  completed one. */
uint32_t
pop_loop_retire(uint16_t wqe_counter, uint16_t oldest, uint32_t outstanding)
{
    uint32_t popped = 0;
    while (popped < outstanding) {
        int16_t delta = int16_t(wqe_counter - uint16_t(oldest + popped));
        if (delta < 0)
            break;
        ++popped;
        if (delta == 0)
            break;
    }
    return popped;
}

TEST(RingProtocol, RetireCountMatchesPopLoop)
{
    uint64_t mismatches = 0;
    for (uint16_t oldest : {0x0000, 0x0001, 0x7fff, 0xffff}) {
        for (uint32_t outstanding = 0; outstanding <= 64; ++outstanding) {
            for (uint32_t d = 0; d < 0x10000; ++d) {
                uint16_t counter = uint16_t(oldest + d);
                uint32_t want =
                    pop_loop_retire(counter, oldest, outstanding);
                uint32_t got = retire_count(counter, oldest, outstanding);
                if (got != want && mismatches++ == 0)
                    ADD_FAILURE() << "oldest " << oldest << " outstanding "
                                  << outstanding << " delta " << d
                                  << ": " << got << " != " << want;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(RingProtocol, RxAdvanceMatchesPostedWindow)
{
    uint64_t mismatches = 0;
    for (uint32_t buffers = 1; buffers <= 64; ++buffers) {
        // A fresh ring, one just past a 16-bit wrap, and one whose
        // window straddles the 32-bit wrap.
        for (uint32_t pi : {buffers, 0x10000u + 5, buffers - 3}) {
            // Window model: posted buffer k (0 = oldest) has absolute
            // index pi - buffers + k; the NIC reports it mod 2^16.
            std::vector<int> posted(0x10000, -1);
            for (uint32_t k = 0; k < buffers; ++k)
                posted[uint16_t(pi - buffers + k)] = int(k);
            for (uint32_t index = 0; index < 0x10000; ++index) {
                uint32_t want = posted[index] < 0 ? 0 : posted[index];
                uint32_t got = rx_advance(pi, buffers, uint16_t(index));
                bool in = rx_posted(pi, buffers, uint16_t(index));
                if ((got != want || in != (posted[index] >= 0)) &&
                    mismatches++ == 0)
                    ADD_FAILURE() << "buffers " << buffers << " pi " << pi
                                  << " index " << index << ": " << got
                                  << " != " << want << ", posted " << in;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(RingProtocol, DoorbellCoalescerReRingsOncePerBurst)
{
    DoorbellCoalescer db;
    // A clean landing asks for nothing more.
    EXPECT_TRUE(db.start());
    EXPECT_FALSE(db.landed());
    // Posts while a write is in flight coalesce into one re-ring.
    EXPECT_TRUE(db.start());
    EXPECT_FALSE(db.start());
    EXPECT_FALSE(db.start());
    EXPECT_FALSE(db.start());
    EXPECT_TRUE(db.landed());
    // The re-ring is itself a write; it lands clean.
    EXPECT_TRUE(db.start());
    EXPECT_FALSE(db.landed());
    EXPECT_FALSE(db.landed());
    EXPECT_TRUE(db.start());
}

TEST(RingProtocol, DoorbellCoalescerPublishesLatestIndex)
{
    // A driver posting in bursts, each write carrying the producer
    // index at the time it starts: one write per burst plus one
    // re-ring, and the last write landed carries the final index.
    DoorbellCoalescer db;
    uint32_t pi = 0;
    uint32_t inflight_pi = 0;
    uint32_t published = 0;
    int writes = 0;
    auto ring = [&] {
        if (db.start()) {
            inflight_pi = pi;
            ++writes;
        }
    };
    for (int burst = 1; burst <= 10; ++burst) {
        for (int i = 0; i < burst; ++i) {
            ++pi;
            ring();
        }
        while (true) {
            published = inflight_pi;
            if (!db.landed())
                break;
            ring();
        }
        EXPECT_EQ(published, pi);
    }
    EXPECT_EQ(writes, 1 + 2 * 9);
}

TEST(RingProtocol, FillRxRingNamesBufferModuloCount)
{
    const uint32_t entries = 16;
    const uint32_t buffers = 5;
    std::vector<uint8_t> ring(entries * kRxDescStride);
    fill_rx_ring(ring.data(), entries, buffers,
                 {.byte_count = 4096, .stride_count = 2,
                  .stride_shift = 11},
                 [](uint32_t b) { return 0x1000 * uint64_t(b + 1); });
    for (uint32_t i = 0; i < entries; ++i) {
        RxDesc d = RxDesc::decode(ring.data() + i * kRxDescStride);
        EXPECT_EQ(d.addr, 0x1000 * uint64_t(i % buffers + 1)) << i;
        EXPECT_EQ(d.byte_count, 4096u);
        EXPECT_EQ(d.stride_count, 2u);
        EXPECT_EQ(d.stride_shift, 11u);
    }
}

} // namespace
} // namespace fld::nic
