/**
 * @file
 * AppRings, the application side of the fast path's ring ABI: a
 * refused post leaves the arena alone, flush() frees a full TX ring
 * for one retry, notifies in one tick coalesce into one service pass
 * at that tick, and a drain releases every slot before one
 * rx_doorbell.
 */
#include <gtest/gtest.h>

#include <vector>

#include "apps/app_rings.h"
#include "driver/fastpath.h"
#include "sim/event_queue.h"

using namespace fld;
using apps::AppRings;
using driver::FastPath;
using driver::RingDesc;

namespace {

constexpr uint32_t kIpA = net::ipv4_addr(10, 7, 0, 1);
constexpr uint32_t kIpB = net::ipv4_addr(10, 7, 0, 2);
constexpr net::MacAddr kMacA{0x02, 0, 0, 0, 0, 0xa};
constexpr net::MacAddr kMacB{0x02, 0, 0, 0, 0, 0xb};
constexpr sim::TimePs kWire = sim::nanoseconds(500);

RingDesc
data_desc(uint64_t conn, uint32_t len)
{
    RingDesc d;
    d.opaque = conn;
    d.len = len;
    d.type = driver::kDescData;
    return d;
}

std::vector<uint8_t>
bytes_of(uint8_t value, uint32_t len)
{
    return std::vector<uint8_t>(len, value);
}

/** Two stacks joined by a fixed-delay wire; the client end is driven
 *  through the raw ring API, the server end through AppRings. */
struct Loop
{
    sim::EventQueue eq;
    FastPath a{eq, cfg(kMacA, kIpA)};
    FastPath b{eq, cfg(kMacB, kIpB)};
    uint32_t a_app = 0;
    uint32_t a_conn = 0;

    static driver::FastPathConfig cfg(const net::MacAddr& mac,
                                      uint32_t ip)
    {
        driver::FastPathConfig c;
        c.mac = mac;
        c.ip = ip;
        return c;
    }

    Loop()
    {
        wire(a, b);
        wire(b, a);
        a.add_arp_entry(kIpB, kMacB);
        b.add_arp_entry(kIpA, kMacA);
        a_app = a.register_app(16, 16);
    }

    void wire(FastPath& from, FastPath& to)
    {
        from.set_tx([this, &to](net::Packet&& f) {
            eq.schedule_in(kWire, [&to, f = std::move(f)]() mutable {
                to.on_rx(std::move(f));
            });
            return true;
        });
    }

    /** Open one connection to @p server and run the handshake. */
    void connect(AppRings& server)
    {
        server.listen(7000);
        a_conn = a.open(a_app, 0, kIpB, 7000, 20000);
        ASSERT_NE(a_conn, FastPath::kNoConn);
        eq.run();
        ASSERT_EQ(a.stats().conns_opened, 1u);
    }

    /** Client: stream @p n segments of @p len bytes on one doorbell. */
    void send(uint32_t n, uint32_t len)
    {
        driver::DescRing& tx = a.tx_ring(a_app);
        for (uint32_t i = 0; i < n; ++i) {
            RingDesc d = data_desc(a_conn, len);
            d.addr = uint64_t(tx.next_slot()) * a.slot_bytes();
            ASSERT_TRUE(tx.post(d));
        }
        a.doorbell(a_app);
    }
};

} // namespace

TEST(AppRings, RefusedPostLeavesArenaUntouched)
{
    sim::EventQueue eq;
    FastPath fp(eq);
    AppRings rings(eq, fp, 2, 2, [] {});
    const uint32_t app = rings.app_id();

    auto first = bytes_of(0x11, 64);
    auto second = bytes_of(0x22, 64);
    ASSERT_TRUE(rings.post(data_desc(1, 64), first.data()));
    ASSERT_TRUE(rings.post(data_desc(1, 64), second.data()));
    ASSERT_TRUE(rings.tx_full());

    // The next claim would reuse slot 0, which still backs the first
    // descriptor: refused, and slot 0 keeps the first bytes.
    auto third = bytes_of(0x33, 64);
    EXPECT_FALSE(rings.post(data_desc(1, 64), third.data()));
    const driver::DescRing& tx = fp.tx_ring(app);
    EXPECT_EQ(tx.stalls(), 1u);
    EXPECT_EQ(tx.next_slot(), 0u);
    const uint8_t* arena = fp.tx_arena(app);
    EXPECT_EQ(std::vector<uint8_t>(arena, arena + 64), first);
    EXPECT_EQ(std::vector<uint8_t>(arena + fp.slot_bytes(),
                                   arena + fp.slot_bytes() + 64),
              second);
    EXPECT_EQ(tx.slot(0).addr, 0u);
    EXPECT_EQ(tx.slot(1).addr, fp.slot_bytes());
}

TEST(AppRings, FlushThenPostSucceedsOnFullRing)
{
    sim::EventQueue eq;
    FastPath fp(eq);
    AppRings rings(eq, fp, 2, 2, [] {});

    // Nothing posted: flush rings no doorbell.
    EXPECT_FALSE(rings.flush());
    EXPECT_EQ(fp.stats().doorbells, 0u);

    auto payload = bytes_of(0x5a, 32);
    ASSERT_TRUE(rings.post(data_desc(1, 32), payload.data()));
    ASSERT_TRUE(rings.post(data_desc(1, 32), payload.data()));
    RingDesc d = data_desc(1, 32);
    // The retry step both RPC apps use: refused, flush, then claimed.
    EXPECT_FALSE(rings.post(d, payload.data()));
    EXPECT_TRUE(rings.flush());
    EXPECT_EQ(fp.stats().doorbells, 1u);
    EXPECT_TRUE(rings.post(d, payload.data()));
    EXPECT_EQ(fp.stats().tx_descs, 2u);

    EXPECT_TRUE(rings.flush());
    EXPECT_FALSE(rings.flush()) << "a second flush has nothing to ring";
    EXPECT_EQ(fp.stats().doorbells, 2u);
    EXPECT_TRUE(fp.tx_ring(rings.app_id()).all_released());
}

TEST(AppRings, NotifiesInOneTickRunOneServicePass)
{
    Loop l;
    std::vector<sim::TimePs> passes;
    uint32_t drained = 0;
    AppRings server(l.eq, l.b, 16, 16, [&] {
        passes.push_back(l.eq.now());
        server.drain([&](const RingDesc& d, const uint8_t*) {
            drained += d.type == driver::kDescData;
        });
    });
    l.connect(server);
    passes.clear(); // the Accepted ctrl's pass

    // Three segments leave on one doorbell and land in the same tick:
    // three notifies, one pass, at the delivery tick.
    const sim::TimePs sent = l.eq.now();
    l.send(3, 100);
    l.eq.run();
    ASSERT_EQ(passes.size(), 1u);
    EXPECT_EQ(passes[0], sent + kWire);
    EXPECT_EQ(drained, 3u);
    EXPECT_EQ(l.b.stats().rx_descs, 3u);
}

TEST(AppRings, DrainReleasesEverySlotThenRingsRxDoorbellOnce)
{
    Loop l;
    AppRings server(l.eq, l.b, 16, 2, [] {});
    l.connect(server);

    // Three segments into a two-entry RX ring: the third parks.
    l.send(3, 100);
    l.eq.run();
    const driver::DescRing& rx = l.b.rx_ring(server.app_id());
    ASSERT_EQ(rx.posted(), 2u);
    ASSERT_EQ(l.b.stats().rx_ring_stalls, 1u);

    // While the drain runs no doorbell has rung, so the parked
    // delivery stays parked; the one doorbell after the loop posts it.
    uint32_t seen = 0;
    server.drain([&](const RingDesc& d, const uint8_t*) {
        EXPECT_EQ(rx.posted(), 2u);
        EXPECT_EQ(d.len, 100u);
        ++seen;
    });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(rx.released(), 2u);
    EXPECT_EQ(rx.posted(), 3u);

    server.drain([](const RingDesc&, const uint8_t*) {});
    EXPECT_TRUE(rx.all_released());
    EXPECT_TRUE(rx.own_flags_clear());
    EXPECT_EQ(l.b.stats().rx_descs, 3u);
}
