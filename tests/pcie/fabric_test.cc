/** @file PCIe fabric: routing, timing, contention, TLP accounting. */
#include "pcie/fabric.h"

#include <functional>

#include <gtest/gtest.h>

#include "pcie/tlp.h"

namespace fld::pcie {
namespace {

struct Fixture
{
    sim::EventQueue eq;
    PcieFabric fabric{eq};
    MemoryEndpoint host{"host", 1 << 20};
    MemoryEndpoint dev{"dev", 1 << 20};
    PortId host_port;
    PortId dev_port;

    Fixture(double gbps = 50.0, sim::TimePs lat = sim::nanoseconds(150))
    {
        host_port = fabric.add_port("host", gbps, lat);
        dev_port = fabric.add_port("dev", gbps, lat);
        fabric.attach(host_port, &host, 0x0000'0000, 1 << 20);
        fabric.attach(dev_port, &dev, 0x1000'0000, 1 << 20);
    }
};

TEST(TlpParams, WriteSegmentation)
{
    TlpParams tlp;
    EXPECT_EQ(tlp.write_tlps(0), 1u);
    EXPECT_EQ(tlp.write_tlps(1), 1u);
    EXPECT_EQ(tlp.write_tlps(256), 1u);
    EXPECT_EQ(tlp.write_tlps(257), 2u);
    EXPECT_EQ(tlp.write_tlps(1500), 6u);
    EXPECT_EQ(tlp.write_wire_bytes(1500), 1500u + 6 * 24);
}

TEST(TlpParams, ReadSegmentation)
{
    TlpParams tlp;
    EXPECT_EQ(tlp.read_req_tlps(512), 1u);
    EXPECT_EQ(tlp.read_req_tlps(513), 2u);
    EXPECT_EQ(tlp.read_req_wire_bytes(64), 24u);
    EXPECT_EQ(tlp.read_cpl_wire_bytes(64), 64u + 24);
}

TEST(PcieFabric, WriteDeliversData)
{
    Fixture f;
    bool done = false;
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    f.fabric.write(f.host_port, 0x1000'0010, payload,
                   [&] { done = true; });
    f.eq.run();
    ASSERT_TRUE(done);
    uint8_t out[5];
    f.dev.bar_read(0x10, out, 5);
    EXPECT_EQ(std::vector<uint8_t>(out, out + 5), payload);
}

TEST(PcieFabric, ReadReturnsWrittenData)
{
    Fixture f;
    uint8_t seed[8] = {9, 8, 7, 6, 5, 4, 3, 2};
    f.dev.bar_write(0x40, seed, 8);

    std::vector<uint8_t> got;
    f.fabric.read(f.host_port, 0x1000'0040, 8,
                  [&](std::vector<uint8_t>& data) { got = std::move(data); });
    f.eq.run();
    EXPECT_EQ(got, std::vector<uint8_t>(seed, seed + 8));
}

TEST(PcieFabric, WriteLatencyMatchesModel)
{
    Fixture f(50.0, sim::nanoseconds(150));
    sim::TimePs delivered = 0;
    f.fabric.write(f.host_port, 0x1000'0000,
                   std::vector<uint8_t>(64, 0xaa),
                   [&] { delivered = f.eq.now(); });
    f.eq.run();
    // Wire = 64 + 24 = 88 B; serialization at 50 Gbps = 14.08 ns,
    // twice (src egress + dst ingress), plus 2 x 150 ns propagation.
    sim::TimePs expect = 2 * sim::serialize_time(88, 50.0) +
                         2 * sim::nanoseconds(150);
    EXPECT_EQ(delivered, expect);
}

TEST(PcieFabric, ReadRoundTripLatency)
{
    Fixture f(50.0, sim::nanoseconds(150));
    sim::TimePs done_at = 0;
    f.fabric.read(f.host_port, 0x1000'0000, 64,
                  [&](std::vector<uint8_t>&) { done_at = f.eq.now(); });
    f.eq.run();
    // Request: 24 B wire both segments + 2 hops; completion: 88 B both
    // segments + 2 hops.
    sim::TimePs expect = 2 * sim::serialize_time(24, 50.0) +
                         2 * sim::serialize_time(88, 50.0) +
                         4 * sim::nanoseconds(150);
    EXPECT_EQ(done_at, expect);
}

TEST(PcieFabric, BackToBackWritesSerialize)
{
    Fixture f(50.0, 0);
    sim::TimePs t1 = 0, t2 = 0;
    std::vector<uint8_t> data(256, 1); // 280 B wire each
    f.fabric.write(f.host_port, 0x1000'0000, data,
                   [&] { t1 = f.eq.now(); });
    f.fabric.write(f.host_port, 0x1000'2000, data,
                   [&] { t2 = f.eq.now(); });
    f.eq.run();
    // Second write cannot finish less than one serialization after the
    // first (they share the egress link).
    EXPECT_GE(t2, t1 + sim::serialize_time(280, 50.0));
}

TEST(PcieFabric, OppositeDirectionsDoNotContend)
{
    Fixture f(50.0, 0);
    // Host->dev and dev->host writes at the same instant.
    sim::TimePs t1 = 0, t2 = 0;
    std::vector<uint8_t> data(1024, 1);
    f.fabric.write(f.host_port, 0x1000'0000, data,
                   [&] { t1 = f.eq.now(); });
    f.fabric.write(f.dev_port, 0x0000'0000, data,
                   [&] { t2 = f.eq.now(); });
    f.eq.run();
    // Full-duplex links: both complete in one serialization x2 window.
    sim::TimePs one = sim::serialize_time(1024 + 4 * 24, 50.0);
    EXPECT_LE(t1, 2 * one + 1);
    EXPECT_LE(t2, 2 * one + 1);
}

TEST(PcieFabric, StatsAccumulateWireBytes)
{
    Fixture f;
    f.fabric.write(f.host_port, 0x1000'0000,
                   std::vector<uint8_t>(100, 0));
    f.eq.run();
    const PortStats& s = f.fabric.stats(f.host_port);
    EXPECT_EQ(s.egress_bytes, 100u + 24);
    EXPECT_EQ(s.writes, 1u);
    const PortStats& d = f.fabric.stats(f.dev_port);
    EXPECT_EQ(d.ingress_bytes, 100u + 24);
}

TEST(PcieFabric, ThroughputBoundedByLinkRate)
{
    Fixture f(50.0, sim::nanoseconds(150));
    // Blast 1000 x 1 KiB writes; goodput must be below 50 Gbps and
    // close to 50 * 1024/(1024+4*24) once headers are paid.
    const int n = 1000;
    int delivered = 0;
    sim::TimePs last = 0;
    for (int i = 0; i < n; ++i) {
        f.fabric.write(f.host_port, 0x1000'0000 + (i % 16) * 1024,
                       std::vector<uint8_t>(1024, uint8_t(i)), [&] {
                           ++delivered;
                           last = f.eq.now();
                       });
    }
    f.eq.run();
    ASSERT_EQ(delivered, n);
    double goodput = sim::gbps_of(uint64_t(n) * 1024, last);
    double expect = 50.0 * 1024.0 / (1024.0 + 4 * 24);
    EXPECT_LT(goodput, 50.0);
    EXPECT_NEAR(goodput, expect, 2.0);
}

/** Answers reads without writing a byte: whatever the fabric hands
 *  it is what the requester sees. */
struct SilentEndpoint : PcieEndpoint
{
    void bar_write(uint64_t, const uint8_t*, size_t) override {}
    void bar_read(uint64_t, uint8_t*, size_t) override {}
};

TEST(PcieFabric, ReusedReadBuffersCarryNothingOfEarlierReads)
{
    // Descriptor-style handlers decode in place and leave the buffer,
    // so the fabric hands it to the next read. Back-to-back reads of
    // different lengths must each see exactly their own bytes.
    Fixture f;
    SilentEndpoint silent;
    PortId silent_port = f.fabric.add_port("silent", 50.0, 0);
    f.fabric.attach(silent_port, &silent, 0x2000'0000, 1 << 20);
    std::vector<uint8_t> pattern(512, 0xab);
    f.dev.bar_write(0, pattern.data(), pattern.size());

    struct Step
    {
        uint64_t addr;
        size_t len;
        uint8_t expect;
    };
    const Step steps[] = {{0x1000'0000, 512, 0xab}, {0x2000'0000, 64, 0},
                          {0x1000'0000, 256, 0xab}, {0x2000'0000, 320, 0},
                          {0x1000'0000, 16, 0xab},  {0x2000'0000, 512, 0}};
    size_t next = 0;
    std::vector<uint8_t> kept;
    std::function<void()> issue = [&] {
        const Step& st = steps[next];
        f.fabric.read(f.host_port, st.addr, st.len,
                      [&, st](std::vector<uint8_t>& data) {
                          EXPECT_EQ(data, std::vector<uint8_t>(st.len,
                                                               st.expect))
                              << "read " << next;
                          if (next == 2)
                              kept = std::move(data); // a payload read
                          if (++next < std::size(steps))
                              issue();
                      });
    };
    issue();
    f.eq.run();
    EXPECT_EQ(next, std::size(steps));
    EXPECT_EQ(kept, std::vector<uint8_t>(256, 0xab))
        << "a buffer moved out belongs to its handler";
}

TEST(PcieFabricDeath, UnmappedAddressPanics)
{
    Fixture f;
    EXPECT_DEATH(
        {
            f.fabric.write(f.host_port, 0x7000'0000, {1});
            f.eq.run();
        },
        "no endpoint");
}

TEST(MemoryEndpoint, GrowsOnDemandAndZeroFills)
{
    MemoryEndpoint mem("m", 4096);
    uint8_t out[16];
    mem.bar_read(100, out, 16);
    for (uint8_t b : out)
        EXPECT_EQ(b, 0);
    uint8_t v = 42;
    mem.bar_write(4000, &v, 1);
    mem.bar_read(4000, out, 1);
    EXPECT_EQ(out[0], 42);
}

} // namespace
} // namespace fld::pcie
