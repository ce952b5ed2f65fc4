/**
 * @file
 * Parameterized PCIe fabric sweeps: TLP geometry (MPS/MRRS), link
 * rates, and transfer sizes — the wire-byte accounting must stay
 * exact and throughput must track the configured rate.
 */
#include <gtest/gtest.h>

#include <tuple>

#include "pcie/fabric.h"

namespace fld::pcie {
namespace {

class TlpGeometrySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{};

TEST_P(TlpGeometrySweep, WireBytesExact)
{
    auto [mps, mrrs] = GetParam();
    TlpParams tlp;
    tlp.mps = mps;
    tlp.mrrs = mrrs;

    for (uint64_t len : {1ull, 63ull, 64ull, 255ull, 256ull, 257ull,
                         1500ull, 4096ull, 65536ull}) {
        uint32_t wtlps = uint32_t((len + mps - 1) / mps);
        EXPECT_EQ(tlp.write_tlps(len), wtlps) << len;
        EXPECT_EQ(tlp.write_wire_bytes(len),
                  len + uint64_t(wtlps) * tlp.hdr)
            << len;
        uint32_t rtlps = uint32_t((len + mrrs - 1) / mrrs);
        EXPECT_EQ(tlp.read_req_tlps(len), rtlps) << len;
        EXPECT_EQ(tlp.read_req_wire_bytes(len),
                  uint64_t(rtlps) * tlp.read_req)
            << len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlpGeometrySweep,
    ::testing::Combine(::testing::Values<uint32_t>(128, 256, 512),
                       ::testing::Values<uint32_t>(256, 512, 4096)));

class LinkRateSweep : public ::testing::TestWithParam<double>
{};

TEST_P(LinkRateSweep, SustainedWritesTrackConfiguredRate)
{
    double gbps = GetParam();
    sim::EventQueue eq;
    PcieFabric fabric(eq);
    MemoryEndpoint mem("m", 1 << 20);
    PortId a = fabric.add_port("a", gbps, 0);
    PortId b = fabric.add_port("b", gbps, 0);
    fabric.attach(b, &mem, 0, 1 << 20);
    (void)a;

    const int n = 500;
    const uint64_t len = 2048;
    sim::TimePs last = 0;
    for (int i = 0; i < n; ++i) {
        fabric.write(a, uint64_t(i % 8) * 4096,
                     std::vector<uint8_t>(len, uint8_t(i)),
                     [&] { last = eq.now(); });
    }
    eq.run();

    TlpParams tlp;
    double wire = double(tlp.write_wire_bytes(len));
    double expect = gbps * double(len) / wire;
    double measured = sim::gbps_of(uint64_t(n) * len, last);
    EXPECT_NEAR(measured, expect, expect * 0.02) << gbps;
}

INSTANTIATE_TEST_SUITE_P(Rates, LinkRateSweep,
                         ::testing::Values(10.0, 25.0, 50.0, 100.0));

class ReadSizeSweep : public ::testing::TestWithParam<size_t>
{};

TEST_P(ReadSizeSweep, ReadsReturnExactBytes)
{
    size_t len = GetParam();
    sim::EventQueue eq;
    PcieFabric fabric(eq);
    MemoryEndpoint mem("m", 1 << 20);
    PortId a = fabric.add_port("a", 50.0, sim::nanoseconds(100));
    PortId b = fabric.add_port("b", 50.0, sim::nanoseconds(100));
    fabric.attach(b, &mem, 0, 1 << 20);

    std::vector<uint8_t> seed(len);
    for (size_t i = 0; i < len; ++i)
        seed[i] = uint8_t(i * 13 + 7);
    if (len)
        mem.bar_write(100, seed.data(), len);

    std::vector<uint8_t> got;
    fabric.read(a, 100, len,
                [&](std::vector<uint8_t>& data) { got = std::move(data); });
    eq.run();
    EXPECT_EQ(got, seed);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReadSizeSweep,
                         ::testing::Values<size_t>(1, 64, 256, 257,
                                                   4096, 65536));

} // namespace
} // namespace fld::pcie
