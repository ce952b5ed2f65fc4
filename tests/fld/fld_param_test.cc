/**
 * @file
 * Parameterized property sweeps over the FLD <-> NIC datapath:
 * conservation (everything sent is delivered exactly once), credit
 * restoration, and on-die state cleanliness across frame sizes,
 * signal intervals and queue counts.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "net/headers.h"
#include "nic/nic.h"
#include "runtime/fld_runtime.h"

namespace fld::core {
namespace {

struct ParamRig
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 32 << 20};
    pcie::PortId host_port;
    std::unique_ptr<nic::NicDevice> nic;
    std::unique_ptr<FlexDriver> fld;
    std::unique_ptr<runtime::FldRuntime> rt;
    nic::VportId fld_vport;
    runtime::FldRuntime::EthQueue q0;
    std::vector<StreamPacket> rx;
    std::vector<net::Packet> wire;

    explicit ParamRig(FldConfig cfg, uint32_t q0_rx_buffers = 16)
    {
        host_port = fabric.add_port("host", 50.0, sim::nanoseconds(100));
        fabric.attach(host_port, &hostmem, 0, 32 << 20);
        pcie::PortId nic_port =
            fabric.add_port("nic", 100.0, sim::nanoseconds(100));
        nic = std::make_unique<nic::NicDevice>("nic", eq, fabric,
                                               nic_port);
        fabric.attach(nic_port, nic.get(), 0x4000'0000,
                      nic::NicDevice::kBarSize);
        pcie::PortId fld_port =
            fabric.add_port("fld", 50.0, sim::nanoseconds(100));
        fld = std::make_unique<FlexDriver>("fld", eq, fabric, fld_port,
                                           0x8000'0000, 0x4000'0000,
                                           cfg);
        fabric.attach(fld_port, fld.get(), 0x8000'0000,
                      FlexDriver::kBarSize);
        rt = std::make_unique<runtime::FldRuntime>(*nic, *fld, hostmem,
                                                   16 << 20, 8 << 20);
        fld_vport = nic->add_vport();
        q0 = rt->create_eth_queue(fld_vport, 0, q0_rx_buffers);

        nic::FlowMatch from_fld;
        from_fld.in_vport = fld_vport;
        nic->add_rule(0, 0, from_fld,
                      {nic::fwd_vport(nic::kUplinkVport)});
        nic::FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        nic->add_rule(0, 0, from_wire, {nic::fwd_queue(q0.rqn)});

        fld->set_rx_handler([this](StreamPacket&& pkt) {
            rx.push_back(std::move(pkt));
        });
        nic->uplink().set_tx_hook([this](net::Packet&& pkt) {
            wire.push_back(std::move(pkt));
        });
        eq.run();
    }

    uint32_t frame_seq_ = 1;

    net::Packet frame(size_t payload, uint8_t tag)
    {
        std::vector<uint8_t> body(payload, tag);
        if (payload >= 6) {
            store_le16(body.data(), uint16_t(payload));
            store_le32(body.data() + 2, frame_seq_++); // uniqueness
        }
        return net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(net::ipv4_addr(10, 0, 0, 1),
                  net::ipv4_addr(10, 0, 0, 2), net::kIpProtoUdp)
            .udp(100, 200)
            .payload(body)
            .build();
    }
};

// ---------------------------------------------------------------------
// Sweep frame size x signal interval: TX conservation + credits.
// ---------------------------------------------------------------------

class FldTxSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>>
{};

TEST_P(FldTxSweep, EverythingSentIsDeliveredOnceAndCreditsReturn)
{
    auto [payload, signal_interval] = GetParam();
    FldConfig cfg;
    cfg.signal_interval = signal_interval;
    ParamRig rig(cfg);

    TxCredits before = rig.fld->tx_credits(0);
    const int n = 300;
    int accepted = 0;
    for (int i = 0; i < n; ++i) {
        StreamPacket pkt;
        pkt.data = rig.frame(payload, uint8_t(i)).data;
        accepted += rig.fld->tx(0, std::move(pkt));
        // Pace a little so credits recirculate.
        if (i % 32 == 31)
            rig.eq.run_until(rig.eq.now() + sim::microseconds(20));
    }
    rig.eq.run();

    EXPECT_EQ(int(rig.wire.size()), accepted);
    // No duplicates: embedded sequence numbers must be unique.
    std::set<std::string> seen;
    for (const auto& p : rig.wire)
        EXPECT_TRUE(seen.emplace(p.data.begin(), p.data.end()).second)
            << "duplicate frame";

    TxCredits after = rig.fld->tx_credits(0);
    EXPECT_EQ(after.buffer_bytes, before.buffer_bytes);
    EXPECT_EQ(after.descriptors, before.descriptors);
    EXPECT_EQ(rig.fld->tx_xlt().size(), 0u)
        << "cuckoo table must drain after completion";
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSignals, FldTxSweep,
    ::testing::Combine(::testing::Values<size_t>(26, 100, 522, 1458,
                                                 1900),
                       ::testing::Values<uint32_t>(1, 4, 16, 64)));

// ---------------------------------------------------------------------
// Sweep frame size x burst: RX conservation through MPRQ + recycling.
// ---------------------------------------------------------------------

class FldRxSweep
    : public ::testing::TestWithParam<std::tuple<size_t, int>>
{};

TEST_P(FldRxSweep, AllPacketsDeliveredIntactWithRecycling)
{
    auto [payload, count] = GetParam();
    ParamRig rig(FldConfig{});

    std::vector<net::Packet> sent;
    for (int i = 0; i < count; ++i) {
        net::Packet pkt = rig.frame(payload, uint8_t(i));
        sent.push_back(pkt);
        rig.eq.schedule_at(rig.eq.now() + sim::nanoseconds(600) *
                                              uint64_t(i),
                           [&rig, pkt]() mutable {
                               rig.nic->uplink().deliver(
                                   std::move(pkt));
                           });
    }
    rig.eq.run();

    ASSERT_EQ(int(rig.rx.size()), count);
    for (int i = 0; i < count; ++i) {
        const auto& pkt = rig.rx[size_t(i)];
        EXPECT_EQ(pkt.data, sent[size_t(i)].data) << "packet " << i;
        EXPECT_TRUE(pkt.meta.l4_csum_ok);
    }
    EXPECT_EQ(rig.nic->stats().drops_no_buffer, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBursts, FldRxSweep,
    ::testing::Combine(::testing::Values<size_t>(18, 300, 1472, 2800),
                       ::testing::Values(40, 400)));

// ---------------------------------------------------------------------
// Sweep FLD queue count: per-queue isolation of the buffer windows.
// ---------------------------------------------------------------------

class FldQueueSweep : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(FldQueueSweep, QueuesShareThePoolWithoutInterference)
{
    uint32_t queues = GetParam();
    FldConfig cfg;
    cfg.num_tx_queues = queues;
    // Shrink per-queue windows so they must share the physical pool.
    cfg.tx_vwindow_bytes = 64 * 1024;
    ParamRig rig(cfg, /*q0_rx_buffers=*/4);

    // Bind every queue to its own NIC SQ.
    std::vector<runtime::FldRuntime::EthQueue> qs = {rig.q0};
    for (uint32_t q = 1; q < queues; ++q)
        qs.push_back(rig.rt->create_eth_queue(rig.fld_vport, q, 1));

    const int per_queue = 60;
    int accepted = 0;
    for (int i = 0; i < per_queue; ++i) {
        for (uint32_t q = 0; q < queues; ++q) {
            StreamPacket pkt;
            pkt.data =
                rig.frame(600, uint8_t(q * per_queue + i)).data;
            accepted += rig.fld->tx(q, std::move(pkt));
        }
        if (i % 16 == 15)
            rig.eq.run_until(rig.eq.now() + sim::microseconds(30));
    }
    rig.eq.run();
    EXPECT_EQ(int(rig.wire.size()), accepted);
    EXPECT_GT(accepted, int(queues) * per_queue * 3 / 4);
    for (uint32_t q = 0; q < queues; ++q) {
        EXPECT_EQ(rig.fld->tx_credits(q).buffer_bytes, 64u * 1024)
            << "queue " << q;
    }
}

INSTANTIATE_TEST_SUITE_P(QueueCounts, FldQueueSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------
// Ring wraparound: a tiny virtual ring must wrap cleanly many times.
// ---------------------------------------------------------------------

TEST(FldRingWrap, TinyRingWrapsCleanly)
{
    FldConfig cfg;
    cfg.tx_ring_entries = 64;
    cfg.tx_desc_pool = 64;
    ParamRig rig(cfg);

    const int n = 500; // ~8 full ring revolutions
    int accepted = 0;
    for (int i = 0; i < n; ++i) {
        StreamPacket pkt;
        pkt.data = rig.frame(200, uint8_t(i)).data;
        accepted += rig.fld->tx(0, std::move(pkt));
        if (i % 8 == 7)
            rig.eq.run_until(rig.eq.now() + sim::microseconds(10));
    }
    rig.eq.run();
    EXPECT_EQ(int(rig.wire.size()), accepted);
    EXPECT_GT(accepted, 400);
    EXPECT_EQ(rig.fld->tx_xlt().size(), 0u);
    EXPECT_EQ(rig.fld->tx_credits(0).descriptors, 64u);
}

// ---------------------------------------------------------------------
// Echo soak: sustained bidirectional traffic with wraps everywhere.
// ---------------------------------------------------------------------

TEST(FldSoak, BidirectionalEchoConservesEverything)
{
    FldConfig cfg;
    cfg.tx_ring_entries = 128;
    cfg.cq_entries = 128; // CQ rings wrap many times
    ParamRig rig(cfg);
    rig.fld->set_rx_handler([&rig](StreamPacket&& pkt) {
        rig.rx.push_back(pkt);
        StreamPacket out;
        out.data = std::move(pkt.data);
        rig.fld->tx(0, std::move(out));
    });

    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        net::Packet pkt = rig.frame(400, uint8_t(i));
        rig.eq.schedule_at(rig.eq.now() +
                               sim::nanoseconds(400) * uint64_t(i),
                           [&rig, pkt]() mutable {
                               rig.nic->uplink().deliver(
                                   std::move(pkt));
                           });
    }
    rig.eq.run();
    EXPECT_EQ(int(rig.rx.size()), n);
    EXPECT_EQ(int(rig.wire.size()), n);
    EXPECT_EQ(rig.nic->stats().drops_no_buffer, 0u);
    EXPECT_EQ(rig.fld->stats().tx_rejected, 0u);
}

} // namespace
} // namespace fld::core
