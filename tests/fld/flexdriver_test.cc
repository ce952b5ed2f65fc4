/**
 * @file
 * FLD <-> NIC integration: the NIC DMAs against FLD's BAR (synthesized
 * WQEs, translated payload reads, CQE writes) while the accelerator
 * talks AXI-stream. Wired up by the FLD runtime exactly as the control
 * plane would (§5.3).
 */
#include "fld/flexdriver.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "net/checksum.h"
#include "net/headers.h"
#include "nic/nic.h"
#include "runtime/fld_runtime.h"

namespace fld::core {
namespace {

using nic::FlowMatch;
using net::ipv4_addr;

constexpr uint64_t kHostBase = 0x0000'0000;
constexpr uint64_t kNicBar = 0x4000'0000;
constexpr uint64_t kFldBar = 0x8000'0000;

struct FldTestbed
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

    explicit FldTestbed(FldConfig cfg = {})
    {
        host_port =
            fabric.add_port("host.pcie", 50.0, sim::nanoseconds(150));
        fabric.attach(host_port, &hostmem, kHostBase, 32 << 20);

        pcie::PortId nic_port =
            fabric.add_port("nic.pcie", 50.0, sim::nanoseconds(150));
        nic = std::make_unique<nic::NicDevice>("nic", eq, fabric,
                                               nic_port);
        fabric.attach(nic_port, nic.get(), kNicBar,
                      nic::NicDevice::kBarSize);

        pcie::PortId fld_port =
            fabric.add_port("fld.pcie", 50.0, sim::nanoseconds(150));
        fld = std::make_unique<FlexDriver>("fld", eq, fabric, fld_port,
                                           kFldBar, kNicBar, cfg);
        fabric.attach(fld_port, fld.get(), kFldBar,
                      FlexDriver::kBarSize);

        rt = std::make_unique<runtime::FldRuntime>(
            *nic, *fld, hostmem, 16 << 20, 8 << 20);

        fld_vport = nic->add_vport();
        q0 = rt->create_eth_queue(fld_vport, 0, /*rx_buffers=*/8);

        // Egress: accelerator traffic goes to the wire by default.
        FlowMatch from_fld;
        from_fld.in_vport = fld_vport;
        nic->add_rule(0, 0, from_fld,
                      {nic::fwd_vport(nic::kUplinkVport)});

        fld->set_rx_handler(
            [this](StreamPacket&& pkt) { rx.push_back(std::move(pkt)); });
        nic->uplink().set_tx_hook(
            [this](net::Packet&& pkt) { wire.push_back(std::move(pkt)); });

        eq.run(); // settle rx descriptor prefetch
    }

    /** Steer uplink ingress straight into the FLD-E queue. */
    void steer_ingress_to_fld()
    {
        FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        nic->add_rule(0, 0, from_wire, {nic::fwd_queue(q0.rqn)});
    }

    net::Packet make_frame(size_t payload, uint16_t dport = 9000)
    {
        std::vector<uint8_t> data(payload);
        std::iota(data.begin(), data.end(), 3);
        return net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(ipv4_addr(10, 9, 0, 1), ipv4_addr(10, 9, 0, 2),
                  net::kIpProtoUdp)
            .udp(3333, dport)
            .payload(data)
            .build();
    }
};

TEST(FlexDriverTx, AcceleratorFrameReachesWire)
{
    FldTestbed tb;
    net::Packet frame = tb.make_frame(700);

    StreamPacket pkt;
    pkt.data = frame.data;
    ASSERT_TRUE(tb.fld->tx(0, std::move(pkt)));
    tb.eq.run();

    ASSERT_EQ(tb.wire.size(), 1u);
    EXPECT_EQ(tb.wire[0].data, frame.data);
    EXPECT_EQ(tb.fld->stats().tx_packets, 1u);
    EXPECT_GT(tb.fld->stats().wqe_reads, 0u)
        << "NIC must have read a synthesized WQE";
}

TEST(FlexDriverTx, CreditsDropAndReturn)
{
    FldTestbed tb;
    TxCredits before = tb.fld->tx_credits(0);
    EXPECT_GT(before.descriptors, 0u);
    EXPECT_EQ(before.buffer_bytes, 256u * 1024);

    StreamPacket pkt;
    pkt.data = tb.make_frame(1000).data;
    ASSERT_TRUE(tb.fld->tx(0, std::move(pkt)));

    TxCredits during = tb.fld->tx_credits(0);
    EXPECT_LT(during.buffer_bytes, before.buffer_bytes);

    uint32_t credited_descs = 0;
    tb.fld->set_credit_handler(
        [&](uint32_t, uint32_t descs, uint32_t) {
            credited_descs += descs;
        });
    tb.eq.run();

    TxCredits after = tb.fld->tx_credits(0);
    EXPECT_EQ(after.buffer_bytes, before.buffer_bytes);
    EXPECT_EQ(after.descriptors, before.descriptors);
    EXPECT_EQ(credited_descs, 1u);
}

TEST(FlexDriverTx, RejectsWhenBufferExhausted)
{
    FldTestbed tb;
    // Synchronously queue frames without running the simulator: no
    // completions can return, so the 256 KiB window must fill up.
    int accepted = 0;
    bool rejected = false;
    for (int i = 0; i < 1000; ++i) {
        StreamPacket pkt;
        pkt.data = tb.make_frame(1400).data;
        if (!tb.fld->tx(0, std::move(pkt))) {
            rejected = true;
            break;
        }
        ++accepted;
    }
    ASSERT_TRUE(rejected);
    // ~256 KiB / ~1.5 KiB frames (chunk-rounded) ~ 170 accepts.
    EXPECT_GT(accepted, 150);
    EXPECT_LT(accepted, 200);
    EXPECT_GT(tb.fld->stats().tx_rejected, 0u);

    // After the NIC drains everything, credits recover fully.
    tb.eq.run();
    EXPECT_EQ(tb.fld->tx_credits(0).buffer_bytes, 256u * 1024);
    EXPECT_EQ(int(tb.wire.size()), accepted);
}

TEST(FlexDriverRx, WireToAcceleratorWithMetadata)
{
    FldTestbed tb;
    tb.steer_ingress_to_fld();

    net::Packet frame = tb.make_frame(600);
    tb.nic->uplink().deliver(net::Packet(frame));
    tb.eq.run();

    ASSERT_EQ(tb.rx.size(), 1u);
    EXPECT_EQ(tb.rx[0].data, frame.data);
    EXPECT_TRUE(tb.rx[0].meta.l3_csum_ok);
    EXPECT_TRUE(tb.rx[0].meta.l4_csum_ok);
    EXPECT_FALSE(tb.rx[0].meta.is_rdma);
    EXPECT_EQ(tb.fld->stats().rx_packets, 1u);
}

TEST(FlexDriverRx, ManyPacketsRecycleBuffers)
{
    FldTestbed tb;
    tb.steer_ingress_to_fld();

    // Capacity: 8 buffers x 16 strides = 128 packets of <= 2 KiB.
    // Send 1000 paced at 25 Gbps-ish arrival spacing: recycling must
    // keep the queue alive.
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        tb.eq.schedule_at(tb.eq.now() + sim::nanoseconds(300) * uint64_t(i), [&tb, i] {
            tb.nic->uplink().deliver(tb.make_frame(800, uint16_t(i)));
        });
    }
    tb.eq.run();

    EXPECT_EQ(int(tb.rx.size()), n);
    EXPECT_GT(tb.fld->stats().buffers_recycled, 50u);
    EXPECT_EQ(tb.nic->stats().drops_no_buffer, 0u);
}

TEST(FlexDriverRx, StaleCompletionRecyclesNothing)
{
    // One stride per buffer: every frame consumes a whole buffer.
    FldConfig cfg;
    cfg.rx_strides_per_buffer = 1;
    FldTestbed tb(cfg);
    tb.steer_ingress_to_fld();
    auto deliver = [&tb](int frames) {
        for (int i = 0; i < frames; ++i) {
            tb.nic->uplink().deliver(tb.make_frame(200, uint16_t(i)));
            tb.eq.run();
        }
    };
    deliver(20);
    ASSERT_EQ(tb.rx.size(), 20u);
    uint64_t recycled = tb.fld->stats().buffers_recycled;
    EXPECT_EQ(recycled, 19u);

    // A repeated completion for buffer 18: the NIC has moved on to
    // buffer 19, so 18 lies outside the posted window.
    nic::Cqe stale;
    stale.opcode = nic::CqeOpcode::Rx;
    stale.qpn = tb.q0.rqn;
    stale.byte_count = 64;
    stale.rq_wqe_index = 18;
    uint8_t buf[nic::kCqeStride];
    stale.encode(buf);
    tb.fld->bar_write(FlexDriver::kCqRegion +
                          uint64_t(cfg.cq_entries) * nic::kCqeStride,
                      buf, sizeof buf);
    tb.eq.run();
    EXPECT_EQ(tb.fld->stats().buffers_recycled, recycled);
    EXPECT_EQ(tb.rx.size(), 20u);
    EXPECT_EQ(tb.fld->stats().rx_stale_dropped, 1u);

    size_t before = tb.rx.size();
    deliver(20);
    EXPECT_EQ(tb.rx.size(), before + 20);
    EXPECT_EQ(tb.nic->stats().drops_no_buffer, 0u);
}

TEST(FlexDriverEcho, RoundTripThroughAccelerator)
{
    FldTestbed tb;
    tb.steer_ingress_to_fld();
    tb.fld->set_rx_handler([&](StreamPacket&& pkt) {
        tb.rx.push_back(pkt);
        tb.fld->tx(0, std::move(pkt)); // echo
    });

    const int n = 200;
    for (int i = 0; i < n; ++i) {
        tb.eq.schedule_at(tb.eq.now() + sim::nanoseconds(300) * uint64_t(i), [&tb, i] {
            tb.nic->uplink().deliver(tb.make_frame(500, uint16_t(i)));
        });
    }
    tb.eq.run();

    EXPECT_EQ(int(tb.rx.size()), n);
    ASSERT_EQ(int(tb.wire.size()), n);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(tb.wire[i].data, tb.rx[i].data);
}

TEST(FldRingWrap, SixteenBitIndicesWrapInOrder)
{
    // Small rings, so 70,000 echoed frames wrap both the 16-bit WQE
    // counter and the 16-bit RX buffer index.
    FldConfig cfg;
    cfg.tx_ring_entries = 64;
    cfg.rx_strides_per_buffer = 1;
    FldTestbed tb(cfg); // 8 RX buffers
    tb.steer_ingress_to_fld();
    constexpr size_t kSeqOffset =
        net::kEthHeaderLen + net::kIpv4HeaderLen + net::kUdpHeaderLen;
    auto seq_of = [](const std::vector<uint8_t>& data) {
        uint32_t seq;
        std::memcpy(&seq, data.data() + kSeqOffset, sizeof seq);
        return seq;
    };
    uint32_t next_rx = 0;
    uint32_t echoed = 0;
    bool in_order = true;
    tb.fld->set_rx_handler([&](StreamPacket&& pkt) {
        in_order = in_order && seq_of(pkt.data) == next_rx++;
        tb.fld->tx(0, std::move(pkt));
    });
    tb.nic->uplink().set_tx_hook([&](net::Packet&& pkt) {
        in_order = in_order && seq_of(pkt.data) == echoed++;
    });

    const uint32_t n = 70'000;
    for (uint32_t sent = 0; sent < n;) {
        for (uint32_t i = 0; i < 6 && sent < n; ++i, ++sent) {
            net::Packet frame = tb.make_frame(64 - kSeqOffset);
            std::memcpy(frame.bytes() + kSeqOffset, &sent, sizeof sent);
            tb.nic->uplink().deliver(std::move(frame));
        }
        tb.eq.run();
    }
    EXPECT_TRUE(in_order);
    EXPECT_EQ(next_rx, n);
    EXPECT_EQ(echoed, n);
    EXPECT_EQ(tb.fld->stats().tx_rejected, 0u);
    EXPECT_EQ(tb.nic->stats().drops_no_buffer, 0u);
    EXPECT_EQ(tb.fld->tx_xlt().size(), 0u);
    EXPECT_EQ(tb.fld->tx_credits(0).descriptors, 64u);
}

TEST(FlexDriverAccelAction, NextTableResume)
{
    FldTestbed tb;
    // FLD-E high-level abstraction: wire ingress -> accel (tag 9,
    // resume at table 7); table 7 routes tagged packets to the wire.
    tb.rt->add_accel_action(0, 10, [] {
        FlowMatch m;
        m.in_vport = nic::kUplinkVport;
        return m;
    }(), tb.q0, /*context_id=*/9, /*next_table=*/7);
    FlowMatch tagged;
    tagged.flow_tag = 9;
    uint64_t resume_rule = tb.nic->add_rule(
        7, 0, tagged, {nic::fwd_vport(nic::kUplinkVport)});

    // The accelerator echoes, preserving metadata (tag + next table).
    tb.fld->set_rx_handler([&](StreamPacket&& pkt) {
        tb.rx.push_back(pkt);
        StreamPacket out;
        out.data = pkt.data;
        out.meta.context_id = pkt.meta.context_id;
        out.meta.next_table = pkt.meta.next_table;
        tb.fld->tx(0, std::move(out));
    });

    net::Packet frame = tb.make_frame(400);
    tb.nic->uplink().deliver(net::Packet(frame));
    tb.eq.run();

    ASSERT_EQ(tb.rx.size(), 1u);
    EXPECT_EQ(tb.rx[0].meta.context_id, 9u);
    EXPECT_EQ(tb.rx[0].meta.next_table, 7u);
    ASSERT_EQ(tb.wire.size(), 1u) << "packet must resume at table 7";
    EXPECT_EQ(tb.wire[0].data, frame.data);
    // The packet really went through table 7 (not the default FDB).
    bool resumed = false;
    {
        net::Packet probe = tb.make_frame(64);
        probe.meta.flow_tag = 9;
        const nic::CompiledEntry* e = tb.nic->pipeline().lookup(
            7, nic::FlowFields::of(probe, tb.fld_vport));
        ASSERT_NE(e, nullptr);
        resumed = e->rule_id == resume_rule && e->hits == 1;
    }
    EXPECT_TRUE(resumed) << "resume-table rule must have been hit";
}

TEST(FlexDriverMem, BudgetFitsOnChip)
{
    FldTestbed tb;
    const MemBudget& b = tb.fld->mem_budget();
    EXPECT_TRUE(b.fits_on_chip());
    // Prototype configuration: well under 1 MiB of on-die state.
    EXPECT_LT(b.total(), 1u << 20);
    EXPECT_EQ(b.of("tx data buffer"), 256u * 1024);
    EXPECT_EQ(b.of("rx data buffer"), 256u * 1024);
    EXPECT_EQ(b.of("tx descriptor pool (8 B compressed)"), 4096u * 8);
}

TEST(FlexDriverWqe, SynthesizedWqeMatchesCompressedState)
{
    FldTestbed tb;
    StreamPacket pkt;
    pkt.data = tb.make_frame(300).data;
    size_t len = pkt.data.size();
    ASSERT_TRUE(tb.fld->tx(0, std::move(pkt)));

    // Read the virtual ring slot 0 directly, as the NIC would.
    uint8_t raw[nic::kWqeStride];
    tb.fld->bar_read(FlexDriver::kTxRingRegion, raw, nic::kWqeStride);
    nic::Wqe wqe = nic::Wqe::decode(raw);
    EXPECT_EQ(wqe.opcode, nic::WqeOpcode::EthSend);
    EXPECT_EQ(wqe.byte_count, len);
    EXPECT_EQ(wqe.qpn, tb.q0.sqn);
    EXPECT_GE(wqe.addr, kFldBar + FlexDriver::kTxDataRegion);

    // Unposted slots synthesize NOPs.
    tb.fld->bar_read(FlexDriver::kTxRingRegion + 5 * nic::kWqeStride,
                     raw, nic::kWqeStride);
    EXPECT_EQ(nic::Wqe::decode(raw).opcode, nic::WqeOpcode::Nop);
    tb.eq.run();
}

} // namespace
} // namespace fld::core

namespace fld::core {
namespace {

TEST(FlexDriverRx, MiniCqeCompressionDeliversAll)
{
    // Enable the NIC's receive-CQE compression and stream a burst:
    // FLD must expand the mini entries and deliver every packet.
    nic::NicConfig ncfg;
    ncfg.cqe_compression = true;
    // Rebuild the testbed with the custom NIC config.
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 32 << 20};
    pcie::PortId host_port =
        fabric.add_port("host", 50.0, sim::nanoseconds(100));
    fabric.attach(host_port, &hostmem, 0, 32 << 20);
    pcie::PortId nic_port =
        fabric.add_port("nic", 100.0, sim::nanoseconds(100));
    nic::NicDevice nic("nic", eq, fabric, nic_port, ncfg);
    fabric.attach(nic_port, &nic, kNicBar, nic::NicDevice::kBarSize);
    pcie::PortId fld_port =
        fabric.add_port("fld", 50.0, sim::nanoseconds(100));
    FlexDriver fld("fld", eq, fabric, fld_port, kFldBar, kNicBar);
    fabric.attach(fld_port, &fld, kFldBar, FlexDriver::kBarSize);
    runtime::FldRuntime rt(nic, fld, hostmem, 16 << 20, 8 << 20);
    nic::VportId v = nic.add_vport();
    auto q0 = rt.create_eth_queue(v, 0, 16);

    nic::FlowMatch from_wire;
    from_wire.in_vport = nic::kUplinkVport;
    nic.add_rule(0, 0, from_wire, {nic::fwd_queue(q0.rqn)});

    std::vector<StreamPacket> rx;
    fld.set_rx_handler(
        [&](StreamPacket&& pkt) { rx.push_back(std::move(pkt)); });
    eq.run();

    const int n = 100;
    std::vector<std::vector<uint8_t>> sent;
    for (int i = 0; i < n; ++i) {
        std::vector<uint8_t> body(120, uint8_t(i));
        store_le32(body.data(), uint32_t(i));
        net::Packet pkt = net::PacketBuilder()
                              .eth({2, 0, 0, 0, 0, 1},
                                   {2, 0, 0, 0, 0, 2})
                              .ipv4(net::ipv4_addr(10, 7, 0, 1),
                                    net::ipv4_addr(10, 7, 0, 2),
                                    net::kIpProtoUdp)
                              .udp(1, 2)
                              .payload(body)
                              .build();
        sent.push_back(pkt.data);
        eq.schedule_at(eq.now() + sim::nanoseconds(80) * uint64_t(i),
                       [&nic, pkt]() mutable {
                           nic.uplink().deliver(std::move(pkt));
                       });
    }
    eq.run();

    ASSERT_EQ(int(rx.size()), n);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(rx[size_t(i)].data, sent[size_t(i)]) << i;
    // Compression actually engaged: far fewer CQ writes than packets
    // (stats_.cqes counts expanded completions; check the NIC's
    // behaviour indirectly via FLD's counters being complete).
    EXPECT_GE(fld.stats().cqes, uint64_t(n));
}

TEST(FlexDriverFlows, DirectoryLearnsDatapathFlows)
{
    FldConfig cfg;
    cfg.flow_capacity = 1024;
    cfg.flow_tenants = 16;
    FldTestbed tb(cfg);
    ASSERT_NE(tb.fld->flow_directory(), nullptr);

    const int n = 20;
    size_t tx_bytes = 0;
    for (int i = 0; i < n; ++i) {
        StreamPacket pkt;
        pkt.data = tb.make_frame(200 + i).data;
        pkt.meta.context_id = 3; // one TX flow, tenant 3
        tx_bytes += pkt.data.size();
        ASSERT_TRUE(tb.fld->tx(0, std::move(pkt)));
        tb.eq.run();
    }

    const FlowDirectory& dir = *tb.fld->flow_directory();
    EXPECT_EQ(dir.size(), 1u) << "one (context, queue) TX flow";
    EXPECT_EQ(dir.stats().auto_opens, 1u);
    EXPECT_EQ(dir.stats().packets, uint64_t(n));
    EXPECT_EQ(dir.tenant(3).packets, uint64_t(n));
    EXPECT_EQ(dir.tenant(3).bytes, tx_bytes);

    // Flow-directory SRAM shows up in the driver's memory budget and
    // still reconciles with the analytical model.
    EXPECT_GT(tb.fld->mem_budget().of("flow state pool (24 B/flow)"),
              0u);
    EXPECT_EQ(dir.reconcile_with_model(), "");

    // The heavy-hitter sketch saw the same traffic.
    ASSERT_NE(dir.sketch(), nullptr);
    EXPECT_GE(dir.sketch()->total_weight(), tx_bytes);
}

TEST(FlexDriverFlows, DisabledByDefaultCostsNothing)
{
    FldTestbed tb;
    EXPECT_EQ(tb.fld->flow_directory(), nullptr);
    EXPECT_EQ(tb.fld->mem_budget().of("flow state pool (24 B/flow)"),
              0u);
    StreamPacket pkt;
    pkt.data = tb.make_frame(100).data;
    ASSERT_TRUE(tb.fld->tx(0, std::move(pkt)));
    tb.eq.run();
    ASSERT_EQ(tb.wire.size(), 1u);
}

} // namespace
} // namespace fld::core
