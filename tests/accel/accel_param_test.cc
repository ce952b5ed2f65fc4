/**
 * @file
 * Parameterized accelerator sweeps: ZUC request geometry against the
 * crypto library ground truth, defragmentation across MTUs and
 * interleavings, IoT multi-tenant isolation, and determinism of the
 * whole simulation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "accel/defrag_accel.h"
#include "accel/iot_auth.h"
#include "accel/zuc_accel.h"
#include "apps/scenarios.h"
#include "net/ip_reassembly.h"

namespace fld::accel {
namespace {

/** FLD + memory-stub NIC rig (no timing dependencies). */
struct Rig
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint nic_stub{"nic-stub", 1 << 20};
    std::unique_ptr<core::FlexDriver> fld;

    Rig()
    {
        pcie::PortId fld_port = fabric.add_port("fld", 50.0, 0);
        fld = std::make_unique<core::FlexDriver>(
            "fld", eq, fabric, fld_port, 0x8000'0000, 0x4000'0000);
        fabric.attach(fld_port, fld.get(), 0x8000'0000,
                      core::FlexDriver::kBarSize);
        pcie::PortId stub_port = fabric.add_port("stub", 50.0, 0);
        fabric.attach(stub_port, &nic_stub, 0x4000'0000, 1 << 20);
        fld->bind_tx_queue(0, 1, 1, false);
    }

    /** Read back the AFU's i-th transmitted message via the BAR. */
    std::vector<uint8_t> tx_message(uint32_t slot)
    {
        uint8_t raw[nic::kWqeStride];
        fld->bar_read(core::FlexDriver::kTxRingRegion +
                          uint64_t(slot) * nic::kWqeStride,
                      raw, nic::kWqeStride);
        nic::Wqe wqe = nic::Wqe::decode(raw);
        std::vector<uint8_t> out(wqe.byte_count);
        if (wqe.byte_count)
            fld->bar_read(wqe.addr - 0x8000'0000, out.data(),
                          out.size());
        return out;
    }
};

// ---------------------------------------------------------------------
// ZUC: request geometry sweep against library ground truth.
// ---------------------------------------------------------------------

class ZucGeometrySweep
    : public ::testing::TestWithParam<std::tuple<size_t, int>>
{};

TEST_P(ZucGeometrySweep, CiphertextMatchesLibrary)
{
    auto [payload_len, packets] = GetParam();
    Rig rig;
    ZucAccelerator zuc(rig.eq, *rig.fld, 0);

    ZucHeader hdr;
    hdr.op = ZucOp::Eea3Crypt;
    hdr.count = 7;
    hdr.bearer = 11;
    hdr.direction = 1;
    for (size_t i = 0; i < hdr.key.size(); ++i)
        hdr.key[i] = uint8_t(0x90 + i);
    std::vector<uint8_t> plaintext(payload_len);
    std::iota(plaintext.begin(), plaintext.end(), 1);
    hdr.length_bits = uint32_t(payload_len * 8);

    // Deliver the request split into `packets` MPRQ completions.
    std::vector<uint8_t> msg = zuc_request(hdr, plaintext);
    size_t chunk = (msg.size() + packets - 1) / size_t(packets);
    uint32_t off = 0;
    for (int p = 0; p < packets; ++p) {
        size_t take = std::min(chunk, msg.size() - off);
        core::StreamPacket pkt;
        pkt.data.assign(msg.begin() + off, msg.begin() + off + take);
        pkt.meta.is_rdma = true;
        pkt.meta.msg_id = 5;
        pkt.meta.msg_offset = off;
        pkt.meta.msg_last = p + 1 == packets;
        zuc.inject(std::move(pkt));
        off += uint32_t(take);
    }
    rig.eq.run();

    ASSERT_EQ(zuc.requests_served(), 1u);
    auto resp = rig.tx_message(0);
    auto parsed = zuc_parse(resp);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first.status, ZucStatus::Ok);

    std::vector<uint8_t> expect = plaintext;
    crypto::eea3_crypt(hdr.key, hdr.count, hdr.bearer, hdr.direction,
                       expect.data(), hdr.length_bits);
    EXPECT_EQ(parsed->second, expect);
}

INSTANTIATE_TEST_SUITE_P(
    GeometryGrid, ZucGeometrySweep,
    ::testing::Combine(::testing::Values<size_t>(16, 512, 1500, 4000),
                       ::testing::Values(1, 3, 7)));

// ---------------------------------------------------------------------
// Defrag: MTU sweep with interleaved datagrams.
// ---------------------------------------------------------------------

class DefragMtuSweep : public ::testing::TestWithParam<size_t>
{};

TEST_P(DefragMtuSweep, InterleavedDatagramsReassemble)
{
    size_t mtu = GetParam();
    Rig rig;
    DefragAccelerator defrag(rig.eq, *rig.fld, 0);

    // Three datagrams of different sizes, fragments interleaved.
    std::vector<net::Packet> originals;
    std::vector<net::Packet> frags;
    for (uint16_t id = 1; id <= 3; ++id) {
        std::vector<uint8_t> payload(1000 + 800 * id);
        std::iota(payload.begin(), payload.end(), uint8_t(id));
        net::Packet dg = net::PacketBuilder()
                             .eth({2, 0, 0, 0, 0, 1},
                                  {2, 0, 0, 0, 0, 2})
                             .ipv4(1, 2, net::kIpProtoUdp, id)
                             .udp(5, 6)
                             .payload(payload)
                             .build();
        originals.push_back(dg);
        for (auto& f : net::ip_fragment(dg, mtu))
            frags.push_back(std::move(f));
    }
    // Round-robin interleave by rotating.
    std::rotate(frags.begin(), frags.begin() + long(frags.size() / 2),
                frags.end());

    for (auto& f : frags) {
        core::StreamPacket pkt;
        pkt.data = std::move(f.data);
        pkt.meta.next_table = 9;
        defrag.inject(std::move(pkt));
    }
    rig.eq.run();

    EXPECT_EQ(defrag.stats().packets_out, 3u);
    // Each reassembled datagram must byte-match one original.
    for (uint32_t slot = 0; slot < 3; ++slot) {
        std::vector<uint8_t> got = rig.tx_message(slot);
        EXPECT_TRUE(std::any_of(originals.begin(), originals.end(),
                                [&](const auto& o) { return o.data == got; }))
            << "slot " << slot;
    }
}

INSTANTIATE_TEST_SUITE_P(Mtus, DefragMtuSweep,
                         ::testing::Values<size_t>(576, 1000, 1450));

// ---------------------------------------------------------------------
// IoT: tenant isolation of the key table.
// ---------------------------------------------------------------------

class IotTenantSweep : public ::testing::TestWithParam<int>
{};

TEST_P(IotTenantSweep, KeysNeverCross)
{
    int tenants = GetParam();
    Rig rig;
    IotAuthAccelerator auth(rig.eq, *rig.fld, 0);
    for (int t = 1; t <= tenants; ++t)
        auth.set_tenant_key(uint32_t(t),
                            "tenant-key-" + std::to_string(t));

    // Each tenant sends one token signed with every tenant's key;
    // only the matching one may pass.
    for (int owner = 1; owner <= tenants; ++owner) {
        for (int signer = 1; signer <= tenants; ++signer) {
            std::string token = net::jwt_sign_hs256(
                R"({"x":1})", "tenant-key-" + std::to_string(signer));
            net::CoapMessage msg;
            msg.payload.assign(token.begin(), token.end());
            auto coap = msg.encode();
            net::Packet pkt =
                net::PacketBuilder()
                    .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                    .ipv4(1, 2, net::kIpProtoUdp)
                    .udp(777, net::kCoapPort)
                    .payload(coap)
                    .build();
            core::StreamPacket sp;
            sp.data = std::move(pkt.data);
            sp.meta.context_id = uint32_t(owner);
            auth.inject(std::move(sp));
        }
    }
    rig.eq.run();

    EXPECT_EQ(auth.auth_stats().valid, uint64_t(tenants));
    EXPECT_EQ(auth.auth_stats().invalid_signature,
              uint64_t(tenants) * uint64_t(tenants - 1));
}

INSTANTIATE_TEST_SUITE_P(TenantCounts, IotTenantSweep,
                         ::testing::Values(1, 3, 6));

// ---------------------------------------------------------------------
// Determinism: identical runs produce identical results.
// ---------------------------------------------------------------------

TEST(Determinism, RepeatedScenarioRunsAreBitIdentical)
{
    auto run_once = [] {
        apps::PktGenConfig g;
        g.frame_size = 200;
        g.window = 16;
        g.measure_rtt = true;
        auto s = apps::make_fld_echo(true, g);
        s->gen->start(sim::microseconds(100), sim::milliseconds(2));
        s->tb->eq.run();
        return std::make_tuple(s->gen->tx_count(), s->gen->rx_count(),
                               s->gen->rtt_us().mean(),
                               s->tb->fld->stats().cqes,
                               s->tb->eq.now());
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a, b) << "simulation must be deterministic";
}

} // namespace
} // namespace fld::accel
