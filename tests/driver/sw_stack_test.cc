/**
 * @file
 * The host TCP send path on one established FastPath connection,
 * ring-less: ARP resolution, TCP segmentation at MSS boundaries, and
 * retransmission timer arming.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "driver/fastpath.h"
#include "net/headers.h"
#include "sim/event_queue.h"

namespace fld::driver {
namespace {

constexpr net::MacAddr kPeerMac = {0x02, 0, 0, 0, 0, 0x99};
const uint32_t kPeerIp = net::ipv4_addr(192, 168, 1, 1);
constexpr uint16_t kPeerPort = 5001;
constexpr uint16_t kLocalPort = 40000;

ConnConfig
small_config()
{
    ConnConfig cfg;
    cfg.mss = 100;
    cfg.window_segments = 4;
    cfg.rto = sim::microseconds(200);
    return cfg;
}

/** One established connection to the peer; every frame the stack
 *  transmits is captured. */
struct SendRig
{
    explicit SendRig(const ConnConfig& conn = small_config())
        : fp(eq, [&] {
              FastPathConfig c;
              c.conn = conn;
              return c;
          }())
    {
        fp.set_tx([this](net::Packet&& p) {
            frames.push_back(std::move(p));
            return true;
        });
        id = fp.open_established(FastPath::kNoApp, 0, kPeerIp, kPeerPort,
                                 kLocalPort);
    }

    void send(const std::vector<uint8_t>& data)
    {
        fp.stream_send(id, data.data(), data.size());
    }
    const Connection& conn() const { return *fp.conn(id); }
    const ConnConfig& cfg() const { return fp.config().conn; }

    sim::EventQueue eq;
    FastPath fp;
    std::vector<net::Packet> frames;
    uint32_t id = FastPath::kNoConn;
};

std::vector<uint8_t>
pattern(size_t n)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = uint8_t(i * 13 + 7);
    return v;
}

/** Build the cumulative ACK the peer would send for `ack`. */
net::Packet
ack_packet(const FastPath& fp, uint32_t ack)
{
    return net::PacketBuilder()
        .eth(kPeerMac, fp.config().mac)
        .ipv4(kPeerIp, fp.config().ip, net::kIpProtoTcp)
        .tcp(kPeerPort, kLocalPort, /*seq=*/1, ack, /*flags=*/0x10)
        .build();
}

// ---------------------------------------------------------------------
// ARP resolution
// ---------------------------------------------------------------------

TEST(SwSendStack, UnresolvedPeerTriggersArpRequestAndQueues)
{
    SendRig rig;

    rig.send(pattern(250)); // 3 segments
    rig.eq.run();

    // Only the ARP request went out; data waits for the reply.
    ASSERT_EQ(rig.frames.size(), 1u);
    EXPECT_EQ(rig.conn().backlog_segments(), 3u);
    EXPECT_EQ(rig.conn().segments_sent(), 0u);
    EXPECT_EQ(rig.fp.stats().arp_requests, 1u);

    const net::Packet& req = rig.frames[0];
    net::EthHeader eth = net::EthHeader::decode(req.bytes());
    EXPECT_EQ(eth.ethertype, net::kEtherTypeArp);
    net::MacAddr bcast = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(eth.dst, bcast);

    auto arp = net::ArpHeader::decode(req.bytes() + net::kEthHeaderLen,
                                      req.size() - net::kEthHeaderLen);
    ASSERT_TRUE(arp.has_value());
    EXPECT_EQ(arp->oper, net::ArpHeader::kRequest);
    EXPECT_EQ(arp->target_ip, kPeerIp);
    EXPECT_EQ(arp->sender_ip, rig.fp.config().ip);
}

TEST(SwSendStack, ArpReplyReleasesQueuedSegments)
{
    SendRig rig;

    rig.send(pattern(250));
    ASSERT_EQ(rig.frames.size(), 1u); // the ARP request

    net::ArpHeader reply;
    reply.oper = net::ArpHeader::kReply;
    reply.sender_mac = kPeerMac;
    reply.sender_ip = kPeerIp;
    reply.target_mac = rig.fp.config().mac;
    reply.target_ip = rig.fp.config().ip;
    net::EthHeader eth;
    eth.src = kPeerMac;
    eth.dst = rig.fp.config().mac;
    eth.ethertype = net::kEtherTypeArp;
    net::Packet frame;
    frame.data.resize(net::kEthHeaderLen + net::kArpLen);
    eth.encode(frame.bytes());
    reply.encode(frame.bytes() + net::kEthHeaderLen);

    // Transmission is synchronous on resolution.
    rig.fp.on_rx(std::move(frame));

    EXPECT_TRUE(rig.fp.resolved(kPeerIp));
    ASSERT_EQ(rig.frames.size(), 4u); // request + 3 data segments
    for (size_t i = 1; i < rig.frames.size(); ++i) {
        net::EthHeader h = net::EthHeader::decode(rig.frames[i].bytes());
        EXPECT_EQ(h.dst, kPeerMac) << "segment " << i;
    }
    // Exactly one request even though three segments were waiting.
    EXPECT_EQ(rig.fp.stats().arp_requests, 1u);
}

TEST(SwSendStack, StaticArpEntrySkipsResolution)
{
    SendRig rig;
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(50));
    ASSERT_EQ(rig.frames.size(), 1u);
    net::ParsedPacket pp = net::parse(rig.frames[0]);
    ASSERT_TRUE(pp.tcp.has_value());
    EXPECT_EQ(rig.fp.stats().arp_requests, 0u);
}

// ---------------------------------------------------------------------
// TCP segmentation
// ---------------------------------------------------------------------

TEST(SwSendStack, SegmentsAtMssBoundaries)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg(); // mss = 100
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    std::vector<uint8_t> data = pattern(3 * cfg.mss + 7);
    rig.send(data);

    ASSERT_EQ(rig.frames.size(), 4u);
    uint32_t expect_seq = 1;
    size_t off = 0;
    for (size_t i = 0; i < rig.frames.size(); ++i) {
        net::ParsedPacket pp = net::parse(rig.frames[i]);
        ASSERT_TRUE(pp.tcp.has_value()) << "segment " << i;
        EXPECT_EQ(pp.tcp->seq, expect_seq) << "segment " << i;
        size_t want = (i < 3) ? cfg.mss : 7u;
        ASSERT_EQ(pp.payload_len, want) << "segment " << i;
        EXPECT_EQ(0, std::memcmp(rig.frames[i].bytes() + pp.payload_offset,
                                 data.data() + off, want))
            << "segment " << i;
        // PSH marks the end of the application write, nothing earlier.
        EXPECT_EQ((pp.tcp->flags & 0x08) != 0, i == 3) << "segment " << i;
        expect_seq += uint32_t(want);
        off += want;
    }
    EXPECT_EQ(rig.conn().snd_nxt(), 1u + uint32_t(data.size()));
}

TEST(SwSendStack, ExactMultipleOfMssHasNoEmptyTail)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg();
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(2 * cfg.mss));
    ASSERT_EQ(rig.frames.size(), 2u);
    net::ParsedPacket last = net::parse(rig.frames[1]);
    EXPECT_EQ(last.payload_len, cfg.mss);
    EXPECT_TRUE(last.tcp->flags & 0x08); // still PSH-terminated
}

TEST(SwSendStack, WindowLimitsInFlightSegments)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg(); // window = 4 segments
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(6 * cfg.mss));
    EXPECT_EQ(rig.frames.size(), 4u);
    EXPECT_EQ(rig.conn().unacked_segments(), 4u);
    EXPECT_EQ(rig.conn().backlog_segments(), 2u);

    // Cumulative ACK for the first two segments opens the window.
    rig.fp.on_rx(ack_packet(rig.fp, 1 + 2 * cfg.mss));
    EXPECT_EQ(rig.frames.size(), 6u);
    EXPECT_EQ(rig.conn().snd_una(), 1 + 2 * cfg.mss);
    EXPECT_EQ(rig.conn().backlog_segments(), 0u);
}

// ---------------------------------------------------------------------
// Retransmission timer
// ---------------------------------------------------------------------

TEST(SwSendStack, TimerArmsOnFirstUnackedSegment)
{
    SendRig rig;
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    EXPECT_FALSE(rig.conn().timer_armed());
    rig.send(pattern(50));
    EXPECT_TRUE(rig.conn().timer_armed());
}

TEST(SwSendStack, TimeoutRetransmitsWholeWindow)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg();
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(2 * cfg.mss)); // 2 segments, both in window
    ASSERT_EQ(rig.frames.size(), 2u);

    rig.eq.run_until(cfg.rto + sim::microseconds(1));
    // Go-back-N: both segments resent, same sequence numbers.
    ASSERT_EQ(rig.frames.size(), 4u);
    EXPECT_EQ(rig.conn().retransmits(), 2u);
    EXPECT_EQ(net::parse(rig.frames[2]).tcp->seq, 1u);
    EXPECT_EQ(net::parse(rig.frames[3]).tcp->seq, 1u + cfg.mss);
    // And the timer is armed again for the retransmission.
    EXPECT_TRUE(rig.conn().timer_armed());
}

TEST(SwSendStack, AckDisarmsTimerNoSpuriousRetransmit)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg();
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(cfg.mss));
    ASSERT_EQ(rig.frames.size(), 1u);

    // ACK everything just before the timer would fire.
    rig.eq.run_until(cfg.rto - sim::microseconds(10));
    rig.fp.on_rx(ack_packet(rig.fp, 1 + cfg.mss));
    EXPECT_EQ(rig.conn().unacked_segments(), 0u);
    EXPECT_FALSE(rig.conn().timer_armed());

    // The already-scheduled timeout must hit the generation check.
    rig.eq.run();
    EXPECT_EQ(rig.frames.size(), 1u);
    EXPECT_EQ(rig.conn().retransmits(), 0u);
}

TEST(SwSendStack, StaleTimerDoesNotRetransmitAfterProgress)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg();
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(cfg.mss)); // seg 1, timer armed at t=0
    rig.eq.run_until(cfg.rto / 2);
    rig.fp.on_rx(ack_packet(rig.fp, 1 + cfg.mss)); // progress
    rig.send(pattern(cfg.mss));                    // seg 2, fresh timer

    // Past the ORIGINAL deadline: the stale timer must not fire.
    rig.eq.run_until(cfg.rto + sim::microseconds(1));
    EXPECT_EQ(rig.conn().retransmits(), 0u);

    // The fresh timer still protects segment 2.
    rig.eq.run_until(cfg.rto / 2 + cfg.rto + sim::microseconds(1));
    EXPECT_EQ(rig.conn().retransmits(), 1u);
    EXPECT_EQ(net::parse(rig.frames.back()).tcp->seq, 1u + cfg.mss);
}

TEST(SwSendStack, DuplicateAckIsIgnored)
{
    SendRig rig;
    const ConnConfig& cfg = rig.cfg();
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(2 * cfg.mss));
    rig.fp.on_rx(ack_packet(rig.fp, 1 + cfg.mss));
    uint32_t una = rig.conn().snd_una();
    rig.fp.on_rx(ack_packet(rig.fp, 1 + cfg.mss)); // duplicate
    rig.fp.on_rx(ack_packet(rig.fp, 1));           // stale
    EXPECT_EQ(rig.conn().snd_una(), una);
    EXPECT_EQ(rig.conn().unacked_segments(), 1u);
}

TEST(SwSendStack, MaxRetriesResetsConnection)
{
    ConnConfig cfg = small_config();
    cfg.max_retries = 2;
    SendRig rig(cfg);
    rig.fp.add_arp_entry(kPeerIp, kPeerMac);

    rig.send(pattern(cfg.mss));
    rig.eq.run(); // no ACK ever: retry, retry, reset
    EXPECT_EQ(rig.conn().retransmits(), 2u);
    EXPECT_EQ(rig.conn().resets(), 1u);
    EXPECT_EQ(rig.conn().unacked_segments(), 0u);
}

} // namespace
} // namespace fld::driver
