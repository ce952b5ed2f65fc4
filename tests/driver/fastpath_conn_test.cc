/**
 * @file
 * Connection-lifecycle tests for the host fast path: handshake state
 * progression, randomized open/close/reset interleavings across 1200
 * connections checked against a shadow state-machine oracle, and the
 * per-flow isolation regressions (per-connection retransmit timers,
 * per-next-hop ARP parking) that the old single-connection
 * SoftwareSendStack design could not provide.
 */
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "apps/app_emu.h"
#include "driver/fastpath.h"
#include "net/headers.h"
#include "sim/event_queue.h"

using namespace fld;
using driver::ConnState;
using driver::CtrlMsg;
using driver::FastPath;

namespace {

constexpr uint32_t kClientIp = net::ipv4_addr(10, 9, 0, 2);
constexpr uint32_t kServerIp = net::ipv4_addr(10, 9, 0, 1);
constexpr net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 2};
constexpr net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 1};
constexpr uint16_t kListenPort = 7000;
constexpr uint8_t kAck = 0x10;

/** Two stacks joined by a half-microsecond direct wire, with per-port
 *  frame cutting and wire-level duplicate-transmission tracking. */
struct DirectPair
{
    sim::EventQueue eq;
    FastPath client;
    FastPath server;
    std::set<uint16_t> cut; ///< client ports whose frames vanish
    uint64_t dropped = 0;
    /** Per client-port count of frames whose (dir, seq, ack, flags,
     *  len) was already seen on the wire — i.e., retransmissions. */
    std::map<uint16_t, uint64_t> wire_dups;

    explicit DirectPair(driver::ConnConfig conn = {})
        : client(eq, cfg(kCliMac, kClientIp, conn)),
          server(eq, cfg(kSrvMac, kServerIp, conn))
    {
        client.set_tx([this](net::Packet&& f) {
            return forward(std::move(f), /*to_server=*/true);
        });
        server.set_tx([this](net::Packet&& f) {
            return forward(std::move(f), /*to_server=*/false);
        });
        client.add_arp_entry(kServerIp, kSrvMac);
        server.add_arp_entry(kClientIp, kCliMac);
    }

    static driver::FastPathConfig cfg(const net::MacAddr& mac,
                                      uint32_t ip,
                                      driver::ConnConfig conn)
    {
        driver::FastPathConfig c;
        c.mac = mac;
        c.ip = ip;
        c.conn = conn;
        return c;
    }

    bool forward(net::Packet&& f, bool to_server)
    {
        net::ParsedPacket pp = net::parse(f);
        if (pp.tcp) {
            uint16_t cport = to_server ? pp.tcp->sport : pp.tcp->dport;
            auto sig = std::make_tuple(to_server, pp.tcp->seq,
                                       pp.tcp->ack, pp.tcp->flags,
                                       uint32_t(pp.payload_len));
            if (!seen_[cport].insert(sig).second)
                ++wire_dups[cport];
            if (cut.count(cport)) {
                ++dropped;
                return true; // swallowed by the wire
            }
        }
        FastPath& dst = to_server ? server : client;
        eq.schedule_in(sim::nanoseconds(500),
                       [&dst, f = std::move(f)]() mutable {
                           dst.on_rx(std::move(f));
                       });
        return true;
    }

  private:
    std::map<uint16_t,
             std::set<std::tuple<bool, uint32_t, uint32_t, uint8_t,
                                 uint32_t>>>
        seen_;
};

/** Drain an app's RX ring; returns delivered data bytes per conn. */
std::map<uint32_t, uint64_t>
drain_rx(FastPath& fp, uint32_t app)
{
    std::map<uint32_t, uint64_t> bytes;
    driver::DescRing& rx = fp.rx_ring(app);
    bool drained = false;
    while (!rx.empty()) {
        driver::RingDesc d;
        uint32_t slot = rx.pop(&d);
        if (d.type == driver::kDescData)
            bytes[uint32_t(d.opaque)] += d.len;
        rx.release(slot);
        drained = true;
    }
    if (drained)
        fp.rx_doorbell(app);
    return bytes;
}

} // namespace

// ---------------------------------------------------------------------
// Handshake and teardown units
// ---------------------------------------------------------------------

TEST(FastPathConn, HandshakeEstablishesBothEnds)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 77, kServerIp, kListenPort, 20000);
    ASSERT_NE(c, FastPath::kNoConn);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::SynSent);

    p.eq.run();

    ASSERT_NE(p.client.conn(c), nullptr);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::Established);
    auto opened = p.client.poll_ctrl(capp);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->type, CtrlMsg::Type::Opened);
    EXPECT_EQ(opened->conn_id, c);
    EXPECT_EQ(opened->cookie, 77u);

    auto acc = p.server.poll_ctrl(sapp);
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->type, CtrlMsg::Type::Accepted);
    EXPECT_EQ(acc->key.remote_ip, kClientIp);
    EXPECT_EQ(acc->key.remote_port, 20000);
    EXPECT_EQ(p.server.conn(acc->conn_id)->state(),
              ConnState::Established);
    EXPECT_EQ(p.client.stats().conns_opened, 1u);
    EXPECT_EQ(p.server.stats().conns_accepted, 1u);
}

TEST(FastPathConn, CloseHandshakeClosesBothEnds)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 64, [] {});
    uint32_t sapp = p.server.register_app(8, 64, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    std::vector<uint8_t> data(300, 0xab);
    EXPECT_EQ(p.client.stream_send(c, data.data(), data.size()),
              data.size());
    p.eq.run();
    p.client.close(c);
    p.eq.run();

    bool client_closed = false, server_closed = false;
    while (auto m = p.client.poll_ctrl(capp))
        client_closed |= m->type == CtrlMsg::Type::Closed;
    uint32_t sconn = FastPath::kNoConn;
    while (auto m = p.server.poll_ctrl(sapp)) {
        if (m->type == CtrlMsg::Type::Accepted)
            sconn = m->conn_id;
        server_closed |= m->type == CtrlMsg::Type::Closed;
    }
    EXPECT_TRUE(client_closed);
    EXPECT_TRUE(server_closed);
    auto bytes = drain_rx(p.server, sapp);
    EXPECT_EQ(bytes[sconn], data.size());

    // Time-wait expired inside eq.run(): both conn slots are free,
    // and a healthy wire saw every frame exactly once.
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_EQ(p.server.live_conns(), 0u);
    EXPECT_TRUE(p.client.quiesced());
    EXPECT_TRUE(p.server.quiesced());
    EXPECT_EQ(p.wire_dups[20000], 0u);
}

TEST(FastPathConn, SimultaneousCloseConverges)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();

    uint32_t sconn = FastPath::kNoConn;
    while (auto m = p.server.poll_ctrl(sapp))
        if (m->type == CtrlMsg::Type::Accepted)
            sconn = m->conn_id;
    ASSERT_NE(sconn, FastPath::kNoConn);

    // Both ends close in the same tick: the FINs cross on the wire.
    p.client.close(c);
    p.server.close(sconn);
    p.eq.run();

    bool client_closed = false, server_closed = false;
    while (auto m = p.client.poll_ctrl(capp))
        client_closed |= m->type == CtrlMsg::Type::Closed;
    while (auto m = p.server.poll_ctrl(sapp))
        server_closed |= m->type == CtrlMsg::Type::Closed;
    EXPECT_TRUE(client_closed);
    EXPECT_TRUE(server_closed);
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_EQ(p.server.live_conns(), 0u);
}

TEST(FastPathConn, FourTupleReuseRejectedWhileLive)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    ASSERT_NE(c, FastPath::kNoConn);
    EXPECT_EQ(p.client.open(capp, 0, kServerIp, kListenPort, 20000),
              FastPath::kNoConn)
        << "same 4-tuple must be rejected while the conn lives";
    p.eq.run();
}

// ---------------------------------------------------------------------
// Time-wait and teardown-race edge cases
// ---------------------------------------------------------------------

TEST(FastPathConn, RstDuringTimeWaitIgnored)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Established);

    // Active close: the client lingers in Closed (time-wait) for
    // rto * kTimeWaitRtos before the slot is freed. Stop the clock
    // inside that window.
    p.client.close(c);
    p.eq.run_until(p.eq.now() + sim::microseconds(50));
    ASSERT_NE(p.client.conn(c), nullptr);
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Closed);
    while (p.client.poll_ctrl(capp)) {
    } // swallow Opened/Closed; anything after the RST is unexpected
    uint64_t resets_before = p.client.stats().conns_reset;

    // A stray RST aimed at the lingering tuple (stale segment from an
    // old incarnation) must neither resurrect the connection nor
    // signal a spurious Reset to the app.
    p.client.on_rx(net::PacketBuilder()
                       .eth(kSrvMac, kCliMac)
                       .ipv4(kServerIp, kClientIp, net::kIpProtoTcp)
                       .tcp(kListenPort, 20000, /*seq=*/1, /*ack=*/1,
                            /*RST|ACK*/ 0x14)
                       .build());
    ASSERT_NE(p.client.conn(c), nullptr);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::Closed);
    EXPECT_EQ(p.client.stats().conns_reset, resets_before);
    EXPECT_FALSE(p.client.poll_ctrl(capp).has_value())
        << "a time-wait RST must not produce a ctrl message";

    // The linger still expires on schedule and frees the slot.
    p.eq.run();
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_TRUE(p.client.quiesced());
}

TEST(FastPathConn, FourTupleReuseAfterTimeWaitExpiry)
{
    driver::ConnConfig conn;
    conn.rto = sim::microseconds(100); // linger = 4 rtos = 400 us
    DirectPair p(conn);
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    p.client.close(c);
    p.eq.run_until(p.eq.now() + sim::microseconds(50));
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Closed);

    // Still lingering: the demux entry is occupied, reuse is refused.
    EXPECT_EQ(p.client.open(capp, 1, kServerIp, kListenPort, 20000),
              FastPath::kNoConn)
        << "4-tuple reuse must be rejected during time-wait";

    // Let the linger expire; the exact same tuple then opens cleanly.
    p.eq.run();
    EXPECT_EQ(p.client.live_conns(), 0u);
    uint32_t c2 =
        p.client.open(capp, 2, kServerIp, kListenPort, 20000);
    ASSERT_NE(c2, FastPath::kNoConn);
    p.eq.run();
    ASSERT_NE(p.client.conn(c2), nullptr);
    EXPECT_EQ(p.client.conn(c2)->state(), ConnState::Established);
    EXPECT_EQ(p.server.stats().conns_accepted, 2u);
}

TEST(FastPathConn, ClosedCtrlRacesTxFullRetryInAppEmu)
{
    // A 2-entry TX ring shared by 16 closed-loop connections keeps
    // most slots parked on AppEmu's send queue. The server closes one
    // connection the moment it accepts it, so that slot's Closed ctrl
    // lands while its first request is still waiting for ring space —
    // the retry drain must re-validate and skip the dead slot instead
    // of posting onto a closed connection.
    DirectPair p;
    uint32_t sapp = p.server.register_app(8, 1024, [] {});
    p.server.listen(kListenPort, sapp);

    apps::AppEmuConfig acfg;
    acfg.connections = 16;
    acfg.requests_per_conn = 3;
    acfg.request_bytes = 256;
    acfg.tx_ring_entries = 2;
    acfg.rx_ring_entries = 64;
    acfg.remote_ip = kServerIp;
    acfg.remote_port = kListenPort;
    apps::AppEmu app(p.eq, p.client, acfg);

    const uint16_t target = 20010; // deep enough to be parked
    std::map<uint32_t, uint16_t> port_of;
    std::map<uint16_t, uint64_t> delivered;
    std::function<void()> pump = [&] {
        while (auto m = p.server.poll_ctrl(sapp)) {
            if (m->type == CtrlMsg::Type::Accepted) {
                port_of[m->conn_id] = m->key.remote_port;
                if (m->key.remote_port == target)
                    p.server.close(m->conn_id);
            }
        }
        for (const auto& [conn, bytes] : drain_rx(p.server, sapp))
            delivered[port_of[conn]] += bytes;
        if (p.eq.now() < sim::microseconds(3000))
            p.eq.schedule_in(sim::microseconds(10), pump);
    };
    p.eq.schedule_in(sim::microseconds(10), pump);

    app.start();
    p.eq.run();

    // Every incarnation reached a terminal state — the early Closed
    // did not wedge its slot (or the shared send queue) forever.
    EXPECT_TRUE(app.done());
    uint32_t closed_clean = 0;
    for (const apps::ConnOutcome& out : app.outcomes()) {
        SCOPED_TRACE("port " + std::to_string(out.local_port));
        EXPECT_TRUE(out.opened);
        EXPECT_TRUE(out.closed || out.reset);
        if (out.local_port == target)
            continue; // may have sent anything from 0 to all requests
        EXPECT_TRUE(out.closed);
        EXPECT_EQ(out.sent_bytes, 3u * 256u);
        EXPECT_EQ(out.acked_bytes, out.sent_bytes);
        EXPECT_EQ(delivered[out.local_port], out.sent_bytes);
        ++closed_clean;
    }
    EXPECT_EQ(closed_clean, 15u);

    // Nothing leaked: all descriptors handed back, nothing in flight.
    EXPECT_TRUE(p.client.tx_ring(app.app_id()).all_released());
    EXPECT_TRUE(p.client.rx_ring(app.app_id()).all_released());
    EXPECT_TRUE(p.client.quiesced());
    EXPECT_TRUE(p.server.quiesced());
}

// ---------------------------------------------------------------------
// Randomized open/close/reset interleavings vs a shadow oracle
// ---------------------------------------------------------------------

namespace {

enum class Plan : uint8_t {
    CleanClientClose,
    ServerClose,
    WireCutReset,
    LeaveOpen,
};

struct Shadow
{
    uint16_t port = 0;
    uint32_t conn = FastPath::kNoConn; ///< client-side id
    Plan plan = Plan::LeaveOpen;
    bool opened = false;
    bool closed = false;
    bool reset = false;
};

} // namespace

class FastPathChurn : public ::testing::TestWithParam<uint64_t>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathChurn,
                         ::testing::Values(1ull, 42ull, 1337ull));

TEST_P(FastPathChurn, RandomizedLifecyclesMatchShadowOracle)
{
    constexpr uint32_t kConns = 1200;
    driver::ConnConfig conn;
    conn.rto = sim::microseconds(20); // resets resolve quickly
    conn.max_retries = 3;
    DirectPair p(conn);

    uint32_t capp = p.client.register_app(16, 4096, [] {});
    uint32_t sapp = p.server.register_app(16, 4096, [] {});
    p.server.listen(kListenPort, sapp);

    std::mt19937_64 rng(GetParam());
    std::vector<Shadow> shadows(kConns);
    std::vector<uint8_t> payload(96);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 13);

    // Schedule a randomized interleaving up front; the event queue
    // orders same-tick work FIFO, so each seed is deterministic.
    for (uint32_t i = 0; i < kConns; ++i) {
        Shadow& sh = shadows[i];
        sh.port = uint16_t(20000 + i);
        switch (rng() % 4) {
        case 0: sh.plan = Plan::CleanClientClose; break;
        case 1: sh.plan = Plan::ServerClose; break;
        case 2: sh.plan = Plan::WireCutReset; break;
        default: sh.plan = Plan::LeaveOpen; break;
        }
        sim::TimePs open_at = sim::microseconds(double(rng() % 2000));
        sim::TimePs act_after =
            sim::microseconds(double(50 + rng() % 300));
        bool with_data = rng() % 2 == 0;

        p.eq.schedule_at(open_at, [&, i, act_after, with_data] {
            Shadow& s = shadows[i];
            s.conn = p.client.open(capp, i, kServerIp, kListenPort,
                                   s.port);
            ASSERT_NE(s.conn, FastPath::kNoConn);
            p.eq.schedule_in(act_after, [&, i, with_data] {
                Shadow& sh2 = shadows[i];
                const driver::Connection* c = p.client.conn(sh2.conn);
                if (!c || c->state() != ConnState::Established)
                    return; // e.g. peer already closed it (ServerClose)
                switch (sh2.plan) {
                case Plan::CleanClientClose:
                    if (with_data)
                        p.client.stream_send(sh2.conn, payload.data(),
                                             payload.size());
                    p.client.close(sh2.conn);
                    break;
                case Plan::ServerClose:
                    break; // the server pump below closes on accept
                case Plan::WireCutReset:
                    p.cut.insert(sh2.port);
                    // Data into the void forces RTO -> reset.
                    p.client.stream_send(sh2.conn, payload.data(),
                                         payload.size());
                    break;
                case Plan::LeaveOpen:
                    if (with_data)
                        p.client.stream_send(sh2.conn, payload.data(),
                                             payload.size());
                    break;
                }
            });
        });
    }

    // The server app: periodically poll the slow path (closing conns
    // whose plan is ServerClose) and drain both RX rings.
    std::map<uint16_t, uint32_t> server_conn_of;
    std::map<uint16_t, bool> server_closed_of, server_reset_of;
    std::map<uint16_t, Plan> plan_of;
    for (const Shadow& sh : shadows)
        plan_of[sh.port] = sh.plan;
    std::function<void()> server_pump = [&] {
        while (auto m = p.server.poll_ctrl(sapp)) {
            uint16_t port = m->key.remote_port;
            switch (m->type) {
            case CtrlMsg::Type::Accepted:
                server_conn_of[port] = m->conn_id;
                if (plan_of[port] == Plan::ServerClose)
                    p.server.close(m->conn_id);
                break;
            case CtrlMsg::Type::Closed:
                server_closed_of[port] = true;
                break;
            case CtrlMsg::Type::Reset:
                server_reset_of[port] = true;
                break;
            case CtrlMsg::Type::Opened:
                break;
            }
        }
        drain_rx(p.server, sapp);
        drain_rx(p.client, capp);
        if (p.eq.now() < sim::microseconds(4000))
            p.eq.schedule_in(sim::microseconds(25), server_pump);
    };
    p.eq.schedule_in(sim::microseconds(25), server_pump);

    p.eq.run();

    // Fold client ctrl messages into the shadows.
    std::map<uint32_t, Shadow*> by_conn;
    for (Shadow& sh : shadows)
        by_conn[sh.conn] = &sh;
    while (auto m = p.client.poll_ctrl(capp)) {
        auto it = by_conn.find(m->conn_id);
        ASSERT_NE(it, by_conn.end());
        if (m->type == CtrlMsg::Type::Opened)
            it->second->opened = true;
        if (m->type == CtrlMsg::Type::Closed)
            it->second->closed = true;
        if (m->type == CtrlMsg::Type::Reset)
            it->second->reset = true;
    }
    drain_rx(p.client, capp);
    server_pump(); // final drain (past the repump window)

    // --- shadow oracle ---
    uint32_t open_left = 0, resets = 0;
    for (const Shadow& sh : shadows) {
        SCOPED_TRACE("port " + std::to_string(sh.port));
        EXPECT_TRUE(sh.opened) << "handshake must complete";
        switch (sh.plan) {
        case Plan::CleanClientClose:
        case Plan::ServerClose:
            EXPECT_TRUE(sh.closed);
            EXPECT_FALSE(sh.reset);
            EXPECT_TRUE(server_closed_of[sh.port]);
            EXPECT_FALSE(server_reset_of[sh.port]);
            EXPECT_EQ(p.wire_dups[sh.port], 0u)
                << "no retransmits on a healthy flow";
            break;
        case Plan::WireCutReset: {
            EXPECT_TRUE(sh.reset);
            EXPECT_FALSE(sh.closed);
            ++resets;
            // The peer saw nothing; half-open is expected.
            EXPECT_FALSE(server_closed_of[sh.port]);
            const driver::Connection* c = p.client.conn(sh.conn);
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(c->state(), ConnState::Reset);
            break;
        }
        case Plan::LeaveOpen: {
            EXPECT_FALSE(sh.closed);
            EXPECT_FALSE(sh.reset);
            const driver::Connection* c = p.client.conn(sh.conn);
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(c->state(), ConnState::Established);
            EXPECT_EQ(p.wire_dups[sh.port], 0u);
            ++open_left;
            break;
        }
        }
    }
    EXPECT_EQ(p.client.stats().conns_reset, resets);
    EXPECT_GT(open_left, 0u);
    EXPECT_GT(resets, 0u);

    // No descriptor leaks, no dangling ownership flags, nothing in
    // flight anywhere.
    for (FastPath* fp : {&p.client, &p.server}) {
        uint32_t app = fp == &p.client ? capp : sapp;
        EXPECT_TRUE(fp->tx_ring(app).all_released());
        EXPECT_TRUE(fp->rx_ring(app).all_released());
        EXPECT_TRUE(fp->tx_ring(app).own_flags_clear());
        EXPECT_TRUE(fp->rx_ring(app).own_flags_clear());
        EXPECT_TRUE(fp->quiesced());
    }
}

// ---------------------------------------------------------------------
// Per-flow isolation regressions (the old stack's single global timer
// and single pending-ARP slot let one flow interfere with another)
// ---------------------------------------------------------------------

TEST(FastPathIsolation, PerConnTimersDoNotInterfere)
{
    sim::EventQueue eq;
    driver::FastPathConfig cfg;
    cfg.ip = kClientIp;
    cfg.mac = kCliMac;
    cfg.conn.rto = sim::microseconds(50);
    cfg.conn.max_retries = 4;
    driver::FastPath fp(eq, cfg);
    fp.set_tx([](net::Packet&&) { return true; });
    fp.add_arp_entry(kServerIp, kSrvMac);

    uint32_t a = fp.open_established(FastPath::kNoApp, 0, kServerIp,
                                     7000, 20001);
    uint32_t b = fp.open_established(FastPath::kNoApp, 0, kServerIp,
                                     7000, 20002);
    uint8_t buf[64] = {};
    fp.stream_send(a, buf, sizeof buf); // A: never acked
    fp.stream_send(b, buf, sizeof buf); // B: acked immediately

    // ACK everything on B only.
    net::Packet ack = net::PacketBuilder()
                          .eth(kSrvMac, kCliMac)
                          .ipv4(kServerIp, kClientIp, net::kIpProtoTcp)
                          .tcp(7000, 20002, /*seq=*/1,
                               /*ack=*/fp.conn(b)->snd_nxt(), kAck)
                          .build();
    fp.on_rx(std::move(ack));
    EXPECT_EQ(fp.conn(b)->unacked_segments(), 0u);

    // Run well past several RTOs: only A may retransmit, and A giving
    // up must not disturb B. (A single global timer either gets
    // cancelled by B's ACK — wedging A forever — or stays armed for A
    // and fires spurious retransmits for B.)
    eq.run();
    ASSERT_NE(fp.conn(a), nullptr);
    ASSERT_NE(fp.conn(b), nullptr);
    EXPECT_EQ(fp.conn(a)->state(), ConnState::Reset);
    EXPECT_EQ(fp.conn(a)->retransmits(), 4u);
    EXPECT_EQ(fp.conn(b)->state(), ConnState::Established);
    EXPECT_EQ(fp.conn(b)->retransmits(), 0u);
    EXPECT_FALSE(fp.conn(b)->timer_armed());
}

TEST(FastPathIsolation, PerNextHopArpDoesNotBlockResolvedFlows)
{
    sim::EventQueue eq;
    driver::FastPathConfig cfg;
    cfg.ip = kClientIp;
    cfg.mac = kCliMac;
    driver::FastPath fp(eq, cfg);

    const uint32_t ip_a = net::ipv4_addr(10, 9, 0, 10); // resolved
    const uint32_t ip_b = net::ipv4_addr(10, 9, 0, 11); // pending
    const net::MacAddr mac_a{0x02, 0, 0, 0, 0, 0xa};
    const net::MacAddr mac_b{0x02, 0, 0, 0, 0, 0xb};
    std::map<uint32_t, uint64_t> tcp_frames_to;
    uint64_t arp_frames = 0;
    fp.set_tx([&](net::Packet&& f) {
        net::ParsedPacket pp = net::parse(f);
        if (pp.ipv4 && pp.tcp)
            ++tcp_frames_to[pp.ipv4->dst];
        else
            ++arp_frames;
        return true;
    });
    fp.add_arp_entry(ip_a, mac_a);

    uint32_t a = fp.open_established(FastPath::kNoApp, 0, ip_a, 7000,
                                     20001);
    uint32_t b = fp.open_established(FastPath::kNoApp, 0, ip_b, 7000,
                                     20002);
    uint8_t buf[32] = {};
    fp.stream_send(b, buf, sizeof buf); // parks on unresolved ARP
    fp.stream_send(a, buf, sizeof buf);

    // A's data flows immediately; B only put an ARP request on the
    // wire. (The legacy stack's single pending-ARP slot held *all*
    // transmit traffic behind one unresolved next hop.)
    EXPECT_EQ(tcp_frames_to[ip_a], 1u);
    EXPECT_EQ(tcp_frames_to[ip_b], 0u);
    EXPECT_GE(arp_frames, 1u);
    EXPECT_GE(fp.stats().arp_requests, 1u);
    EXPECT_TRUE(fp.resolved(ip_a));
    EXPECT_FALSE(fp.resolved(ip_b));

    // B's ARP reply lands: only B's parked frames flush.
    fp.add_arp_entry(ip_b, mac_b);
    EXPECT_EQ(tcp_frames_to[ip_b], 1u);
    EXPECT_EQ(tcp_frames_to[ip_a], 1u);

    // Quiet both retransmit timers (nobody is acking here).
    fp.on_rx(net::PacketBuilder()
                 .eth(mac_a, kCliMac)
                 .ipv4(ip_a, kClientIp, net::kIpProtoTcp)
                 .tcp(7000, 20001, 1, fp.conn(a)->snd_nxt(), kAck)
                 .build());
    fp.on_rx(net::PacketBuilder()
                 .eth(mac_b, kCliMac)
                 .ipv4(ip_b, kClientIp, net::kIpProtoTcp)
                 .tcp(7000, 20002, 1, fp.conn(b)->snd_nxt(), kAck)
                 .build());
    eq.run();
    EXPECT_EQ(fp.conn(a)->retransmits(), 0u);
    EXPECT_EQ(fp.conn(b)->retransmits(), 0u);
}
