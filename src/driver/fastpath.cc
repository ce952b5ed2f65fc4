#include "driver/fastpath.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/trace.h"
#include "util/logging.h"

namespace fld::driver {

namespace {
constexpr uint8_t kTcpFin = 0x01;
constexpr uint8_t kTcpSyn = 0x02;
constexpr uint8_t kTcpRst = 0x04;
constexpr uint8_t kTcpPsh = 0x08;
constexpr uint8_t kTcpAck = 0x10;

/** Wrap-safe sequence comparison: a <= b in sequence space. */
bool seq_le(uint32_t a, uint32_t b) { return int32_t(a - b) <= 0; }
bool seq_lt(uint32_t a, uint32_t b) { return int32_t(a - b) < 0; }

bool is_pow2(uint32_t v) { return v >= 2 && (v & (v - 1)) == 0; }
} // namespace

const char*
to_string(ConnState s)
{
    switch (s) {
    case ConnState::Closed: return "Closed";
    case ConnState::SynSent: return "SynSent";
    case ConnState::SynRcvd: return "SynRcvd";
    case ConnState::Established: return "Established";
    case ConnState::FinSent: return "FinSent";
    case ConnState::Reset: return "Reset";
    }
    return "?";
}

// ---------------------------------------------------------------------
// DescRing
// ---------------------------------------------------------------------

DescRing::DescRing(uint32_t entries, uint32_t initial_index)
    : capacity_(entries), mask_(entries - 1), head_(initial_index),
      tail_(initial_index), slots_(entries)
{
    if (!is_pow2(entries))
        fatal("DescRing: entries (%u) must be a power of two >= 2",
              entries);
}

bool
DescRing::post(const RingDesc& d)
{
    if (full()) {
        ++stalls_;
        return false;
    }
    RingDesc& slot = slots_[head_ & mask_];
    if (slot.nic_own) {
        // Consumed but not yet released: the consumer still owns the
        // buffer this slot references.
        ++stalls_;
        return false;
    }
    slot = d;
    slot.nic_own = 1;
    ++head_;
    ++posted_;
    return true;
}

const RingDesc*
DescRing::peek() const
{
    if (empty())
        return nullptr;
    return &slots_[tail_ & mask_];
}

uint32_t
DescRing::pop(RingDesc* out)
{
    assert(!empty());
    uint32_t slot = tail_ & mask_;
    *out = slots_[slot];
    ++tail_;
    ++consumed_;
    return slot;
}

void
DescRing::release(uint32_t slot)
{
    assert(slot < capacity_);
    assert(slots_[slot].nic_own);
    slots_[slot].nic_own = 0;
    ++released_;
}

bool
DescRing::own_flags_clear() const
{
    for (const RingDesc& d : slots_)
        if (d.nic_own)
            return false;
    return true;
}

// ---------------------------------------------------------------------
// FastPath: construction, apps, lookup
// ---------------------------------------------------------------------

FastPath::FastPath(sim::EventQueue& eq, FastPathConfig cfg)
    : eq_(eq), cfg_(cfg)
{
    if (cfg_.slot_bytes < cfg_.conn.mss)
        fatal("FastPath: slot_bytes (%u) < mss (%u)", cfg_.slot_bytes,
              cfg_.conn.mss);
}

FastPath::~FastPath() = default;

uint32_t
FastPath::register_app(uint32_t tx_entries, uint32_t rx_entries,
                       NotifyFn notify)
{
    apps_.push_back(std::make_unique<AppContext>(
        tx_entries, rx_entries, cfg_.slot_bytes, std::move(notify)));
    return uint32_t(apps_.size() - 1);
}

DescRing&
FastPath::tx_ring(uint32_t app)
{
    return apps_.at(app)->tx;
}

DescRing&
FastPath::rx_ring(uint32_t app)
{
    return apps_.at(app)->rx;
}

const DescRing&
FastPath::tx_ring(uint32_t app) const
{
    return apps_.at(app)->tx;
}

const DescRing&
FastPath::rx_ring(uint32_t app) const
{
    return apps_.at(app)->rx;
}

uint8_t*
FastPath::tx_arena(uint32_t app)
{
    return apps_.at(app)->tx_arena.data();
}

const uint8_t*
FastPath::rx_arena(uint32_t app) const
{
    return apps_.at(app)->rx_arena.data();
}

std::optional<CtrlMsg>
FastPath::poll_ctrl(uint32_t app)
{
    AppContext& a = *apps_.at(app);
    if (a.ctrl.empty())
        return std::nullopt;
    CtrlMsg m = a.ctrl.front();
    a.ctrl.pop_front();
    return m;
}

Connection*
FastPath::find(uint32_t conn_id)
{
    auto it = conns_.find(conn_id);
    return it == conns_.end() ? nullptr : it->second.get();
}

const Connection*
FastPath::conn(uint32_t conn_id) const
{
    auto it = conns_.find(conn_id);
    return it == conns_.end() ? nullptr : it->second.get();
}

std::vector<uint32_t>
FastPath::conn_ids() const
{
    std::vector<uint32_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_)
        ids.push_back(id);
    return ids;
}

Connection*
FastPath::find_by_key(const ConnKey& key)
{
    auto it = by_key_.find(key);
    if (it == by_key_.end())
        return nullptr;
    return find(it->second);
}

Connection*
FastPath::create_conn(uint32_t app, uint64_t cookie, const ConnKey& key)
{
    if (by_key_.count(key))
        return nullptr;
    auto c = std::make_unique<Connection>();
    c->id_ = next_conn_id_++;
    c->key_ = key;
    c->app_ = app;
    c->cookie_ = cookie;
    c->cfg_ = cfg_.conn;
    Connection* raw = c.get();
    by_key_[key] = raw->id_;
    conns_[raw->id_] = std::move(c);
    return raw;
}

void
FastPath::free_conn(uint32_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    auto key_it = by_key_.find(it->second->key_);
    if (key_it != by_key_.end() && key_it->second == conn_id)
        by_key_.erase(key_it);
    conns_.erase(it);
}

void
FastPath::set_conn_config(uint32_t conn_id, const ConnConfig& cfg)
{
    if (Connection* c = find(conn_id))
        c->cfg_ = cfg;
}

void
FastPath::post_ctrl(Connection& c, CtrlMsg::Type type)
{
    if (c.app_ == kNoApp)
        return;
    CtrlMsg m;
    m.type = type;
    m.conn_id = c.id_;
    m.cookie = c.cookie_;
    m.key = c.key_;
    apps_.at(c.app_)->ctrl.push_back(m);
    notify_app(c.app_);
}

void
FastPath::notify_app(uint32_t app)
{
    AppContext& a = *apps_.at(app);
    if (a.notify)
        a.notify();
}

bool
FastPath::quiesced() const
{
    if (!driver_backlog_.empty())
        return false;
    for (const auto& up : apps_)
        if (!up->parked.empty())
            return false;
    for (const auto& [id, c] : conns_)
        if (!c->unacked_.empty() || !c->backlog_.empty() ||
            c->timer_armed_)
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Slow path: open / close / listen
// ---------------------------------------------------------------------

uint32_t
FastPath::open(uint32_t app, uint64_t cookie, uint32_t remote_ip,
               uint16_t remote_port, uint16_t local_port)
{
    ConnKey key{remote_ip, remote_port, local_port};
    Connection* c = create_conn(app, cookie, key);
    if (!c)
        return kNoConn;
    c->state_ = ConnState::SynSent;
    Connection::Segment syn;
    syn.seq = c->snd_nxt_;
    syn.syn = true;
    c->snd_nxt_ += 1;
    c->backlog_.push_back(std::move(syn));
    pump(*c);
    return c->id_;
}

uint32_t
FastPath::open_established(uint32_t app, uint64_t cookie,
                           uint32_t remote_ip, uint16_t remote_port,
                           uint16_t local_port, bool legacy)
{
    ConnKey key{remote_ip, remote_port, local_port};
    Connection* c = create_conn(app, cookie, key);
    if (!c)
        return kNoConn;
    c->state_ = ConnState::Established;
    c->legacy_ = legacy;
    return c->id_;
}

void
FastPath::listen(uint16_t local_port, uint32_t app)
{
    listeners_[local_port] = app;
}

void
FastPath::close(uint32_t conn_id)
{
    Connection* c = find(conn_id);
    if (!c)
        return;
    switch (c->state_) {
    case ConnState::Established:
        queue_fin(*c);
        break;
    case ConnState::SynSent:
    case ConnState::SynRcvd:
    case ConnState::Reset:
        // Abort: nothing to tear down gracefully.
        free_conn(conn_id);
        break;
    case ConnState::FinSent:
    case ConnState::Closed:
        break; // already closing / closed
    }
}

void
FastPath::queue_fin(Connection& c)
{
    if (c.fin_queued_)
        return;
    c.fin_queued_ = true;
    c.state_ = ConnState::FinSent;
    Connection::Segment fin;
    fin.seq = c.snd_nxt_;
    fin.fin = true;
    c.fin_seq_ = c.snd_nxt_;
    c.snd_nxt_ += 1;
    c.backlog_.push_back(std::move(fin));
    pump(c);
}

// ---------------------------------------------------------------------
// Ring consumption (TX doorbell) and stream sends
// ---------------------------------------------------------------------

void
FastPath::doorbell(uint32_t app)
{
    ++stats_.doorbells;
    AppContext& a = *apps_.at(app);
    while (!a.tx.empty()) {
        RingDesc d;
        uint32_t slot = a.tx.pop(&d);
        if (d.type == kDescData) {
            ++stats_.tx_descs;
            Connection* c = find(uint32_t(d.opaque));
            if (c && (c->state_ == ConnState::Established ||
                      c->state_ == ConnState::SynSent ||
                      c->state_ == ConnState::SynRcvd)) {
                // Record before enqueueing: a harness tx hook may
                // complete the exchange synchronously.
                c->tx_records_.push_back(
                    {c->snd_nxt_ + d.len, d.len, d.tag,
                     (d.flags & kDescFlagTxTag) != 0});
                enqueue_stream(*c, a.tx_arena.data() + d.addr, d.len,
                               (d.flags & kDescFlagPush) != 0);
            }
        }
        // The payload was copied into segments (or the descriptor was
        // dropped): the slot and its buffer go back to the app.
        a.tx.release(slot);
    }
}

size_t
FastPath::stream_send(uint32_t conn_id, const uint8_t* data, size_t len)
{
    Connection* c = find(conn_id);
    if (!c)
        return 0;
    if (c->app_ != kNoApp)
        c->tx_records_.push_back(
            {c->snd_nxt_ + uint32_t(len), uint32_t(len), 0, false});
    enqueue_stream(*c, data, len, /*push=*/true);
    return len;
}

void
FastPath::enqueue_stream(Connection& c, const uint8_t* data, size_t len,
                         bool push)
{
    // Slice the stream at MSS boundaries up front; the window decides
    // when each slice actually leaves.
    for (size_t off = 0; off < len; off += c.cfg_.mss) {
        Connection::Segment seg;
        seg.seq = c.snd_nxt_;
        size_t n = std::min<size_t>(c.cfg_.mss, len - off);
        // Intentional copy: each segment owns its bytes so it can be
        // retransmitted after the source buffer is reused.
        seg.payload.assign(data + off, data + off + n);
        seg.push = push && off + n == len;
        c.snd_nxt_ += uint32_t(n);
        c.backlog_.push_back(std::move(seg));
    }
    c.bytes_streamed_ += len;
    pump(c);
}

// ---------------------------------------------------------------------
// TX machinery
// ---------------------------------------------------------------------

void
FastPath::pump(Connection& c)
{
    if (c.state_ == ConnState::Reset || c.state_ == ConnState::Closed)
        return;
    if (!arp_cache_.count(c.key_.remote_ip)) {
        if (!c.backlog_.empty())
            maybe_send_arp(c.key_.remote_ip);
        return;
    }
    while (!c.backlog_.empty() &&
           c.unacked_.size() < c.cfg_.window_segments) {
        // Data only flows once the handshake is done; SYN segments
        // (and the SYN-ACK) go out in any state.
        const Connection::Segment& front = c.backlog_.front();
        if (!front.syn && c.state_ != ConnState::Established &&
            c.state_ != ConnState::FinSent)
            break;
        Connection::Segment seg = std::move(c.backlog_.front());
        c.backlog_.pop_front();
        transmit_segment(c, seg);
        ++c.segments_sent_;
        ++stats_.segments_sent;
        c.unacked_.push_back(std::move(seg));
    }
    if (!c.unacked_.empty() && !c.timer_armed_)
        arm_timer(c);
}

void
FastPath::transmit_segment(Connection& c, const Connection::Segment& s)
{
    uint8_t flags;
    uint32_t ack;
    if (s.syn) {
        // Client SYN carries no ACK; the SYN-ACK (irs known) does.
        flags = kTcpSyn | (c.rcv_nxt_ ? kTcpAck : 0);
        ack = c.rcv_nxt_;
    } else {
        flags = kTcpAck;
        if (s.fin)
            flags |= kTcpFin;
        if (s.push)
            flags |= kTcpPsh;
        ack = c.rcv_nxt_;
    }
    net::Packet pkt =
        net::PacketBuilder()
            .eth(cfg_.mac, arp_cache_.at(c.key_.remote_ip))
            .ipv4(cfg_.ip, c.key_.remote_ip, net::kIpProtoTcp, ip_id_++)
            .tcp(c.key_.local_port, c.key_.remote_port, s.seq, ack,
                 flags)
            .payload(s.payload)
            .build();
    emit(std::move(pkt));
}

void
FastPath::send_pure_ack(Connection& c)
{
    if (!arp_cache_.count(c.key_.remote_ip))
        return; // nothing received a frame from yet; cannot address it
    ++stats_.pure_acks_sent;
    net::Packet pkt =
        net::PacketBuilder()
            .eth(cfg_.mac, arp_cache_.at(c.key_.remote_ip))
            .ipv4(cfg_.ip, c.key_.remote_ip, net::kIpProtoTcp, ip_id_++)
            .tcp(c.key_.local_port, c.key_.remote_port, c.snd_nxt_,
                 c.rcv_nxt_, kTcpAck)
            .build();
    emit(std::move(pkt));
}

void
FastPath::emit(net::Packet&& frame)
{
    if (!tx_)
        fatal("FastPath: tx hook not set");
    // Preserve FIFO order: while earlier frames wait on the driver,
    // new ones queue behind them.
    if (driver_backlog_.empty() && tx_(std::move(frame))) {
        ++stats_.frames_tx;
        return;
    }
    // CpuDriver::send / FlexDriver::tx reject without consuming, so
    // the frame is still intact here.
    ++stats_.driver_backpressure;
    driver_backlog_.push_back(std::move(frame));
    if (!retry_armed_) {
        retry_armed_ = true;
        eq_.schedule_in(kTxRetryDelay,
                        [this] { drain_driver_backlog(); });
    }
}

void
FastPath::drain_driver_backlog()
{
    retry_armed_ = false;
    while (!driver_backlog_.empty()) {
        if (!tx_ || !tx_(std::move(driver_backlog_.front()))) {
            if (!retry_armed_) {
                retry_armed_ = true;
                eq_.schedule_in(kTxRetryDelay,
                                [this] { drain_driver_backlog(); });
            }
            return;
        }
        ++stats_.frames_tx;
        driver_backlog_.pop_front();
    }
}

// ---------------------------------------------------------------------
// Timers / reset / close completion
// ---------------------------------------------------------------------

void
FastPath::arm_timer(Connection& c)
{
    c.timer_armed_ = true;
    uint64_t gen = ++c.timer_gen_;
    uint32_t id = c.id_;
    eq_.schedule_in(c.cfg_.rto,
                    [this, id, gen] { on_timeout(id, gen); });
}

void
FastPath::cancel_timer(Connection& c)
{
    ++c.timer_gen_;
    c.timer_armed_ = false;
}

void
FastPath::on_timeout(uint32_t conn_id, uint64_t generation)
{
    Connection* c = find(conn_id);
    if (!c)
        return; // connection freed while the timer was in flight
    if (generation != c->timer_gen_ || !c->timer_armed_)
        return; // an ACK (or a newer arm) voided this timer
    c->timer_armed_ = false;
    if (c->unacked_.empty())
        return;
    if (++c->retries_ > c->cfg_.max_retries) {
        reset_conn(*c);
        return;
    }
    // Go-back-N: resend the entire unacknowledged window.
    for (const Connection::Segment& seg : c->unacked_) {
        transmit_segment(*c, seg);
        ++c->retransmits_;
        ++stats_.retransmits;
    }
    if (auto* tr = sim::Tracer::active())
        tr->emit(eq_.now(), sim::TraceEventKind::Retransmit, "fastpath",
                 "gbn", 0, 0, c->id_, uint32_t(c->unacked_.size()));
    arm_timer(*c);
}

void
FastPath::reset_conn(Connection& c)
{
    ++c.resets_;
    ++stats_.conns_reset;
    c.backlog_.clear();
    c.unacked_.clear();
    c.tx_records_.clear();
    c.retries_ = 0;
    cancel_timer(c);
    if (c.legacy_)
        return; // single-connection mode stays usable after a reset
    c.state_ = ConnState::Reset;
    post_ctrl(c, CtrlMsg::Type::Reset);
}

void
FastPath::maybe_finish_close(Connection& c)
{
    if (c.state_ != ConnState::FinSent)
        return;
    if (c.fin_acked_ && c.peer_fin_rcvd_)
        enter_closed(c);
}

void
FastPath::enter_closed(Connection& c)
{
    c.state_ = ConnState::Closed;
    cancel_timer(c);
    c.backlog_.clear();
    c.unacked_.clear();
    ++stats_.conns_closed;
    post_ctrl(c, CtrlMsg::Type::Closed);
    // Time-wait: keep the demux entry so a peer retransmitting its
    // FIN (our final ACK may have been lost) still gets re-ACKed.
    uint32_t id = c.id_;
    sim::TimePs linger = c.cfg_.rto * kTimeWaitRtos;
    eq_.schedule_in(linger, [this, id] {
        Connection* conn = find(id);
        if (conn && conn->state_ == ConnState::Closed)
            free_conn(id);
    });
}

// ---------------------------------------------------------------------
// RX machinery
// ---------------------------------------------------------------------

void
FastPath::on_rx(net::Packet&& pkt)
{
    ++stats_.frames_rx;
    if (pkt.size() < net::kEthHeaderLen)
        return;
    net::EthHeader eth = net::EthHeader::decode(pkt.bytes());
    if (eth.ethertype == net::kEtherTypeArp) {
        on_arp(pkt);
        return;
    }
    net::ParsedPacket pp = net::parse(pkt);
    if (pp.tcp && pp.ipv4)
        on_tcp(pp, pkt);
}

void
FastPath::on_arp(const net::Packet& pkt)
{
    auto arp = net::ArpHeader::decode(pkt.bytes() + net::kEthHeaderLen,
                                      pkt.size() - net::kEthHeaderLen);
    if (!arp)
        return;
    if (arp->oper == net::ArpHeader::kReply) {
        arp_cache_[arp->sender_ip] = arp->sender_mac;
        arp_pending_.erase(arp->sender_ip);
        on_arp_resolved(arp->sender_ip);
        return;
    }
    if (arp->oper == net::ArpHeader::kRequest && cfg_.arp_responder &&
        arp->target_ip == cfg_.ip) {
        // Learn the asker (we are about to talk back to it anyway).
        arp_cache_[arp->sender_ip] = arp->sender_mac;
        ++stats_.arp_replies_sent;

        net::EthHeader eth;
        eth.src = cfg_.mac;
        eth.dst = arp->sender_mac;
        eth.ethertype = net::kEtherTypeArp;

        net::ArpHeader reply;
        reply.oper = net::ArpHeader::kReply;
        reply.sender_mac = cfg_.mac;
        reply.sender_ip = cfg_.ip;
        reply.target_mac = arp->sender_mac;
        reply.target_ip = arp->sender_ip;

        net::Packet out;
        out.data.resize(net::kEthHeaderLen + net::kArpLen);
        eth.encode(out.bytes());
        reply.encode(out.bytes() + net::kEthHeaderLen);
        emit(std::move(out));
        on_arp_resolved(arp->sender_ip);
    }
}

void
FastPath::add_arp_entry(uint32_t ip, const net::MacAddr& mac)
{
    arp_cache_[ip] = mac;
    arp_pending_.erase(ip);
    on_arp_resolved(ip); // release anything parked on this next hop
}

void
FastPath::maybe_send_arp(uint32_t next_hop_ip)
{
    if (arp_pending_.count(next_hop_ip))
        return; // request already on the wire for this next hop
    arp_pending_[next_hop_ip] = true;
    ++stats_.arp_requests;

    net::EthHeader eth;
    eth.src = cfg_.mac;
    eth.dst = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    eth.ethertype = net::kEtherTypeArp;

    net::ArpHeader arp;
    arp.oper = net::ArpHeader::kRequest;
    arp.sender_mac = cfg_.mac;
    arp.sender_ip = cfg_.ip;
    arp.target_ip = next_hop_ip;

    net::Packet pkt;
    pkt.data.resize(net::kEthHeaderLen + net::kArpLen);
    eth.encode(pkt.bytes());
    arp.encode(pkt.bytes() + net::kEthHeaderLen);
    emit(std::move(pkt));
}

void
FastPath::on_arp_resolved(uint32_t ip)
{
    // Only connections routing to this next hop were parked on it;
    // everyone else never noticed (per-next-hop isolation).
    for (auto& [id, c] : conns_)
        if (c->key_.remote_ip == ip)
            pump(*c);
}

void
FastPath::on_tcp(const net::ParsedPacket& pp, const net::Packet& pkt)
{
    ++stats_.segments_received;
    const net::TcpHeader& tcp = *pp.tcp;
    ConnKey key{pp.ipv4->src, tcp.sport, tcp.dport};
    Connection* c = find_by_key(key);

    if (!c) {
        // Passive open: SYN for a listening port.
        if ((tcp.flags & kTcpSyn) && !(tcp.flags & kTcpAck)) {
            auto lit = listeners_.find(tcp.dport);
            if (lit != listeners_.end()) {
                Connection* nc = create_conn(lit->second, 0, key);
                if (!nc)
                    return;
                nc->cookie_ = nc->id_;
                nc->state_ = ConnState::SynRcvd;
                nc->rcv_nxt_ = tcp.seq + 1;
                // Learn the peer's MAC from the frame itself, the way
                // a real stack primes its neighbor table from traffic.
                if (pp.eth)
                    arp_cache_[key.remote_ip] = pp.eth->src;
                Connection::Segment synack;
                synack.seq = nc->snd_nxt_;
                synack.syn = true;
                nc->snd_nxt_ += 1;
                nc->backlog_.push_back(std::move(synack));
                pump(*nc);
                return;
            }
        }
        ++stats_.stray_segments;
        return;
    }

    if (tcp.flags & kTcpRst) {
        if (c->state_ != ConnState::Closed &&
            c->state_ != ConnState::Reset)
            reset_conn(*c);
        return;
    }

    switch (c->state_) {
    case ConnState::SynSent:
        if ((tcp.flags & kTcpSyn) && (tcp.flags & kTcpAck)) {
            c->rcv_nxt_ = tcp.seq + 1;
            handle_ack(*c, tcp.ack);
            bool syn_outstanding = false;
            for (const auto& s : c->unacked_)
                syn_outstanding |= s.syn;
            for (const auto& s : c->backlog_)
                syn_outstanding |= s.syn;
            if (c->state_ == ConnState::SynSent && !syn_outstanding) {
                // Our SYN is covered: handshake done.
                c->state_ = ConnState::Established;
                ++stats_.conns_opened;
                post_ctrl(*c, CtrlMsg::Type::Opened);
                send_pure_ack(*c);
                pump(*c);
            }
        }
        break;

    case ConnState::SynRcvd:
        if (tcp.flags & kTcpAck) {
            handle_ack(*c, tcp.ack);
            if (c->state_ == ConnState::SynRcvd &&
                c->unacked_.empty()) {
                // Our SYN-ACK is covered: connection established.
                c->state_ = ConnState::Established;
                ++stats_.conns_accepted;
                post_ctrl(*c, CtrlMsg::Type::Accepted);
            }
        }
        if (c->state_ == ConnState::Established) {
            // The completing segment may already carry data (the pure
            // handshake ACK was lost and the first data segment both
            // completes and feeds the connection).
            if (pp.payload_len > 0)
                handle_data(*c, pp, pkt);
            if (tcp.flags & kTcpFin)
                handle_fin(*c, tcp.seq + uint32_t(pp.payload_len));
        }
        break;

    case ConnState::Established:
    case ConnState::FinSent:
        if (tcp.flags & kTcpSyn) {
            // Retransmitted SYN-ACK: our handshake ACK was lost.
            // Re-ACK so the peer can leave SynRcvd.
            send_pure_ack(*c);
            break;
        }
        if (tcp.flags & kTcpAck)
            handle_ack(*c, tcp.ack);
        if (pp.payload_len > 0)
            handle_data(*c, pp, pkt);
        if (tcp.flags & kTcpFin)
            handle_fin(*c, tcp.seq + uint32_t(pp.payload_len));
        break;

    case ConnState::Closed:
        // Time-wait: the peer retransmitted (our last ACK was lost);
        // re-ACK so it can finish.
        send_pure_ack(*c);
        break;

    case ConnState::Reset:
        break;
    }
}

void
FastPath::handle_ack(Connection& c, uint32_t ack)
{
    // Cumulative ACK: everything below `ack` is delivered.
    if (seq_le(ack, c.snd_una_))
        return; // duplicate or stale
    if (seq_lt(c.snd_nxt_, ack))
        ack = c.snd_nxt_; // never ack beyond what was ever queued
    c.snd_una_ = ack;
    c.retries_ = 0;
    while (!c.unacked_.empty() &&
           seq_le(c.unacked_.front().seq +
                      c.unacked_.front().seq_len(),
                  ack)) {
        c.bytes_acked_ += c.unacked_.front().payload.size();
        c.unacked_.pop_front();
    }
    if (c.fin_queued_ && seq_le(c.fin_seq_ + 1, ack))
        c.fin_acked_ = true;

    // Progress voids any armed timer; re-arm below if data remains.
    cancel_timer(c);
    report_tx_done(c);
    maybe_finish_close(c);
    pump(c);
}

void
FastPath::handle_data(Connection& c, const net::ParsedPacket& pp,
                      const net::Packet& pkt)
{
    uint32_t seq = pp.tcp->seq;
    uint32_t len = uint32_t(pp.payload_len);
    if (seq == c.rcv_nxt_) {
        c.rcv_nxt_ += len;
        deliver_data(c, pkt.bytes() + pp.payload_offset, len);
        send_pure_ack(c);
    } else if (seq_lt(seq, c.rcv_nxt_)) {
        // Retransmit of delivered data: re-ACK so the sender advances.
        ++c.dup_segments_;
        ++stats_.dup_segments;
        send_pure_ack(c);
    } else {
        // Hole before this segment: go-back-N receivers drop and send
        // a duplicate ACK for the missing byte.
        ++c.ooo_segments_;
        ++stats_.ooo_segments;
        send_pure_ack(c);
    }
}

void
FastPath::handle_fin(Connection& c, uint32_t fin_seq)
{
    if (fin_seq == c.rcv_nxt_) {
        c.rcv_nxt_ += 1;
        c.peer_fin_rcvd_ = true;
        send_pure_ack(c);
        if (c.state_ == ConnState::Established &&
            c.auto_close_peer_fin_) {
            // Passive close: our FIN follows once queued data drains.
            queue_fin(c);
        }
        maybe_finish_close(c);
    } else if (seq_lt(fin_seq, c.rcv_nxt_)) {
        ++c.dup_segments_;
        ++stats_.dup_segments;
        send_pure_ack(c);
    } else {
        ++c.ooo_segments_;
        ++stats_.ooo_segments;
        send_pure_ack(c);
    }
}

// ---------------------------------------------------------------------
// RX-ring delivery
// ---------------------------------------------------------------------

void
FastPath::deliver_data(Connection& c, const uint8_t* data, size_t len)
{
    c.bytes_delivered_ += len;
    if (c.app_ == kNoApp)
        return; // ring-less consumer (wrapper mode): counted only
    ParkedRx item;
    item.conn_id = c.id_;
    item.type = kDescData;
    item.bytes.assign(data, data + len);
    park_or_post(c.app_, std::move(item));
}

void
FastPath::report_tx_done(Connection& c)
{
    if (c.app_ == kNoApp) {
        c.tx_records_.clear();
        return;
    }
    // Coalesce plain records into one aggregate bump, but flush the
    // pending aggregate and emit a dedicated completion whenever a
    // tagged record retires, so the tag's position in the delivery
    // order is exact.
    auto emit_bump = [&](uint32_t bytes, uint32_t tag, bool tagged) {
        ParkedRx item;
        item.conn_id = c.id_;
        item.type = kDescTxDone;
        item.len = bytes;
        item.tag = tag;
        item.tagged = tagged;
        park_or_post(c.app_, std::move(item));
    };
    uint32_t bytes = 0;
    while (!c.tx_records_.empty() &&
           seq_le(c.tx_records_.front().end_seq, c.snd_una_)) {
        // A copy: emit_bump notifies the app, which may queue more
        // records (and move the Fifo's storage) before we read rec.
        const Connection::TxRecord rec = c.tx_records_.front();
        if (rec.tagged) {
            if (bytes)
                emit_bump(bytes, 0, false);
            bytes = 0;
            emit_bump(rec.bytes, rec.tag, true);
        } else {
            bytes += rec.bytes;
        }
        c.tx_records_.pop_front();
    }
    if (bytes)
        emit_bump(bytes, 0, false);
}

void
FastPath::park_or_post(uint32_t app, ParkedRx&& item)
{
    AppContext& a = *apps_.at(app);
    // FIFO per app: once anything is parked, everything parks behind
    // it, or deliveries would reorder.
    if (!a.parked.empty() || !try_post_rx(app, item)) {
        ++stats_.rx_ring_stalls;
        a.parked.push_back(std::move(item));
    }
}

bool
FastPath::try_post_rx(uint32_t app, const ParkedRx& item)
{
    AppContext& a = *apps_.at(app);
    RingDesc d;
    d.opaque = item.conn_id;
    d.type = item.type;
    if (item.type == kDescData) {
        uint32_t slot = a.rx.next_slot();
        d.addr = uint64_t(slot) * cfg_.slot_bytes;
        d.len = uint32_t(item.bytes.size());
        if (!a.rx.post(d))
            return false;
        std::memcpy(a.rx_arena.data() + d.addr, item.bytes.data(),
                    item.bytes.size());
        ++stats_.rx_descs;
    } else {
        d.len = item.len;
        if (item.tagged) {
            d.tag = item.tag;
            d.flags = kDescFlagTxTag;
        }
        if (!a.rx.post(d))
            return false;
        ++stats_.tx_done_descs;
        if (item.tagged)
            ++stats_.tagged_tx_done_descs;
    }
    notify_app(app);
    return true;
}

void
FastPath::rx_doorbell(uint32_t app)
{
    flush_parked(app);
}

void
FastPath::flush_parked(uint32_t app)
{
    AppContext& a = *apps_.at(app);
    while (!a.parked.empty() && try_post_rx(app, a.parked.front()))
        a.parked.pop_front();
}

} // namespace fld::driver
