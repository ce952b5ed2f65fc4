#include "nic/nic.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "sim/trace.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace fld::nic {

namespace {

/** Recompute IPv4 and L4 checksums in place (TX checksum offload).
 *  @p pp is the parse of @p pkt; its checksum fields follow the bytes. */
void
fix_checksums(net::Packet& pkt, net::ParsedPacket& pp)
{
    if (!pp.ipv4)
        return;
    uint8_t* p = pkt.bytes();
    size_t ihl = (p[pp.l3_offset] & 0x0f) * 4;
    // IPv4 header checksum.
    p[pp.l3_offset + 10] = 0;
    p[pp.l3_offset + 11] = 0;
    uint16_t hc = net::ipv4_header_checksum(p + pp.l3_offset, ihl);
    store_be16(p + pp.l3_offset + 10, hc);
    pp.ipv4->checksum = hc;

    if (pp.ipv4->is_fragment())
        return; // L4 checksum spans the whole datagram; cannot fix here
    size_t l4_len = pp.ipv4->total_len - ihl;
    if (pp.l4_offset + l4_len > pkt.size())
        return;
    if (pp.udp) {
        store_be16(p + pp.l4_offset + 6, 0);
        uint16_t c = net::l4_checksum(pp.ipv4->src, pp.ipv4->dst,
                                      net::kIpProtoUdp, p + pp.l4_offset,
                                      l4_len);
        store_be16(p + pp.l4_offset + 6, c);
        pp.udp->checksum = c;
    } else if (pp.tcp) {
        store_be16(p + pp.l4_offset + 16, 0);
        uint16_t c = net::l4_checksum(pp.ipv4->src, pp.ipv4->dst,
                                      net::kIpProtoTcp, p + pp.l4_offset,
                                      l4_len);
        store_be16(p + pp.l4_offset + 16, c);
        pp.tcp->checksum = c;
    }
}

} // namespace

NicDevice::NicDevice(std::string name, sim::EventQueue& eq,
                     pcie::PcieFabric& fabric, pcie::PortId dma_port,
                     NicConfig cfg)
    : name_(std::move(name)), eq_(eq), fabric_(fabric),
      dma_port_(dma_port), cfg_(cfg), uplink_(name_ + ".uplink")
{
    uplink_.set_rx_handler(
        [this](net::Packet&& pkt) { wire_receive(std::move(pkt)); });
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

uint32_t
NicDevice::create_cq(const CqConfig& cfg)
{
    if (!is_pow2(cfg.entries))
        fatal("create_cq: entries must be a power of two");
    uint32_t cqn = next_id_++;
    cqs_[cqn].cfg = cfg;
    return cqn;
}

uint32_t
NicDevice::create_sq(const SqConfig& cfg)
{
    if (!is_pow2(cfg.entries))
        fatal("create_sq: entries must be a power of two");
    if (!cqs_.count(cfg.cqn))
        fatal("create_sq: unknown cqn %u", cfg.cqn);
    uint32_t sqn = next_id_++;
    SqState st;
    st.cfg = cfg;
    // Shaper burst: a couple of jumbo frames, as in hardware ETS.
    st.shaper = sim::TokenBucket(cfg.rate_limit_gbps, 4096);
    sqs_[sqn] = std::move(st);
    return sqn;
}

uint32_t
NicDevice::create_rq(const RqConfig& cfg)
{
    if (!is_pow2(cfg.entries))
        fatal("create_rq: entries must be a power of two");
    if (!cqs_.count(cfg.cqn))
        fatal("create_rq: unknown cqn %u", cfg.cqn);
    uint32_t rqn = next_id_++;
    rqs_[rqn] = RqState{cfg, 0, 0, 0, {}, {}, 0, 0};
    return rqn;
}

uint32_t
NicDevice::create_tir(const TirConfig& cfg)
{
    for (uint32_t rqn : cfg.rqns) {
        if (!rqs_.count(rqn))
            fatal("create_tir: unknown rqn %u", rqn);
    }
    uint32_t tir = next_id_++;
    tirs_[tir] = cfg;
    return tir;
}

uint32_t
NicDevice::create_qp(const QpConfig& cfg)
{
    if (!sqs_.count(cfg.sqn) || !rqs_.count(cfg.rqn))
        fatal("create_qp: unknown sqn/rqn");
    uint32_t qpn = next_id_++;
    QpState st;
    st.cfg = cfg;
    qps_[qpn] = std::move(st);
    sqs_[cfg.sqn].is_rdma = true;
    sqs_[cfg.sqn].qpn = qpn;
    return qpn;
}

void
NicDevice::connect_qp(uint32_t qpn, const QpPeer& peer)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end())
        fatal("connect_qp: unknown qpn %u", qpn);
    it->second.peer = peer;
    it->second.connected = true;
}

VportId
NicDevice::add_vport()
{
    return next_vport_++;
}

uint64_t
NicDevice::add_rule(uint32_t table, int priority, FlowMatch match,
                    std::vector<Action> actions)
{
    pipeline_dirty_ = true;
    return flows_.add_rule(table, priority, std::move(match),
                           std::move(actions));
}

bool
NicDevice::remove_rule(uint64_t id)
{
    pipeline_dirty_ = true;
    return flows_.remove_rule(id);
}

void
NicDevice::set_pipeline_program(PipelineConfig cfg)
{
    for (const VipPoolConfig& p : cfg.pools)
        vip_pools_[p.id] = p.backends;
    program_.emplace(cfg);
}

void
NicDevice::clear_pipeline_program()
{
    program_.reset();
}

void
NicDevice::set_vip_pool(uint32_t pool_id, std::vector<uint32_t> backends)
{
    vip_pools_[pool_id] = std::move(backends);
}

const Pipeline&
NicDevice::pipeline()
{
    return steering_pipeline();
}

Pipeline&
NicDevice::steering_pipeline()
{
    if (program_)
        return *program_;
    if (pipeline_dirty_) {
        // Hit counters belong to the rules, not to one compilation:
        // installing or removing a rule keeps every other rule's.
        Pipeline next(Pipeline::config_from(flows_));
        next.carry_hits(pipeline_);
        pipeline_ = std::move(next);
        pipeline_dirty_ = false;
    }
    return pipeline_;
}

void
NicDevice::set_meter(uint32_t meter_id, double gbps, uint64_t burst_bytes)
{
    meters_.insert_or_assign(meter_id,
                             sim::TokenBucket(gbps, burst_bytes));
}

void
NicDevice::set_sq_rate(uint32_t sqn, double gbps)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        fatal("set_sq_rate: unknown sqn %u", sqn);
    it->second.shaper.set_rate(gbps);
    it->second.cfg.rate_limit_gbps = gbps;
}

void
NicDevice::set_rq_ring_addr(uint32_t rqn, uint64_t addr)
{
    auto it = rqs_.find(rqn);
    if (it == rqs_.end())
        fatal("set_rq_ring_addr: unknown rqn %u", rqn);
    it->second.cfg.ring_addr = addr;
}

void
NicDevice::set_vport_default_tir(VportId vport, uint32_t tir)
{
    vport_default_tir_[vport] = tir;
}

void
NicDevice::emit(NicEvent::Type type, uint32_t id)
{
    if (events_)
        events_(NicEvent{type, id});
}

// ---------------------------------------------------------------------
// Doorbell BAR
// ---------------------------------------------------------------------

void
NicDevice::bar_write(uint64_t addr, const uint8_t* data, size_t len)
{
    // WQE-by-MMIO (BlueFlame-style, §6 "PCIe Optimizations"): a
    // doorbell carrying the WQE inline, saving the descriptor-fetch
    // round trip for latency-sensitive single posts.
    if (len == 4 + kWqeStride && addr < kRqDbBase) {
        uint32_t pi = load_le32(data);
        Wqe wqe = Wqe::decode(data + 4);
        uint32_t sqn = uint32_t((addr - kSqDbBase) / 8);
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::DoorbellWrite, name_,
                     "sq_inline", wqe.corr, sqn, pi, 1, len);
        doorbell_sq_inline(sqn, pi, wqe);
        return;
    }
    if (len != 4) {
        FLD_WARN("nic", "%s: unexpected doorbell size %zu", name_.c_str(),
                 len);
        return;
    }
    uint32_t value = load_le32(data);
    if (addr >= kRqDbBase) {
        uint32_t rqn = uint32_t((addr - kRqDbBase) / 8);
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::DoorbellWrite, name_,
                     "rq", 0, rqn, value, 1, len);
        doorbell_rq(rqn, value);
    } else {
        uint32_t sqn = uint32_t((addr - kSqDbBase) / 8);
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::DoorbellWrite, name_,
                     "sq", 0, sqn, value, 1, len);
        doorbell_sq(sqn, value);
    }
}

void
NicDevice::doorbell_sq_inline(uint32_t sqn, uint32_t pi, const Wqe& wqe)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end()) {
        FLD_WARN("nic", "inline doorbell for unknown sq %u", sqn);
        return;
    }
    SqState& sq = it->second;
    sq.pi = pi;
    // Use the inline WQE only when it is exactly the next one to
    // fetch; otherwise fall back to a normal ring fetch.
    if (pi == sq.fetch_ci + 1 && sq.fetches_inflight == 0) {
        sq.fetch_ci = pi;
        eq_.schedule_in(kDoorbellLatency, [this, sqn, wqe] {
            execute_wqe(sqn, wqe);
        });
        return;
    }
    eq_.schedule_in(kDoorbellLatency,
                    [this, sqn] { maybe_fetch_wqes(sqn); });
}

void
NicDevice::bar_read(uint64_t addr, uint8_t* out, size_t len)
{
    (void)addr;
    std::memset(out, 0, len);
}

// ---------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------

void
NicDevice::doorbell_sq(uint32_t sqn, uint32_t pi)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end()) {
        FLD_WARN("nic", "doorbell for unknown sq %u", sqn);
        return;
    }
    it->second.pi = pi;
    eq_.schedule_in(kDoorbellLatency,
                    [this, sqn] { maybe_fetch_wqes(sqn); });
}

void
NicDevice::maybe_fetch_wqes(uint32_t sqn)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        return;
    SqState& sq = it->second;
    // Pipelined descriptor DMA: several ring reads may be in flight;
    // completions arrive in issue order (FIFO per link), so WQEs
    // still execute in ring order.
    while (sq.fetches_inflight < cfg_.max_fetches_inflight &&
           sq.fetch_ci != sq.pi) {
        uint32_t slot = sq.fetch_ci % sq.cfg.entries;
        uint32_t n = std::min({kWqeFetchBatch,
                               sq.pi - sq.fetch_ci,
                               sq.cfg.entries - slot});
        sq.fetches_inflight++;
        uint32_t first = sq.fetch_ci;
        sq.fetch_ci += n;
        uint64_t addr = sq.cfg.ring_addr + uint64_t(slot) * kWqeStride;
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::WqeFetch, name_, "sq",
                     0, sqn, first, n, uint64_t(n) * kWqeStride);
        // Descriptor reads decode in place: the fabric keeps the buffer.
        fabric_.read(
            dma_port_, addr, size_t(n) * kWqeStride,
            [this, sqn, n](std::vector<uint8_t>& data) {
                auto it2 = sqs_.find(sqn);
                if (it2 == sqs_.end())
                    return;
                SqState& sq2 = it2->second;
                sq2.fetches_inflight--;
                for (uint32_t i = 0; i < n; ++i) {
                    Wqe wqe =
                        Wqe::decode(data.data() + i * kWqeStride);
                    execute_wqe(sqn, wqe);
                }
                maybe_fetch_wqes(sqn);
            });
    }
}

void
NicDevice::execute_wqe(uint32_t sqn, Wqe wqe)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        return;
    uint64_t seq = it->second.next_exec_seq++;

    if (wqe.opcode == WqeOpcode::Nop || wqe.byte_count == 0) {
        wqe_ready(sqn, seq, wqe, {});
        return;
    }
    // Gather the payload from wherever the descriptor points (host
    // memory for the CPU driver, FLD BAR for accelerators). Gathers
    // pipeline; retirement stays in order.
    if (auto* tr = sim::Tracer::active())
        tr->emit(eq_.now(), sim::TraceEventKind::PayloadRead, name_,
                 it->second.is_rdma ? "rdma" : "eth", wqe.corr, sqn,
                 wqe.wqe_index, 1, wqe.byte_count);
    // The payload read's buffer becomes the frame: take ownership.
    fabric_.read(dma_port_, wqe.addr, wqe.byte_count,
                 [this, sqn, seq, wqe](std::vector<uint8_t>& payload) {
                     wqe_ready(sqn, seq, wqe, std::move(payload));
                 });
}

void
NicDevice::wqe_ready(uint32_t sqn, uint64_t seq, const Wqe& wqe,
                     std::vector<uint8_t> payload)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        return;
    SqState& sq = it->second;
    uint64_t window = seq - sq.next_retire_seq + 1;
    if (window > sq.ready.size()) {
        if (window > sq.cfg.entries)
            panic("%s: sq %u has more than its %u entries outstanding",
                  name_.c_str(), sqn, sq.cfg.entries);
        size_t cap = std::max<size_t>(sq.ready.size(), 4);
        while (cap < window)
            cap *= 2;
        std::vector<ReadyWqe> grown(std::min<size_t>(cap, sq.cfg.entries));
        for (uint64_t s = sq.next_retire_seq;
             s < sq.next_retire_seq + sq.ready.size(); ++s)
            grown[s % grown.size()] = std::move(sq.ready[s % sq.ready.size()]);
        sq.ready = std::move(grown);
    }
    sq.ready[seq % sq.ready.size()] = {true, wqe, std::move(payload)};

    for (;;) {
        ReadyWqe& r = sq.ready[sq.next_retire_seq % sq.ready.size()];
        if (!r.filled)
            break;
        r.filled = false;
        sq.next_retire_seq++;
        if (r.wqe.opcode == WqeOpcode::Nop)
            sq_complete(sqn, r.wqe);
        else if (sq.is_rdma)
            rdma_send(sq.qpn, r.wqe, std::move(r.payload));
        else
            eth_send(sqn, r.wqe, std::move(r.payload));
    }
}

void
NicDevice::eth_send(uint32_t sqn, const Wqe& wqe,
                    std::vector<uint8_t> payload)
{
    net::Packet pkt(std::move(payload));
    pkt.meta.flow_tag = wqe.flow_tag;
    pkt.meta.next_table = wqe.next_table;
    pkt.meta.queue_id = uint16_t(sqn);
    pkt.meta.corr = wqe.corr;
    // TX checksum offload runs at the start of the egress pipeline
    // pass, on that pass's parse: nothing reads the bytes before it.

    stats_.tx_packets++;
    stats_.tx_bytes += pkt.size();
    shaped_egress(sqn, std::move(pkt));
    sq_complete(sqn, wqe);
}

void
NicDevice::sq_complete(uint32_t sqn, const Wqe& wqe)
{
    if (!wqe.signaled)
        return; // selective completion signalling
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        return;
    Cqe cqe;
    cqe.opcode = CqeOpcode::TxOk;
    cqe.qpn = it->second.is_rdma ? it->second.qpn : sqn;
    cqe.wqe_counter = wqe.wqe_index;
    cqe.byte_count = wqe.byte_count;
    cqe.msg_id = wqe.msg_id;
    cqe.corr = wqe.corr;
    write_cqe(it->second.cfg.cqn, cqe);
}

void
NicDevice::shaped_egress(uint32_t sqn, net::Packet&& pkt)
{
    auto it = sqs_.find(sqn);
    if (it == sqs_.end())
        return;
    SqState& sq = it->second;
    VportId vport = sq.cfg.vport;
    uint32_t start_table = pkt.meta.next_table;

    sim::TimePs start = std::max(eq_.now(), sq.shaper_free_at);
    if (sq.cfg.rate_limit_gbps > 0.0) {
        start = sq.shaper.ready_time(start, pkt.size());
        sq.shaper.try_consume(start, pkt.size());
    }
    sq.shaper_free_at = start;

    sim::TimePs when = start + kPipelineLatency;
    eq_.schedule_at(when, [this, vport, start_table,
                           pkt = std::move(pkt)]() mutable {
        run_pipeline(std::move(pkt), vport, start_table, true);
    });
}

// ---------------------------------------------------------------------
// Match-action pipeline
// ---------------------------------------------------------------------

void
NicDevice::run_pipeline(net::Packet&& pkt, VportId in_vport,
                        uint32_t start_table, bool tx_offload)
{
    // The pass's one parse. Checksum offload, steering, RSS, the RX
    // checksum checks and the CQE fragment flag all read it; only the
    // actions that rewrite bytes (NAT, VXLAN decap/encap) parse again.
    net::ParsedPacket pp = net::parse(pkt);
    if (tx_offload)
        fix_checksums(pkt, pp);
    Pipeline& pipe = steering_pipeline();
    uint32_t table = start_table;
    FlowFields fields = FlowFields::of(pkt, pp, in_vport);

    for (int depth = 0; depth < Pipeline::kMaxDepth; ++depth) {
        const Action* acts = nullptr;
        size_t count = 0;
        uint64_t rule_id = 0;
        if (CompiledEntry* entry = pipe.lookup(table, fields)) {
            entry->hits++;
            entry->hit_bytes += pkt.size();
            acts = pipe.actions(*entry);
            count = entry->action_count;
            rule_id = entry->rule_id;
        } else {
            pipe.default_actions(table, acts, count);
            if (count == 0) {
                stats_.drops_no_rule++;
                return;
            }
        }

        for (size_t ai = 0; ai < count; ++ai) {
            const Action& act = acts[ai];
            switch (act.type) {
              case ActionType::SetTag:
                pkt.meta.flow_tag = act.arg0;
                fields.flow_tag = act.arg0;
                flows_.note_tag(act.arg0, pkt.size());
                break;
              case ActionType::Count:
                flows_.bump_counter(act.arg0, pkt.size());
                break;
              case ActionType::VxlanDecap: {
                auto inner = net::vxlan_decapsulate(pkt);
                if (!inner) {
                    stats_.drops_rule++;
                    return;
                }
                if (auto* tr = sim::Tracer::active())
                    tr->emit(eq_.now(), sim::TraceEventKind::Tunnel,
                             name_, "decap", pkt.meta.corr, 0, 0, 1,
                             inner->size());
                pkt = std::move(*inner);
                pp = net::parse(pkt);
                fields = FlowFields::of(pkt, pp, in_vport);
                break;
              }
              case ActionType::VxlanEncap: {
                net::MacAddr outer_src{2, 0, 0, 0, 0, 1};
                net::MacAddr outer_dst{2, 0, 0, 0, 0, 2};
                pkt = net::vxlan_encapsulate(pkt, act.arg1, act.arg2,
                                             act.arg3, outer_src,
                                             outer_dst);
                if (auto* tr = sim::Tracer::active())
                    tr->emit(eq_.now(), sim::TraceEventKind::Tunnel,
                             name_, "encap", pkt.meta.corr, 0, 0, 1,
                             pkt.size());
                pp = net::parse(pkt);
                fields = FlowFields::of(pkt, pp, in_vport);
                break;
              }
              case ActionType::Meter: {
                auto mit = meters_.find(act.arg0);
                if (mit != meters_.end() &&
                    !mit->second.try_consume(eq_.now(), pkt.size())) {
                    stats_.drops_meter++;
                    return;
                }
                break;
              }
              case ActionType::Goto:
                table = act.arg0;
                break; // continue outer loop
              case ActionType::ForwardVport:
                deliver_to_vport(VportId(act.arg0), std::move(pkt), pp);
                return;
              case ActionType::ForwardTir:
                deliver_to_tir(act.arg0, std::move(pkt), pp);
                return;
              case ActionType::ForwardQueue:
                offload_rx_checks(pkt, pp);
                deliver_to_rq(act.arg0, std::move(pkt),
                              pp.is_ip_fragment());
                return;
              case ActionType::SendToAccel:
                // FLD-E acceleration action: annotate with the table to
                // resume at, then deliver to the accelerator's RQ.
                pkt.meta.next_table = act.arg1;
                offload_rx_checks(pkt, pp);
                deliver_to_rq(act.arg0, std::move(pkt),
                              pp.is_ip_fragment());
                return;
              case ActionType::Drop:
                stats_.drops_rule++;
                emit(NicEvent::Type::RuleDrop, uint32_t(rule_id));
                return;
              case ActionType::AclDeny:
                stats_.drops_acl++;
                emit(NicEvent::Type::AclDeny, act.arg0);
                return;
              case ActionType::NatRewrite:
                nat_rewrite_packet(pkt, pp, act);
                fields = FlowFields::of(pkt, pp, in_vport);
                break;
              case ActionType::VipSelect: {
                auto pit = vip_pools_.find(act.arg0);
                if (pit == vip_pools_.end() || pit->second.empty()) {
                    stats_.drops_rule++;
                    emit(NicEvent::Type::RuleDrop, uint32_t(rule_id));
                    return;
                }
                Action nat = nat_dst(
                    select_vip_backend(pit->second, fields));
                nat_rewrite_packet(pkt, pp, nat);
                fields = FlowFields::of(pkt, pp, in_vport);
                break;
              }
            }
        }
        // If the action list ended without a terminal action and no
        // Goto changed the table, the packet is dropped.
        bool had_goto = false;
        for (size_t ai = 0; ai < count; ++ai)
            had_goto |= acts[ai].type == ActionType::Goto;
        if (!had_goto) {
            stats_.drops_no_rule++;
            return;
        }
    }
    panic("match-action pipeline loop exceeded depth limit");
}

void
NicDevice::nat_rewrite_packet(net::Packet& pkt, net::ParsedPacket& pp,
                              const Action& act)
{
    if (!pp.ipv4)
        return;
    uint8_t* p = pkt.bytes();
    if (act.arg0 & kNatSrcIp)
        store_be32(p + pp.l3_offset + 12, act.arg3);
    if (act.arg0 & kNatDstIp)
        store_be32(p + pp.l3_offset + 16, act.arg1);
    if (!pp.ipv4->is_fragment() && (pp.udp || pp.tcp)) {
        if (act.arg0 & kNatSrcPort)
            store_be16(p + pp.l4_offset + 0, uint16_t(act.arg2 >> 16));
        if (act.arg0 & kNatDstPort)
            store_be16(p + pp.l4_offset + 2,
                       uint16_t(act.arg2 & 0xffff));
    }
    // The pseudo-header covers the rewritten addresses, so both
    // checksums go stale; refresh them like TX offload does.
    pp = net::parse(pkt);
    fix_checksums(pkt, pp);
}

void
NicDevice::deliver_to_vport(VportId vport, net::Packet&& pkt,
                            const net::ParsedPacket& pp)
{
    if (vport == kUplinkVport) {
        uplink_.transmit(std::move(pkt));
        return;
    }
    // Hardware-transport packets are consumed by the RDMA engine.
    if (pp.eth && pp.eth->ethertype == kEtherTypeRoce) {
        rdma_rx(vport, std::move(pkt));
        return;
    }
    auto dit = vport_default_tir_.find(vport);
    if (dit != vport_default_tir_.end()) {
        deliver_to_tir(dit->second, std::move(pkt), pp);
        return;
    }
    stats_.drops_no_rule++;
}

void
NicDevice::deliver_to_tir(uint32_t tir, net::Packet&& pkt,
                          const net::ParsedPacket& pp)
{
    auto it = tirs_.find(tir);
    if (it == tirs_.end() || it->second.rqns.empty()) {
        stats_.drops_no_rule++;
        return;
    }
    const auto& rqns = it->second.rqns;

    // RSS: 4-tuple hash when L4 is visible; IP-pair hash otherwise.
    // IP fragments hide their ports, so *all* fragments between two
    // hosts collapse onto one queue — the §8.2.2 failure mode.
    FlowFields f = FlowFields::of(pkt, pp, 0);
    const net::RssTable& rss = net::default_rss_table();
    uint32_t hash = f.has_l4 && !f.is_fragment
                        ? rss.ipv4(f.src_ip, f.dst_ip, f.sport, f.dport)
                        : rss.ip_pair(f.src_ip, f.dst_ip);
    pkt.meta.rss_hash = hash;
    offload_rx_checks(pkt, pp);
    deliver_to_rq(rqns[hash % rqns.size()], std::move(pkt),
                  pp.is_ip_fragment());
}

void
NicDevice::offload_rx_checks(net::Packet& pkt, const net::ParsedPacket& pp)
{
    pkt.meta.l3_csum_ok = false;
    pkt.meta.l4_csum_ok = false;
    if (!pp.ipv4)
        return;
    const uint8_t* p = pkt.bytes();
    size_t ihl = (p[pp.l3_offset] & 0x0f) * 4;
    pkt.meta.l3_csum_ok =
        net::internet_checksum(p + pp.l3_offset, ihl) == 0;
    if (pp.ipv4->is_fragment())
        return; // L4 checksum cannot be validated on fragments
    size_t l4_len = pp.ipv4->total_len >= ihl
                        ? size_t(pp.ipv4->total_len) - ihl : 0;
    if ((pp.udp || pp.tcp) && pp.l4_offset + l4_len <= pkt.size()) {
        uint32_t acc = 0;
        acc += pp.ipv4->src >> 16;
        acc += pp.ipv4->src & 0xffff;
        acc += pp.ipv4->dst >> 16;
        acc += pp.ipv4->dst & 0xffff;
        acc += pp.ipv4->proto;
        acc += uint32_t(l4_len);
        acc = net::checksum_partial(p + pp.l4_offset, l4_len, acc);
        pkt.meta.l4_csum_ok = net::checksum_fold(acc) == 0;
    }
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

void
NicDevice::wire_receive(net::Packet&& pkt)
{
    stats_.wire_rx_packets++;
    eq_.schedule_in(kPipelineLatency,
                    [this, pkt = std::move(pkt)]() mutable {
                        run_pipeline(std::move(pkt), kUplinkVport, 0);
                    });
}

void
NicDevice::doorbell_rq(uint32_t rqn, uint32_t pi)
{
    auto it = rqs_.find(rqn);
    if (it == rqs_.end()) {
        FLD_WARN("nic", "doorbell for unknown rq %u", rqn);
        return;
    }
    it->second.pi = pi;
    eq_.schedule_in(kDoorbellLatency,
                    [this, rqn] { maybe_fetch_rx_descs(rqn); });
}

void
NicDevice::maybe_fetch_rx_descs(uint32_t rqn)
{
    auto it = rqs_.find(rqn);
    if (it == rqs_.end())
        return;
    RqState& rq = it->second;
    while (rq.fetches_inflight < cfg_.max_fetches_inflight &&
           rq.fetch_ci != rq.pi &&
           rq.ready.size() < 2 * kRxDescFetchBatch) {
        uint32_t slot = rq.fetch_ci % rq.cfg.entries;
        uint32_t n = std::min({kRxDescFetchBatch,
                               rq.pi - rq.fetch_ci,
                               rq.cfg.entries - slot});
        rq.fetches_inflight++;
        uint32_t first_index = rq.fetch_ci;
        rq.fetch_ci += n;
        uint64_t addr =
            rq.cfg.ring_addr + uint64_t(slot) * kRxDescStride;
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::WqeFetch, name_, "rq",
                     0, rqn, first_index, n, uint64_t(n) * kRxDescStride);
        fabric_.read(
            dma_port_, addr, size_t(n) * kRxDescStride,
            [this, rqn, n, first_index](std::vector<uint8_t>& data) {
                auto it2 = rqs_.find(rqn);
                if (it2 == rqs_.end())
                    return;
                RqState& rq2 = it2->second;
                rq2.fetches_inflight--;
                for (uint32_t i = 0; i < n; ++i) {
                    RxDesc d = RxDesc::decode(data.data() +
                                              i * kRxDescStride);
                    rq2.ready.emplace_back(first_index + i, d);
                }
                maybe_fetch_rx_descs(rqn);
            });
    }
}

bool
NicDevice::deliver_to_rq(uint32_t rqn, net::Packet&& pkt, bool ip_fragment,
                         std::optional<Cqe> rdma_info)
{
    if (rx_probe_)
        rx_probe_(rqn, pkt);
    auto it = rqs_.find(rqn);
    if (it == rqs_.end()) {
        stats_.drops_no_rule++;
        return false;
    }
    RqState& rq = it->second;

    // Find an MPRQ buffer with enough contiguous strides.
    for (;;) {
        if (!rq.current) {
            if (rq.ready.empty()) {
                stats_.drops_no_buffer++;
                emit(NicEvent::Type::RqNoBuffer, rqn);
                maybe_fetch_rx_descs(rqn);
                return false;
            }
            rq.current = rq.ready.front().second;
            rq.current_index = rq.ready.front().first;
            rq.ready.pop_front();
            rq.stride_used = 0;
            maybe_fetch_rx_descs(rqn);
        }
        const RxDesc& desc = *rq.current;
        uint32_t stride_size = 1u << desc.stride_shift;
        uint32_t needed =
            uint32_t(ceil_div<uint64_t>(std::max<size_t>(pkt.size(), 1),
                                        stride_size));
        if (needed > desc.stride_count) {
            // Packet can never fit this buffer geometry.
            stats_.drops_no_buffer++;
            emit(NicEvent::Type::RqNoBuffer, rqn);
            return false;
        }
        if (rq.stride_used + needed > desc.stride_count) {
            // MPRQ fragmentation: packets do not span buffers; the
            // remaining strides are wasted (bounded by half a buffer).
            rq.current.reset();
            continue;
        }

        uint64_t dst = desc.addr +
                       uint64_t(rq.stride_used) * stride_size;
        uint16_t stride_index = uint16_t(rq.stride_used);
        uint16_t wqe_index = uint16_t(rq.current_index);
        rq.stride_used += needed;
        if (rq.stride_used == desc.stride_count)
            rq.current.reset();

        Cqe cqe = rdma_info.value_or(Cqe{});
        if (!rdma_info)
            cqe.qpn = rqn; // Ethernet completions carry the rqn
        cqe.opcode = CqeOpcode::Rx;
        cqe.byte_count = uint32_t(pkt.size());
        cqe.rss_hash = pkt.meta.rss_hash;
        cqe.flow_tag = pkt.meta.flow_tag;
        cqe.stride_index = stride_index;
        cqe.rq_wqe_index = wqe_index;
        if (pkt.meta.l3_csum_ok)
            cqe.flags |= kCqeL3Ok;
        if (pkt.meta.l4_csum_ok)
            cqe.flags |= kCqeL4Ok;
        if (pkt.meta.tunneled)
            cqe.flags |= kCqeTunneled;
        if (!rdma_info) {
            // An RDMA completion carries message payload, not a frame:
            // only Ethernet completions report IP fragments.
            if (ip_fragment)
                cqe.flags |= kCqeIpFrag;
            // FLD-E resume table rides in the unused msg_offset field
            // for Ethernet completions.
            cqe.msg_offset = pkt.meta.next_table;
        }
        cqe.corr = pkt.meta.corr;

        stats_.rx_packets++;
        stats_.rx_bytes += pkt.size();

        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::PayloadWrite, name_,
                     rdma_info ? "rdma" : "eth", pkt.meta.corr, rqn,
                     wqe_index, 1, pkt.size());
        uint32_t cqn = rq.cfg.cqn;
        fabric_.write(dma_port_, dst, std::move(pkt.data),
                      [this, cqn, cqe] { write_cqe(cqn, cqe); });
        return true;
    }
}

// ---------------------------------------------------------------------
// Completions
// ---------------------------------------------------------------------

void
NicDevice::write_cqe(uint32_t cqn, Cqe cqe)
{
    auto it = cqs_.find(cqn);
    if (it == cqs_.end())
        return;
    CqState& cq = it->second;

    // Mini-CQE compression (§8.1's unused optimization, modeled for
    // the ablation study): plain Ethernet receive completions of one
    // CQ coalesce into a single write. RDMA and FLD-E-annotated
    // completions carry fields minis cannot express, so they flush.
    bool compressible = cfg_.cqe_compression &&
                        cq.cfg.allow_compression &&
                        cqe.opcode == CqeOpcode::Rx &&
                        cqe.msg_id == 0 && cqe.msg_offset == 0;
    if (!compressible) {
        flush_cq(cqn);
        uint32_t slot = cq.pi % cq.cfg.entries;
        cqe.owner = uint8_t((cq.pi / cq.cfg.entries) & 1) ^ 1;
        cq.pi++;
        uint8_t bytes[kCqeStride];
        cqe.encode(bytes);
        if (auto* tr = sim::Tracer::active()) {
            const char* what = cqe.opcode == CqeOpcode::TxOk  ? "TxOk"
                               : cqe.opcode == CqeOpcode::Rx ? "Rx"
                                                             : "Error";
            tr->emit(eq_.now(), sim::TraceEventKind::CqeWrite, name_, what,
                     cqe.corr, cqe.qpn, cqe.wqe_counter, 1, kCqeStride);
        }
        fabric_.write(dma_port_,
                      cq.cfg.ring_addr + uint64_t(slot) * kCqeStride,
                      bytes, kCqeStride);
        return;
    }

    uint32_t slot = cq.pi % cq.cfg.entries;
    cqe.owner = uint8_t((cq.pi / cq.cfg.entries) & 1) ^ 1;
    cq.pi++;
    if (cq.pending.empty()) {
        cq.block_start_slot = slot;
        uint64_t gen = ++cq.flush_generation;
        eq_.schedule_in(cfg_.cqe_coalesce_window, [this, cqn, gen] {
            auto it2 = cqs_.find(cqn);
            if (it2 != cqs_.end() &&
                it2->second.flush_generation == gen) {
                flush_cq(cqn);
            }
        });
    }
    cq.pending.push_back(cqe);
    // Flush when the block is full or would wrap the ring.
    if (cq.pending.size() == 1 + kMaxMiniCqes ||
        cq.block_start_slot + cq.pending.size() >= cq.cfg.entries) {
        flush_cq(cqn);
    }
}

void
NicDevice::flush_cq(uint32_t cqn)
{
    auto it = cqs_.find(cqn);
    if (it == cqs_.end())
        return;
    CqState& cq = it->second;
    if (cq.pending.empty())
        return;
    cq.flush_generation++; // cancel the window timer

    size_t n = cq.pending.size();
    // Compressed blocks are bounded: a title CQE plus kMaxMiniCqes
    // minis, so the wire image fits on the stack.
    uint8_t bytes[kCqeStride + kMaxMiniCqes * kMiniCqeStride] = {};
    size_t bytes_len = kCqeStride + (n - 1) * kMiniCqeStride;
    Cqe title = cq.pending.front();
    title.encode(bytes);
    bytes[kCqeMiniCountOffset] = uint8_t(n - 1);
    if (auto* tr = sim::Tracer::active())
        tr->emit(eq_.now(), sim::TraceEventKind::CqeWrite, name_, "Rx",
                 title.corr, title.qpn, title.wqe_counter, 1, kCqeStride);
    for (size_t i = 1; i < n; ++i) {
        const Cqe& c = cq.pending[i];
        if (auto* tr = sim::Tracer::active())
            tr->emit(eq_.now(), sim::TraceEventKind::CqeWrite, name_,
                     "RxMini", c.corr, c.qpn, c.wqe_counter, 1,
                     kMiniCqeStride);
        MiniCqe mini;
        mini.byte_count = c.byte_count;
        mini.stride_index = c.stride_index;
        mini.rq_wqe_index = c.rq_wqe_index;
        mini.flags = c.flags;
        mini.flow_tag = c.flow_tag;
        mini.encode(bytes + kCqeStride + (i - 1) * kMiniCqeStride);
    }
    cq.pending.clear();
    fabric_.write(dma_port_,
                  cq.cfg.ring_addr +
                      uint64_t(cq.block_start_slot) * kCqeStride,
                  bytes, bytes_len);
}

// ---------------------------------------------------------------------
// RDMA RC transport
// ---------------------------------------------------------------------

void
NicDevice::inject_qp_error(uint32_t qpn)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end())
        fatal("inject_qp_error: unknown qpn %u", qpn);
    QpState& qp = it->second;
    qp.in_error = true;
    qp.timer_generation++; // stop retransmissions
    emit(NicEvent::Type::QpFatal, qpn);
    // Flush in-flight work with error completions.
    while (!qp.inflight.empty()) {
        TxMsg msg = std::move(qp.inflight.front());
        qp.inflight.pop_front();
        qp.inflight_bytes -= msg.len;
        complete_with_error(qpn, qp, msg.wqe);
    }
    // Window-held messages flush with error completions too.
    while (!qp.pending.empty()) {
        auto [wqe, payload] = std::move(qp.pending.front());
        qp.pending.pop_front();
        complete_with_error(qpn, qp, wqe);
    }
}

void
NicDevice::complete_with_error(uint32_t qpn, const QpState& qp,
                               const Wqe& wqe)
{
    Cqe cqe;
    cqe.opcode = CqeOpcode::Error;
    cqe.qpn = qpn;
    cqe.wqe_counter = wqe.wqe_index;
    cqe.msg_id = wqe.msg_id;
    cqe.corr = wqe.corr;
    auto sit = sqs_.find(qp.cfg.sqn);
    if (sit != sqs_.end())
        write_cqe(sit->second.cfg.cqn, cqe);
}

void
NicDevice::rdma_send(uint32_t qpn, const Wqe& wqe,
                     std::vector<uint8_t> payload)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end() || !it->second.connected) {
        emit(NicEvent::Type::QpFatal, qpn);
        return;
    }
    QpState& qp = it->second;
    if (qp.in_error) {
        // Error-state QP: complete immediately with an error CQE.
        complete_with_error(qpn, qp, wqe);
        return;
    }

    // Transmit window: hold new messages while too many bytes are
    // unacknowledged (hardware flow control; prevents GBN collapse
    // when the receiver is slow).
    if (qp.inflight_bytes >= kRdmaWindowBytes) {
        qp.pending.emplace_back(wqe, std::move(payload));
        return;
    }

    uint32_t len = uint32_t(payload.size());
    uint32_t segments =
        std::max<uint32_t>(1, uint32_t(ceil_div<uint64_t>(
                                  len, cfg_.rdma_mtu)));
    TxMsg msg;
    msg.wqe = wqe;
    msg.first_psn = qp.next_psn;
    msg.last_psn = qp.next_psn + segments - 1;
    msg.len = len;
    msg.payload = std::move(payload);
    qp.next_psn += segments;

    bool was_idle = qp.inflight.empty();
    qp.inflight_bytes += len;
    qp.inflight.push_back(std::move(msg));
    transmit_segments(qpn, qp.inflight.back());
    if (was_idle)
        arm_retransmit_timer(qpn);
}

void
NicDevice::transmit_segments(uint32_t qpn, const TxMsg& msg)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end())
        return;
    QpState& qp = it->second;
    uint32_t segments = msg.last_psn - msg.first_psn + 1;

    for (uint32_t s = 0; s < segments; ++s) {
        uint32_t off = s * cfg_.rdma_mtu;
        uint32_t chunk = std::min(cfg_.rdma_mtu, msg.len - off);
        if (msg.len == 0)
            chunk = 0;

        RdmaHeader hdr;
        if (segments == 1)
            hdr.opcode = RdmaOpcode::SendOnly;
        else if (s == 0)
            hdr.opcode = RdmaOpcode::SendFirst;
        else if (s == segments - 1)
            hdr.opcode = RdmaOpcode::SendLast;
        else
            hdr.opcode = RdmaOpcode::SendMiddle;
        hdr.dst_qpn = qp.peer.remote_qpn;
        hdr.psn = msg.first_psn + s;
        hdr.msg_len = msg.len;
        hdr.msg_id = msg.wqe.msg_id;

        net::Packet pkt;
        pkt.data.resize(net::kEthHeaderLen + kRdmaHeaderLen + chunk);
        net::EthHeader eth;
        eth.src = qp.peer.local_mac;
        eth.dst = qp.peer.remote_mac;
        eth.ethertype = kEtherTypeRoce;
        eth.encode(pkt.bytes());
        hdr.encode(pkt.bytes() + net::kEthHeaderLen);
        if (chunk > 0) {
            // Intentional copy: segments are cut from msg.payload,
            // which must stay intact for go-back-N retransmission.
            std::memcpy(pkt.bytes() + net::kEthHeaderLen +
                            kRdmaHeaderLen,
                        msg.payload.data() + off, chunk);
        }
        pkt.meta.flow_tag = msg.wqe.flow_tag;
        pkt.meta.corr = msg.wqe.corr;

        stats_.tx_packets++;
        stats_.tx_bytes += pkt.size();
        shaped_egress(qp.cfg.sqn, std::move(pkt));
    }
}

void
NicDevice::rdma_rx(VportId vport, net::Packet&& pkt)
{
    RdmaHeader hdr =
        RdmaHeader::decode(pkt.bytes() + net::kEthHeaderLen);
    auto it = qps_.find(hdr.dst_qpn);
    if (it == qps_.end()) {
        stats_.drops_no_rule++;
        return;
    }
    QpState& qp = it->second;
    (void)vport;

    if (qp.in_error)
        return;
    if (hdr.opcode == RdmaOpcode::Ack) {
        rdma_handle_ack(hdr.dst_qpn, qp, hdr.psn);
        return;
    }

    // Strict in-order RC receive. A duplicate (below-window PSN) means
    // our ACK was lost or the sender's timer fired spuriously: it must
    // be re-ACKed, or a sender whose ACKs all got dropped would
    // retransmit delivered data forever. Future PSNs (a gap) are
    // dropped silently and recovered by the sender's go-back-N timer.
    if (hdr.psn != qp.expected_psn) {
        int32_t delta = int32_t(hdr.psn - qp.expected_psn);
        if (delta < 0) {
            stats_.rdma_dup_psn++;
            rdma_send_ack(qp);
        } else {
            stats_.rdma_out_of_order++;
        }
        return;
    }

    bool first = hdr.opcode == RdmaOpcode::SendFirst ||
                 hdr.opcode == RdmaOpcode::SendOnly;
    bool last = hdr.opcode == RdmaOpcode::SendLast ||
                hdr.opcode == RdmaOpcode::SendOnly;

    // Strip L2+RDMA headers in place on the moved frame: one memmove
    // within the existing buffer instead of a fresh allocation plus
    // payload copy per received segment.
    size_t payload_off = net::kEthHeaderLen + kRdmaHeaderLen;
    net::Packet payload = std::move(pkt);
    payload.data.erase(payload.data.begin(),
                       payload.data.begin() + long(payload_off));
    uint32_t payload_len = uint32_t(payload.size());

    Cqe info;
    info.qpn = hdr.dst_qpn;
    info.msg_id = first ? hdr.msg_id : qp.cur_msg_id;
    info.msg_offset = first ? 0 : qp.cur_msg_off;
    if (last)
        info.flags |= kCqeRdmaLast;

    // Receiver-not-ready: leave PSN state untouched and do not ACK,
    // so the sender's go-back-N timer retries the whole message.
    if (!deliver_to_rq(qp.cfg.rqn, std::move(payload), false, info))
        return;

    qp.expected_psn++;
    if (first) {
        qp.cur_msg_id = hdr.msg_id;
        qp.cur_msg_len = hdr.msg_len;
        qp.cur_msg_off = 0;
    }
    qp.cur_msg_off += payload_len;

    // ACK coalescing: ack at message end or every N packets.
    qp.pkts_since_ack++;
    if (last || qp.pkts_since_ack >= kRdmaAckEvery)
        rdma_send_ack(qp);
}

void
NicDevice::rdma_send_ack(QpState& qp)
{
    qp.pkts_since_ack = 0;
    RdmaHeader hdr;
    hdr.opcode = RdmaOpcode::Ack;
    hdr.dst_qpn = qp.peer.remote_qpn;
    hdr.psn = qp.expected_psn; // cumulative: everything below is acked

    net::Packet pkt;
    pkt.data.resize(net::kEthHeaderLen + kRdmaHeaderLen);
    net::EthHeader eth;
    eth.src = qp.peer.local_mac;
    eth.dst = qp.peer.remote_mac;
    eth.ethertype = kEtherTypeRoce;
    eth.encode(pkt.bytes());
    hdr.encode(pkt.bytes() + net::kEthHeaderLen);

    stats_.rdma_acks++;
    run_pipeline(std::move(pkt), qp.cfg.vport, 0);
}

void
NicDevice::rdma_handle_ack(uint32_t qpn, QpState& qp,
                           uint32_t acked_psn)
{
    if (acked_psn <= qp.acked_psn)
        return; // stale
    qp.acked_psn = acked_psn;

    while (!qp.inflight.empty() &&
           qp.inflight.front().last_psn < acked_psn) {
        TxMsg msg = std::move(qp.inflight.front());
        qp.inflight.pop_front();
        qp.inflight_bytes -= msg.len;
        sq_complete(qp.cfg.sqn, msg.wqe);
    }
    // Progress resets the retransmit clock; window space may free
    // held messages.
    if (!qp.inflight.empty())
        arm_retransmit_timer(qpn);
    else
        qp.timer_generation++; // cancel
    while (!qp.pending.empty() && qp.inflight_bytes < kRdmaWindowBytes) {
        auto [wqe, payload] = std::move(qp.pending.front());
        qp.pending.pop_front();
        rdma_send(qpn, wqe, std::move(payload));
    }
}

void
NicDevice::arm_retransmit_timer(uint32_t qpn)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end())
        return;
    uint64_t gen = ++it->second.timer_generation;
    eq_.schedule_in(cfg_.rdma_retransmit_timeout, [this, qpn, gen] {
        auto it2 = qps_.find(qpn);
        if (it2 == qps_.end() || it2->second.timer_generation != gen ||
            it2->second.inflight.empty()) {
            return;
        }
        retransmit(qpn);
    });
}

void
NicDevice::retransmit(uint32_t qpn)
{
    auto it = qps_.find(qpn);
    if (it == qps_.end())
        return;
    QpState& qp = it->second;
    stats_.rdma_retransmits++;
    emit(NicEvent::Type::QpRetransmit, qpn);
    if (auto* tr = sim::Tracer::active())
        tr->emit(eq_.now(), sim::TraceEventKind::Retransmit, name_, "gbn",
                 0, qpn, qp.acked_psn, uint32_t(qp.inflight.size()), 0);
    // Go-back-N: resend every unacked message.
    for (const TxMsg& msg : qp.inflight)
        transmit_segments(qpn, msg);
    arm_retransmit_timer(qpn);
}

} // namespace fld::nic
