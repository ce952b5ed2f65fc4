#include "nic/flow_table.h"

#include <algorithm>

namespace fld::nic {

Action
set_tag(uint32_t tag)
{
    return {ActionType::SetTag, tag, 0, 0, 0};
}

Action
count_action(uint32_t counter_id)
{
    return {ActionType::Count, counter_id, 0, 0, 0};
}

Action
vxlan_decap()
{
    return {ActionType::VxlanDecap, 0, 0, 0, 0};
}

Action
vxlan_encap(uint32_t vni, uint32_t src_ip, uint32_t dst_ip)
{
    return {ActionType::VxlanEncap, 0, vni, src_ip, dst_ip};
}

Action
meter(uint32_t meter_id)
{
    return {ActionType::Meter, meter_id, 0, 0, 0};
}

Action
goto_table(uint32_t table)
{
    return {ActionType::Goto, table, 0, 0, 0};
}

Action
fwd_vport(VportId vport)
{
    return {ActionType::ForwardVport, vport, 0, 0, 0};
}

Action
fwd_tir(uint32_t tir)
{
    return {ActionType::ForwardTir, tir, 0, 0, 0};
}

Action
fwd_queue(uint32_t rqn)
{
    return {ActionType::ForwardQueue, rqn, 0, 0, 0};
}

Action
send_to_accel(uint32_t rqn, uint32_t next_table)
{
    return {ActionType::SendToAccel, rqn, next_table, 0, 0};
}

Action
drop_action()
{
    return {ActionType::Drop, 0, 0, 0, 0};
}

Action
acl_deny(uint32_t acl_id)
{
    return {ActionType::AclDeny, acl_id, 0, 0, 0};
}

// NatRewrite packs its operands as: arg0 = flag bits (kNat* in
// pipeline.h), arg1 = dst ip, arg2 = dport | (sport << 16), arg3 =
// src ip. One action can carry a full src+dst rewrite.

Action
nat_dst(uint32_t new_dst_ip)
{
    return {ActionType::NatRewrite, 0x1, new_dst_ip, 0, 0};
}

Action
nat_dst(uint32_t new_dst_ip, uint16_t new_dport)
{
    return {ActionType::NatRewrite, 0x1 | 0x2, new_dst_ip, new_dport, 0};
}

Action
nat_src(uint32_t new_src_ip)
{
    return {ActionType::NatRewrite, 0x4, 0, 0, new_src_ip};
}

Action
nat_src(uint32_t new_src_ip, uint16_t new_sport)
{
    return {ActionType::NatRewrite, 0x4 | 0x8, 0,
            uint32_t(new_sport) << 16, new_src_ip};
}

Action
vip_select(uint32_t pool_id)
{
    return {ActionType::VipSelect, pool_id, 0, 0, 0};
}

FlowFields
FlowFields::of(const net::Packet& pkt, VportId vport)
{
    return of(pkt, net::parse(pkt), vport);
}

FlowFields
FlowFields::of(const net::Packet& pkt, const net::ParsedPacket& pp,
               VportId vport)
{
    FlowFields f;
    f.in_vport = vport;
    f.flow_tag = pkt.meta.flow_tag;
    f.tunneled = pkt.meta.tunneled;
    f.vni = pkt.meta.vni;

    if (pp.eth)
        f.ethertype = pp.eth->ethertype;
    if (pp.ipv4) {
        f.ip_proto = pp.ipv4->proto;
        f.src_ip = pp.ipv4->src;
        f.dst_ip = pp.ipv4->dst;
        f.is_fragment = pp.ipv4->is_fragment();
    }
    if (pp.udp) {
        f.sport = pp.udp->sport;
        f.dport = pp.udp->dport;
        f.has_l4 = true;
    } else if (pp.tcp) {
        f.sport = pp.tcp->sport;
        f.dport = pp.tcp->dport;
        f.has_l4 = true;
    }
    if (pp.vxlan) {
        f.vni = pp.vxlan->vni;
    }
    return f;
}

uint64_t
FlowTables::add_rule(uint32_t table, int priority, FlowMatch match,
                     std::vector<Action> actions)
{
    FlowRule rule;
    const uint64_t id = next_id_++;
    rule.id = id;
    rule.priority = priority;
    rule.match = std::move(match);
    rule.actions = std::move(actions);

    auto& rules = tables_[table];
    rules.push_back(std::move(rule));
    // Keep rules sorted by descending priority; stable for determinism.
    std::stable_sort(rules.begin(), rules.end(),
                     [](const FlowRule& a, const FlowRule& b) {
                         return a.priority > b.priority;
                     });
    return id;
}

bool
FlowTables::remove_rule(uint64_t id)
{
    for (auto& [table, rules] : tables_) {
        auto it = std::find_if(rules.begin(), rules.end(),
                               [&](const FlowRule& r) { return r.id == id; });
        if (it != rules.end()) {
            rules.erase(it);
            return true;
        }
    }
    return false;
}

uint64_t
FlowTables::counter(uint32_t counter_id) const
{
    auto it = counters_.find(counter_id);
    return it == counters_.end() ? 0 : it->second;
}

void
FlowTables::bump_counter(uint32_t counter_id, uint64_t bytes)
{
    counters_[counter_id] += bytes;
}

void
FlowTables::note_tag(uint32_t tag, uint64_t bytes)
{
    TagStats& ts = tag_stats_[tag];
    ts.packets++;
    ts.bytes += bytes;
}

FlowTables::TagStats
FlowTables::tag_stats(uint32_t tag) const
{
    auto it = tag_stats_.find(tag);
    return it == tag_stats_.end() ? TagStats{} : it->second;
}

size_t
FlowTables::rule_count() const
{
    size_t n = 0;
    for (const auto& [t, rules] : tables_)
        n += rules.size();
    return n;
}

} // namespace fld::nic
