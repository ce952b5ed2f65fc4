/**
 * @file
 * Match-action flow rules (the NIC's embedded-switch rule store).
 *
 * Models the ConnectX eSwitch / rte_flow pipeline of §2.3: numbered
 * tables hold prioritized rules; each rule matches packet fields and
 * applies an action list (tag, encap/decap, count, forward, goto).
 * FLD-E extends the action set with SendToAccel + next-table resume
 * (§5.3), which is exactly how inline acceleration re-enters the
 * pipeline mid-way. The rules are not matched here: NicDevice compiles
 * them with Pipeline::config_from (nic/pipeline.h) and steers through
 * the compiled program, which also holds the per-rule hit counters.
 */
#ifndef FLD_NIC_FLOW_TABLE_H
#define FLD_NIC_FLOW_TABLE_H

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace fld::nic {

/** Logical switch port ids. Convention: 0 is the wire uplink. */
using VportId = uint16_t;
constexpr VportId kUplinkVport = 0;

/** Fields a rule may match on; unset fields are wildcards. */
struct FlowMatch
{
    std::optional<VportId> in_vport;
    std::optional<uint16_t> ethertype;
    std::optional<uint8_t> ip_proto;
    std::optional<uint32_t> src_ip;
    std::optional<uint32_t> dst_ip;
    std::optional<uint16_t> sport;
    std::optional<uint16_t> dport;
    std::optional<bool> is_fragment;
    std::optional<uint32_t> vni;     ///< matches decapsulated VXLAN id
    std::optional<uint32_t> flow_tag;///< matches a previously set tag
};

/** Action kinds (applied in rule order until a terminal one). */
enum class ActionType : uint8_t {
    SetTag,       ///< tag packet with context/tenant id
    Count,        ///< bump a named counter
    VxlanDecap,   ///< strip outer Eth/IP/UDP/VXLAN
    VxlanEncap,   ///< add outer headers (params in action)
    Meter,        ///< pass through a named token-bucket rate limiter
    Goto,         ///< continue matching at another table
    ForwardVport, ///< terminal: deliver to a vport's RX pipeline
    ForwardTir,   ///< terminal: deliver to an RSS group (TIR)
    ForwardQueue, ///< terminal: deliver to a specific RQ
    SendToAccel,  ///< terminal: FLD-E acceleration action
    Drop,         ///< terminal
    // Programmable-pipeline extensions (nic/pipeline.h); rules
    // installed via add_rule may use them too.
    AclDeny,      ///< terminal: policy drop, counted separately
    NatRewrite,   ///< rewrite IPv4 addrs/ports (flags in arg0)
    VipSelect,    ///< pick a VIP pool backend, rewrite dst ip
};

struct Action
{
    ActionType type;
    uint32_t arg0 = 0; ///< tag / table / vport / tir / rqn / meter id
    uint32_t arg1 = 0; ///< SendToAccel: next_table; VxlanEncap: vni
    uint32_t arg2 = 0; ///< VxlanEncap: outer src ip
    uint32_t arg3 = 0; ///< VxlanEncap: outer dst ip
};

/** Convenience constructors for common actions. */
Action set_tag(uint32_t tag);
Action count_action(uint32_t counter_id);
Action vxlan_decap();
Action vxlan_encap(uint32_t vni, uint32_t src_ip, uint32_t dst_ip);
Action meter(uint32_t meter_id);
Action goto_table(uint32_t table);
Action fwd_vport(VportId vport);
Action fwd_tir(uint32_t tir);
Action fwd_queue(uint32_t rqn);
Action send_to_accel(uint32_t rqn, uint32_t next_table);
Action drop_action();
Action acl_deny(uint32_t acl_id);
/** Destination NAT: rewrite dst ip (and optionally dst port). */
Action nat_dst(uint32_t new_dst_ip);
Action nat_dst(uint32_t new_dst_ip, uint16_t new_dport);
/** Source NAT: rewrite src ip (and optionally src port). */
Action nat_src(uint32_t new_src_ip);
Action nat_src(uint32_t new_src_ip, uint16_t new_sport);
/** VIP load balancing: rewrite dst ip to a backend of @p pool_id. */
Action vip_select(uint32_t pool_id);

/** A rule installed in a table. */
struct FlowRule
{
    uint64_t id = 0;
    int priority = 0; ///< higher wins
    FlowMatch match;
    std::vector<Action> actions;
};

/** Pre-extracted packet fields the matcher tests against. */
struct FlowFields
{
    VportId in_vport = kUplinkVport;
    uint16_t ethertype = 0;
    uint8_t ip_proto = 0;
    uint32_t src_ip = 0;
    uint32_t dst_ip = 0;
    uint16_t sport = 0;
    uint16_t dport = 0;
    bool is_fragment = false;
    bool has_l4 = false;
    uint32_t vni = 0;
    bool tunneled = false;
    uint32_t flow_tag = 0;

    /** Extract fields from a packet entering at @p vport. */
    static FlowFields of(const net::Packet& pkt, VportId vport);
    /** The same from @p pp, a parse of @p pkt's current bytes. */
    static FlowFields of(const net::Packet& pkt, const net::ParsedPacket& pp,
                         VportId vport);
};

/** A set of numbered tables with prioritized rules, plus the Count
 *  counters and per-tag stats the steering datapath bumps. */
class FlowTables
{
  public:
    /** Install a rule; returns its id. */
    uint64_t add_rule(uint32_t table, int priority, FlowMatch match,
                      std::vector<Action> actions);

    /** Remove by id; returns false when absent. */
    bool remove_rule(uint64_t id);

    /** Count-action byte counters, by counter id. O(1): steering
     *  counters are bumped per packet at line rate. */
    uint64_t counter(uint32_t counter_id) const;
    void bump_counter(uint32_t counter_id, uint64_t bytes);

    /** Per-tag steering stats, bumped whenever a SetTag action fires
     *  (tags are the eSwitch's tenant/context handles, so this is the
     *  per-tenant view of the steering pipeline). */
    struct TagStats
    {
        uint64_t packets = 0;
        uint64_t bytes = 0;
    };
    void note_tag(uint32_t tag, uint64_t bytes);
    /** Stats for @p tag (zeroes when the tag was never set). */
    TagStats tag_stats(uint32_t tag) const;
    const std::unordered_map<uint32_t, TagStats>& tags() const
    {
        return tag_stats_;
    }

    size_t rule_count() const;

    /** All tables with their priority-sorted rules (read-only view;
     *  the pipeline compiler consumes this to build the default
     *  program). */
    const std::map<uint32_t, std::vector<FlowRule>>& all_tables() const
    {
        return tables_;
    }

  private:
    std::map<uint32_t, std::vector<FlowRule>> tables_;
    std::unordered_map<uint32_t, uint64_t> counters_;
    std::unordered_map<uint32_t, TagStats> tag_stats_;
    uint64_t next_id_ = 1;
};

} // namespace fld::nic

#endif // FLD_NIC_FLOW_TABLE_H
