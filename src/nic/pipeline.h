/**
 * @file
 * Programmable multi-table match-action pipeline: the NIC's only
 * steering matcher.
 *
 * §2.3's eSwitch steering is expressed in the spirit of hXDP's on-NIC
 * packet programs and Stratum's pipeline processor: a declarative
 * `PipelineConfig` — numbered tables of prioritized entries with
 * masked/ternary keys over the parsed field vector, per-table default
 * action lists, and VIP pools — compiled once into a flat,
 * allocation-free executable form (`Pipeline`).
 *
 * `Pipeline::config_from(FlowTables)` expresses the rules installed
 * through NicDevice::add_rule as the *default program*: each
 * optional FlowMatch field becomes an exact ternary component (a
 * present-with-zero match only accepts zero, and port matches
 * require a parsed L4 header), and entries dispatch by descending
 * priority with ties broken by installation order. NicDevice serves
 * all receive steering through the compiled default program, or
 * through an explicit program installed with set_pipeline_program.
 *
 * The action set (`nic::Action`) includes three programmable kinds
 * beyond the paper's eSwitch: ACL deny, NAT header rewrite, and VIP
 * load-balancer backend select.
 */
#ifndef FLD_NIC_PIPELINE_H
#define FLD_NIC_PIPELINE_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "nic/flow_table.h"

namespace fld::nic {

// ---------------------------------------------------------------------
// Declarative program description
// ---------------------------------------------------------------------

/** One ternary key component: packet field & mask must equal value.
 *  mask == 0 is a wildcard; mask == ~0u an exact match. The compiler
 *  normalizes value to value & mask. */
struct TernaryField
{
    uint32_t value = 0;
    uint32_t mask = 0;
};

/** Exact-match component (mask all ones). */
TernaryField ternary_exact(uint32_t value);
/** Masked component (compile normalizes value &= mask). */
TernaryField ternary_masked(uint32_t value, uint32_t mask);

/**
 * Ternary key over the parsed field vector. Field extraction is the
 * parser stage: FlowFields::of pulls eth/IPv4/TCP-UDP/VXLAN headers
 * plus metadata (vport, tag). Semantics mirror FlowMatch: sport/dport
 * components with a non-zero mask additionally require a parsed L4
 * header (fragments never match a ported key).
 */
struct PipelineKey
{
    TernaryField in_vport;
    TernaryField ethertype;
    TernaryField ip_proto;
    TernaryField src_ip;
    TernaryField dst_ip;
    TernaryField sport;
    TernaryField dport;
    TernaryField is_fragment; ///< field value is 0/1
    TernaryField vni;
    TernaryField flow_tag;
};

/** One prioritized entry of a table. */
struct PipelineEntryConfig
{
    int priority = 0; ///< higher wins; ties break by config order
    PipelineKey key;
    std::vector<Action> actions;
    /** Source FlowRule id for config_from programs (0 otherwise);
     *  Drop events report it, and hit counters follow it across
     *  recompiles. */
    uint64_t rule_id = 0;
};

struct PipelineTableConfig
{
    uint32_t id = 0;
    std::vector<PipelineEntryConfig> entries;
    /** Executed on table miss. Empty = miss drops (counted as
     *  drops_no_rule). */
    std::vector<Action> default_actions;
};

/** VIP load-balancer pool referenced by VipSelect actions. */
struct VipPoolConfig
{
    uint32_t id = 0;
    std::vector<uint32_t> backends; ///< backend IPv4 addresses
};

struct PipelineConfig
{
    std::vector<PipelineTableConfig> tables;
    std::vector<VipPoolConfig> pools;
};

// ---------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------

/** A compiled entry: flat key + a span into the action vector. */
struct CompiledEntry
{
    PipelineKey key;
    int priority = 0;
    uint32_t cfg_index = 0; ///< insertion order within its table
    uint32_t action_begin = 0;
    uint32_t action_count = 0;
    uint64_t rule_id = 0; ///< source FlowRule id (config_from programs)
    uint64_t hits = 0;
    uint64_t hit_bytes = 0;
};

/** Outcome of the standalone reference executor (tests/properties). */
struct PipelineExecResult
{
    enum class Kind : uint8_t {
        Miss,          ///< table miss with no default actions
        NoTerminal,    ///< action list ended without terminal or goto
        DepthExceeded, ///< goto chain ran past kMaxDepth tables
        Drop,
        AclDeny,
        Queue,
        Tir,
        Vport,
        Accel,
    };
    Kind kind = Kind::Miss;
    uint32_t dest = 0;       ///< rqn / tir / vport / acl id
    uint32_t next_table = 0; ///< Accel: resume table
    uint32_t final_tag = 0;  ///< flow tag after execution
    uint32_t tables_visited = 0;

    /** True when the packet reached a delivery destination. */
    bool delivered() const
    {
        return kind == Kind::Queue || kind == Kind::Tir ||
               kind == Kind::Vport || kind == Kind::Accel;
    }
};

/**
 * The compiled program: entries and actions in contiguous vectors,
 * tables as spans, priorities pre-sorted at compile time so the match
 * loop is a straight masked scan with no allocation, no optional
 * unwrapping and no map hops.
 */
class Pipeline
{
  public:
    /** Goto-chain depth limit. */
    static constexpr int kMaxDepth = 16;

    Pipeline() = default;
    explicit Pipeline(const PipelineConfig& cfg) { compile(cfg); }

    /** Compile a declarative config, replacing any previous program.
     *  Entries are grouped by table id (duplicate table blocks merge
     *  in config order) and sorted by descending priority, stable in
     *  config order — the order FlowTables keeps its rules in. */
    void compile(const PipelineConfig& cfg);

    /** Express installed rules as a declarative program (the default
     *  program). */
    static PipelineConfig config_from(const FlowTables& flows);

    /** Copy hit counters from @p prev onto the entries with the same
     *  non-zero rule id (rules that survived a recompile). */
    void carry_hits(const Pipeline& prev);

    /** Highest-priority matching entry of @p table, or null. Does not
     *  bump hit counters — callers account hits explicitly, so control
     *  plane peeks stay invisible. */
    const CompiledEntry* lookup(uint32_t table, const FlowFields& f) const;
    CompiledEntry* lookup(uint32_t table, const FlowFields& f)
    {
        return const_cast<CompiledEntry*>(
            std::as_const(*this).lookup(table, f));
    }

    /** Action span of a matched entry. */
    const Action* actions(const CompiledEntry& e) const
    {
        return actions_.data() + e.action_begin;
    }

    /** Default-action span of @p table (count 0 when absent). */
    void default_actions(uint32_t table, const Action*& acts,
                         size_t& count) const;

    bool has_table(uint32_t table) const;
    size_t table_count() const { return tables_.size(); }
    size_t entry_count() const { return entries_.size(); }

    /** Backends of a VIP pool (null when the pool is unknown). */
    const std::vector<uint32_t>* vip_pool(uint32_t pool_id) const;

    /**
     * Standalone reference executor over extracted fields: walks the
     * program exactly like NicDevice::run_pipeline walks actions
     * (goto continues the entry's remaining actions, missing terminal
     * drops) but mutates only the field vector — packet-body actions
     * (decap/encap/meter) are field-level no-ops here. Used by the
     * property battery and the shadow-matcher tests; the NIC datapath
     * does not call this.
     *
     * @p bytes feeds Count actions and hit accounting.
     */
    PipelineExecResult execute(FlowFields f, uint32_t start_table = 0,
                               uint64_t bytes = 1);

    /** Count-action accumulator of the standalone executor. */
    uint64_t counter(uint32_t counter_id) const;

    /** True when @p key accepts @p f (parser-aware ternary match). */
    static bool key_matches(const PipelineKey& key, const FlowFields& f);

  private:
    struct CompiledTable
    {
        uint32_t id = 0;
        uint32_t entry_begin = 0;
        uint32_t entry_count = 0;
        uint32_t default_begin = 0;
        uint32_t default_count = 0;
    };

    const CompiledTable* find_table(uint32_t id) const;

    std::vector<CompiledTable> tables_; ///< sorted by id
    std::vector<CompiledEntry> entries_;
    std::vector<Action> actions_;
    std::map<uint32_t, std::vector<uint32_t>> pools_;
    std::map<uint32_t, uint64_t> counters_;
};

/** Deterministic VIP backend choice shared by the NIC datapath and the
 *  standalone executor: Toeplitz flow hash over the 4-tuple, modulo
 *  the pool size. Precondition: backends non-empty. */
uint32_t select_vip_backend(const std::vector<uint32_t>& backends,
                            const FlowFields& f);

/** Apply a NatRewrite action to extracted fields (no packet body). */
void nat_apply_fields(FlowFields& f, const Action& act);

/** NAT flag bits carried in Action::arg0 (see nat_dst/nat_src). */
constexpr uint32_t kNatDstIp = 1u << 0;   ///< arg1 = new dst ip
constexpr uint32_t kNatDstPort = 1u << 1; ///< arg2 & 0xffff = new dport
constexpr uint32_t kNatSrcIp = 1u << 2;   ///< arg3 = new src ip
constexpr uint32_t kNatSrcPort = 1u << 3; ///< arg2 >> 16 = new sport

} // namespace fld::nic

#endif // FLD_NIC_PIPELINE_H
