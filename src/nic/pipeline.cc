#include "nic/pipeline.h"

#include <algorithm>
#include <unordered_map>

#include "net/toeplitz.h"

namespace fld::nic {

TernaryField
ternary_exact(uint32_t value)
{
    return {value, 0xffffffffu};
}

TernaryField
ternary_masked(uint32_t value, uint32_t mask)
{
    return {value & mask, mask};
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

namespace {

void
normalize(TernaryField& t)
{
    t.value &= t.mask;
}

void
normalize_key(PipelineKey& k)
{
    normalize(k.in_vport);
    normalize(k.ethertype);
    normalize(k.ip_proto);
    normalize(k.src_ip);
    normalize(k.dst_ip);
    normalize(k.sport);
    normalize(k.dport);
    normalize(k.is_fragment);
    normalize(k.vni);
    normalize(k.flow_tag);
}

} // namespace

void
Pipeline::compile(const PipelineConfig& cfg)
{
    tables_.clear();
    entries_.clear();
    actions_.clear();
    pools_.clear();
    counters_.clear();

    // Group config blocks by table id, merging duplicate blocks in
    // config order so entry insertion order (the priority tie-break)
    // is well defined.
    std::map<uint32_t, std::vector<const PipelineTableConfig*>> by_id;
    for (const PipelineTableConfig& t : cfg.tables)
        by_id[t.id].push_back(&t);

    for (const auto& [id, blocks] : by_id) {
        CompiledTable ct;
        ct.id = id;
        ct.entry_begin = uint32_t(entries_.size());

        std::vector<CompiledEntry> staged;
        std::vector<const std::vector<Action>*> staged_actions;
        uint32_t cfg_index = 0;
        ct.default_begin = uint32_t(actions_.size());
        for (const PipelineTableConfig* block : blocks) {
            for (const PipelineEntryConfig& e : block->entries) {
                CompiledEntry ce;
                ce.key = e.key;
                normalize_key(ce.key);
                ce.priority = e.priority;
                ce.cfg_index = cfg_index++;
                ce.rule_id = e.rule_id;
                staged.push_back(ce);
                staged_actions.push_back(&e.actions);
            }
            for (const Action& a : block->default_actions)
                actions_.push_back(a);
        }
        ct.default_count = uint32_t(actions_.size()) - ct.default_begin;

        // Descending priority, stable in config order — the order
        // FlowTables::add_rule keeps its rules in.
        std::vector<uint32_t> order(staged.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return staged[a].priority >
                                    staged[b].priority;
                         });
        for (uint32_t idx : order) {
            CompiledEntry ce = staged[idx];
            ce.action_begin = uint32_t(actions_.size());
            ce.action_count = uint32_t(staged_actions[idx]->size());
            for (const Action& a : *staged_actions[idx])
                actions_.push_back(a);
            entries_.push_back(ce);
        }
        ct.entry_count = uint32_t(entries_.size()) - ct.entry_begin;
        tables_.push_back(ct);
    }

    for (const VipPoolConfig& p : cfg.pools)
        pools_[p.id] = p.backends;
}

PipelineConfig
Pipeline::config_from(const FlowTables& flows)
{
    PipelineConfig cfg;
    for (const auto& [id, rules] : flows.all_tables()) {
        PipelineTableConfig t;
        t.id = id;
        for (const FlowRule& r : rules) {
            PipelineEntryConfig e;
            e.priority = r.priority;
            e.rule_id = r.id;
            e.actions = r.actions;
            const FlowMatch& m = r.match;
            if (m.in_vport)
                e.key.in_vport = ternary_exact(*m.in_vport);
            if (m.ethertype)
                e.key.ethertype = ternary_exact(*m.ethertype);
            if (m.ip_proto)
                e.key.ip_proto = ternary_exact(*m.ip_proto);
            if (m.src_ip)
                e.key.src_ip = ternary_exact(*m.src_ip);
            if (m.dst_ip)
                e.key.dst_ip = ternary_exact(*m.dst_ip);
            if (m.sport)
                e.key.sport = ternary_exact(*m.sport);
            if (m.dport)
                e.key.dport = ternary_exact(*m.dport);
            if (m.is_fragment)
                e.key.is_fragment = ternary_exact(*m.is_fragment);
            if (m.vni)
                e.key.vni = ternary_exact(*m.vni);
            if (m.flow_tag)
                e.key.flow_tag = ternary_exact(*m.flow_tag);
            t.entries.push_back(std::move(e));
        }
        cfg.tables.push_back(std::move(t));
    }
    return cfg;
}

void
Pipeline::carry_hits(const Pipeline& prev)
{
    std::unordered_map<uint64_t, const CompiledEntry*> by_rule;
    for (const CompiledEntry& e : prev.entries_)
        if (e.rule_id != 0)
            by_rule.emplace(e.rule_id, &e);
    for (CompiledEntry& e : entries_) {
        auto it = by_rule.find(e.rule_id); // id 0 is never a key
        if (it != by_rule.end()) {
            e.hits = it->second->hits;
            e.hit_bytes = it->second->hit_bytes;
        }
    }
}

// ---------------------------------------------------------------------
// Match
// ---------------------------------------------------------------------

namespace {

inline bool
tmatch(const TernaryField& t, uint32_t v)
{
    return (v & t.mask) == t.value;
}

} // namespace

bool
Pipeline::key_matches(const PipelineKey& k, const FlowFields& f)
{
    if (!tmatch(k.in_vport, f.in_vport))
        return false;
    if (!tmatch(k.ethertype, f.ethertype))
        return false;
    if (!tmatch(k.ip_proto, f.ip_proto))
        return false;
    if (!tmatch(k.src_ip, f.src_ip))
        return false;
    if (!tmatch(k.dst_ip, f.dst_ip))
        return false;
    // Port keys additionally require a parsed L4 header, mirroring
    // FlowMatch (fragments hide their ports).
    if (k.sport.mask && (!f.has_l4 || !tmatch(k.sport, f.sport)))
        return false;
    if (k.dport.mask && (!f.has_l4 || !tmatch(k.dport, f.dport)))
        return false;
    if (!tmatch(k.is_fragment, f.is_fragment ? 1 : 0))
        return false;
    if (!tmatch(k.vni, f.vni))
        return false;
    if (!tmatch(k.flow_tag, f.flow_tag))
        return false;
    return true;
}

const Pipeline::CompiledTable*
Pipeline::find_table(uint32_t id) const
{
    auto it = std::lower_bound(tables_.begin(), tables_.end(), id,
                               [](const CompiledTable& t, uint32_t v) {
                                   return t.id < v;
                               });
    if (it == tables_.end() || it->id != id)
        return nullptr;
    return &*it;
}

const CompiledEntry*
Pipeline::lookup(uint32_t table, const FlowFields& f) const
{
    const CompiledTable* t = find_table(table);
    if (!t)
        return nullptr;
    const CompiledEntry* e = entries_.data() + t->entry_begin;
    for (uint32_t i = 0; i < t->entry_count; ++i, ++e) {
        if (key_matches(e->key, f))
            return e;
    }
    return nullptr;
}

void
Pipeline::default_actions(uint32_t table, const Action*& acts,
                          size_t& count) const
{
    acts = nullptr;
    count = 0;
    const CompiledTable* t = find_table(table);
    if (!t || t->default_count == 0)
        return;
    acts = actions_.data() + t->default_begin;
    count = t->default_count;
}

const std::vector<uint32_t>*
Pipeline::vip_pool(uint32_t pool_id) const
{
    auto it = pools_.find(pool_id);
    return it == pools_.end() ? nullptr : &it->second;
}

uint64_t
Pipeline::counter(uint32_t counter_id) const
{
    auto it = counters_.find(counter_id);
    return it == counters_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------
// Standalone reference executor
// ---------------------------------------------------------------------

uint32_t
select_vip_backend(const std::vector<uint32_t>& backends,
                   const FlowFields& f)
{
    uint32_t hash = net::default_rss_table().ipv4(f.src_ip, f.dst_ip,
                                                  f.sport, f.dport);
    return backends[hash % backends.size()];
}

void
nat_apply_fields(FlowFields& f, const Action& act)
{
    if (act.arg0 & kNatDstIp)
        f.dst_ip = act.arg1;
    if (act.arg0 & kNatSrcIp)
        f.src_ip = act.arg3;
    if (f.has_l4) {
        if (act.arg0 & kNatDstPort)
            f.dport = uint16_t(act.arg2 & 0xffff);
        if (act.arg0 & kNatSrcPort)
            f.sport = uint16_t(act.arg2 >> 16);
    }
}

PipelineExecResult
Pipeline::execute(FlowFields f, uint32_t start_table, uint64_t bytes)
{
    PipelineExecResult r;
    uint32_t table = start_table;

    for (int depth = 0; depth < kMaxDepth; ++depth) {
        r.tables_visited++;
        const Action* acts = nullptr;
        size_t count = 0;
        CompiledEntry* e = lookup(table, f);
        if (e) {
            e->hits++;
            e->hit_bytes += bytes;
            acts = actions(*e);
            count = e->action_count;
        } else {
            default_actions(table, acts, count);
            if (count == 0) {
                r.kind = PipelineExecResult::Kind::Miss;
                r.final_tag = f.flow_tag;
                return r;
            }
        }

        bool had_goto = false;
        for (size_t i = 0; i < count; ++i) {
            const Action& act = acts[i];
            switch (act.type) {
              case ActionType::SetTag:
                f.flow_tag = act.arg0;
                break;
              case ActionType::Count:
                counters_[act.arg0] += bytes;
                break;
              case ActionType::VxlanDecap:
              case ActionType::VxlanEncap:
              case ActionType::Meter:
                // Packet-body / device-state actions: field-level
                // no-ops in the standalone executor.
                break;
              case ActionType::Goto:
                table = act.arg0;
                had_goto = true;
                break;
              case ActionType::ForwardVport:
                r.kind = PipelineExecResult::Kind::Vport;
                r.dest = act.arg0;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::ForwardTir:
                r.kind = PipelineExecResult::Kind::Tir;
                r.dest = act.arg0;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::ForwardQueue:
                r.kind = PipelineExecResult::Kind::Queue;
                r.dest = act.arg0;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::SendToAccel:
                r.kind = PipelineExecResult::Kind::Accel;
                r.dest = act.arg0;
                r.next_table = act.arg1;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::Drop:
                r.kind = PipelineExecResult::Kind::Drop;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::AclDeny:
                r.kind = PipelineExecResult::Kind::AclDeny;
                r.dest = act.arg0;
                r.final_tag = f.flow_tag;
                return r;
              case ActionType::NatRewrite:
                nat_apply_fields(f, act);
                break;
              case ActionType::VipSelect: {
                const std::vector<uint32_t>* pool = vip_pool(act.arg0);
                if (!pool || pool->empty()) {
                    r.kind = PipelineExecResult::Kind::Drop;
                    r.final_tag = f.flow_tag;
                    return r;
                }
                f.dst_ip = select_vip_backend(*pool, f);
                break;
              }
            }
        }
        if (!had_goto) {
            r.kind = PipelineExecResult::Kind::NoTerminal;
            r.final_tag = f.flow_tag;
            return r;
        }
    }
    r.kind = PipelineExecResult::Kind::DepthExceeded;
    r.final_tag = f.flow_tag;
    return r;
}

} // namespace fld::nic
