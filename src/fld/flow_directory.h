/**
 * @file
 * FlowDirectory: the FLD control plane's flow-state store, scaled to
 * 10^6 concurrent flows.
 *
 * The paper's Table 3 shows the *driver* state fitting on-die via
 * compression; a production FLD additionally tracks per-flow and
 * per-tenant state (steering context, stats, telemetry) for very
 * large flow counts under constant open/close churn. This facade
 * packages that state the same way §5.2 packages descriptors:
 *
 *  - Sharded translation: flow keys hash to one of N independent
 *    4-bank cuckoo shards (load factor 1/2, small stash), each
 *    backed by its own packed flow-record pool. Shards bound the
 *    eviction work per insert and are the unit a hardware design
 *    would pipeline; per-shard capacity carries 12.5% slack so hash
 *    imbalance does not reject flows before nominal capacity.
 *  - O(1) incremental stats: every open/close/record updates the
 *    flow record, its tenant's counters and the directory totals in
 *    constant time — no scans, ever, at any size.
 *  - Bounded-memory telemetry: an optional count-min + top-k
 *    heavy-hitter sketch (fld/sketch.h) absorbs per-flow byte
 *    accounting that would otherwise need unbounded exact counters.
 *  - Budget discipline: every structure registers its packed
 *    hardware cost in a MemBudget (released on teardown via scoped
 *    registrations), and reconcile_with_model() cross-checks the
 *    instantiated bytes against model::flow_directory_memory — the
 *    SRAM-budget claim, validated at every size point.
 */
#ifndef FLD_FLD_FLOW_DIRECTORY_H
#define FLD_FLD_FLOW_DIRECTORY_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fld/cuckoo.h"
#include "fld/mem_budget.h"
#include "fld/sketch.h"

namespace fld::core {

struct FlowDirectoryConfig
{
    /** Nominal max concurrent flows across all shards. */
    uint64_t flow_capacity = 4096;
    /** Cuckoo shards; 0 = auto (one per 16k flows, power of two,
     *  capped at 256). */
    uint32_t shards = 0;
    /** Tenant id space (tenant ids are taken mod this). */
    uint32_t tenants = 64;
    bool sketch_enabled = true;
    /** Sketch geometry; width 0 = auto (capacity/16, >= 1024, pow2). */
    SketchConfig sketch{.width = 0};
    uint64_t seed = 0x5bd1e995;
};

/** Fractional gap allowed between the instantiated bytes and the
 *  analytical memory model (reconcile_with_model). Chosen here. */
constexpr double kFlowModelTolerance = 0.05;

class FlowDirectory
{
  public:
    /** Packed hardware bytes per flow record / tenant record — must
     *  agree with model::kFlowStateBytes / kTenantStateBytes. */
    static constexpr uint32_t kFlowStateBytes = 24;
    static constexpr uint32_t kTenantStateBytes = 32;

    struct FlowInfo
    {
        uint64_t key = 0;
        uint16_t tenant = 0;
        uint64_t packets = 0;
        uint64_t bytes = 0;
    };

    struct TenantStats
    {
        uint64_t flows_open = 0;   ///< currently open
        uint64_t flows_opened = 0; ///< lifetime opens
        uint64_t flows_closed = 0;
        uint64_t packets = 0;
        uint64_t bytes = 0;
        uint64_t rejects = 0; ///< opens refused (full/stall)
    };

    struct Stats
    {
        uint64_t opens = 0;
        uint64_t closes = 0;
        uint64_t auto_opens = 0;      ///< record_auto first-sight opens
        uint64_t duplicate_opens = 0; ///< open of an existing key
        uint64_t unknown_closes = 0;  ///< close of an absent key
        uint64_t rejected_full = 0;   ///< shard pool exhausted
        uint64_t rejected_stall = 0;  ///< cuckoo stash stall
        uint64_t packets = 0;
        uint64_t bytes = 0;
        uint64_t lookups = 0;
    };

    explicit FlowDirectory(FlowDirectoryConfig cfg = {});

    /** Open a flow. False (and a tenant reject) when the key exists
     *  or the owning shard is out of capacity / stash-stalled. */
    bool open_flow(uint64_t key, uint16_t tenant);

    /** Close a flow; false when the key is not open. */
    bool close_flow(uint64_t key);

    /** Account one packet of @p bytes to an open flow. O(1). False
     *  when the flow is unknown. */
    bool record(uint64_t key, uint32_t bytes);

    /** record() that opens the flow on first sight (datapath-style
     *  learning). False only when the open itself is rejected. */
    bool record_auto(uint64_t key, uint16_t tenant, uint32_t bytes);

    std::optional<FlowInfo> find(uint64_t key) const;

    size_t size() const { return size_; }
    uint64_t capacity() const { return cfg_.flow_capacity; }
    /** Resolved configuration (shards/sketch width filled in). */
    const FlowDirectoryConfig& config() const { return cfg_; }
    uint32_t shard_of(uint64_t key) const;
    /** Open flows currently living in shard @p s (tests/telemetry). */
    size_t shard_size(uint32_t s) const;
    uint64_t shard_capacity() const { return shard_capacity_; }

    const TenantStats& tenant(uint16_t t) const;
    const std::vector<TenantStats>& tenants() const { return tenants_; }

    const HeavyHitterSketch* sketch() const
    {
        return cfg_.sketch_enabled ? &sketch_ : nullptr;
    }

    const Stats& stats() const { return stats_; }

    /** Provisioned on-die bytes (all shards + tenants + sketch). */
    size_t memory_bytes() const;

    /**
     * Register the provisioned structures in @p budget under the
     * "flow ..." categories. Scoped: destroying (or re-attaching)
     * the directory releases the bytes, so budgets tracked across
     * churn stay a live gauge.
     */
    void attach_budget(MemBudget& budget);

    /**
     * Cross-check the instantiated bytes against the analytical
     * model at this directory's resolved geometry. Returns an empty
     * string when every category and the total agree within
     * @p tolerance (fractional), else a description of the first
     * divergence.
     */
    std::string
    reconcile_with_model(double tolerance = kFlowModelTolerance) const;

  private:
    struct FlowSlot
    {
        uint64_t key = 0;
        uint16_t tenant = 0;
        uint64_t packets = 0;
        uint64_t bytes = 0;
    };
    struct Shard
    {
        CuckooTable xlt;
        std::vector<FlowSlot> pool;
        std::vector<uint32_t> free_list;
        explicit Shard(uint64_t capacity, uint64_t seed);
    };

    TenantStats& tenant_slot(uint16_t t);

    FlowDirectoryConfig cfg_;
    uint64_t shard_capacity_ = 0;
    std::vector<Shard> shards_;
    std::vector<TenantStats> tenants_;
    HeavyHitterSketch sketch_;
    size_t size_ = 0;
    Stats stats_;
    std::vector<MemBudget::Scoped> budget_regs_;
};

} // namespace fld::core

#endif // FLD_FLD_FLOW_DIRECTORY_H
