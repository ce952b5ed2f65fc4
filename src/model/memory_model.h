/**
 * @file
 * NIC-driver memory model (§4.3, §5.2.1): the formulas of Tables 2/3
 * and the scaling study of Figure 4, implemented exactly as printed.
 *
 * Mirrors the authors' published model repository
 * (github.com/acsl-technion/flexdriver-model), which this reproduction
 * re-derives from the paper text.
 */
#ifndef FLD_MODEL_MEMORY_MODEL_H
#define FLD_MODEL_MEMORY_MODEL_H

#include <cstdint>

namespace fld::model {

/** Analysis parameters (Table 2a defaults). */
struct MemoryParams
{
    double bandwidth_gbps = 100.0;  ///< B
    uint32_t min_packet = 256;      ///< M_min (bytes)
    uint32_t max_packet = 16 * 1024;///< M_max (bytes)
    double lifetime_rx_us = 5.0;    ///< L_rx
    double lifetime_tx_us = 25.0;   ///< L_tx
    uint32_t num_queues = 512;      ///< N_q (transmit queues)

    // Table 2b: descriptor sizes.
    uint32_t sw_txdesc = 64;
    uint32_t sw_rxdesc = 16;
    uint32_t sw_cqe = 64;
    uint32_t fld_txdesc = 8;
    double fld_cqe = 15.0;
    uint32_t pi_size = 4;
};

/** Quantities derived per Table 2a. */
struct DerivedParams
{
    double packet_rate_mpps = 0; ///< R = B / (M_min + 20 B)
    uint32_t n_txdesc = 0;       ///< ceil(R * L_tx)
    uint32_t n_rxdesc = 0;       ///< ceil(R * L_rx)
    double s_txbdp = 0;          ///< B * L_tx (bytes)
    double s_rxbdp = 0;          ///< B * L_rx (bytes)
};

DerivedParams derive(const MemoryParams& p);

/** One column of Table 3 (bytes). */
struct MemoryBreakdown
{
    double txq = 0;    ///< S_txq: transmit rings
    double txdata = 0; ///< S_txdata: transmit buffers (+ xlt for FLD)
    double rxdata = 0; ///< S_rxdata: receive buffers
    double cq = 0;     ///< S_cq: completion queues
    double srq = 0;    ///< S_srq: receive ring (0 for FLD: host mem)
    double pi = 0;     ///< S_pitot: producer indices
    double total = 0;
};

/** Conventional software driver memory (Table 3, "Software"). */
MemoryBreakdown software_memory(const MemoryParams& p);

/**
 * FLD memory after the §5.2 optimizations (Table 3, "FLD").
 * Translation-table sizes: the cuckoo ring translation is
 * 2 x f(N_txdesc) slots of 31 bits (15.5 KiB in the example); the
 * data translation is anchored to the prototype's measured 33 KiB at
 * the example BDP and scales linearly with it.
 */
MemoryBreakdown fld_memory(const MemoryParams& p);

// ---------------------------------------------------------------------
// Flow-scale extension: predicted on-die cost of the sharded flow
// directory (cuckoo flow translation + packed flow state + per-tenant
// stats + heavy-hitter sketch) at a given flow-table size. The
// simulated FLD registers what it actually instantiates in its
// MemBudget; conformance tests and bench_paper's flow_scale row
// reconcile the two
// and fail when they diverge beyond a tolerance.
// ---------------------------------------------------------------------

/** Packed hardware bytes per flow-state record: 8 B key tag + 2 B
 *  tenant + 6 B packet counter + 8 B byte counter. Must agree with
 *  fld::core::FlowDirectory's accounting. */
constexpr uint32_t kFlowStateBytes = 24;

/** Packed hardware bytes per tenant-stats record (four counters). */
constexpr uint32_t kTenantStateBytes = 32;

/**
 * Resolved flow-directory geometry. All fields are explicit: the
 * facade resolves its auto-sizing rules (shard count, sketch width)
 * first and hands the result here, so the model never duplicates
 * policy — it only prices geometry.
 */
struct FlowScaleParams
{
    uint64_t flow_capacity = 4096; ///< max concurrent flows
    uint32_t shards = 1;           ///< independent cuckoo shards
    uint64_t shard_capacity = 0;   ///< per-shard entries (incl. slack)
    uint32_t tenants = 64;
    uint32_t cuckoo_banks = 4;     ///< paper §5.2 geometry
    uint32_t cuckoo_stash = 4;
    uint32_t sketch_width = 0;     ///< 0 = sketch disabled
    uint32_t sketch_depth = 4;
    uint32_t sketch_topk = 32;
};

/** One Table-3-style column for the flow directory (bytes). */
struct FlowScaleBreakdown
{
    double cuckoo = 0;       ///< sharded flow-translation tables
    double flow_state = 0;   ///< packed per-flow records
    double tenant_stats = 0; ///< per-tenant counters
    double sketch = 0;       ///< count-min rows + top-k table
    double total = 0;
};

/**
 * Predicted flow-directory memory: per shard, a load-factor-1/2
 * cuckoo table (2 x shard_capacity slots of 4 B + an 8 B/entry
 * stash) plus shard_capacity packed flow records; kTenantStateBytes
 * per tenant; and the sketch's counters + candidate table.
 */
FlowScaleBreakdown flow_directory_memory(const FlowScaleParams& p);

} // namespace fld::model

#endif // FLD_MODEL_MEMORY_MODEL_H
