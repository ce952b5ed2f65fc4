/**
 * @file
 * FlexDriver (FLD): the paper's contribution — an on-accelerator
 * hardware module implementing the NIC data-plane driver (§5).
 *
 * FLD exposes a PCIe BAR the NIC DMAs against. The trick (§5.2) is
 * that nothing behind that BAR is stored in the NIC's format:
 *
 *  - Transmit descriptor rings are *virtual*. A 4-bank cuckoo table
 *    maps (queue, ring slot) into one shared pool of 8 B compressed
 *    descriptors; the 64 B vendor WQE is synthesized on-the-fly when
 *    the NIC's read arrives.
 *  - Transmit data lives in a small shared physical buffer behind
 *    per-queue virtual windows with chunk-granular translation.
 *  - Completions are stored compressed (15 B) after conversion from
 *    the 64 B wire CQE.
 *  - The receive descriptor ring lives in *host* memory and is never
 *    modified: FLD recycles buffers in posting order, so recycling is
 *    just a producer-index doorbell.
 *
 * The accelerator side is a pair of AXI4-Stream-like channels with
 * per-queue transmit credits (§5.5).
 */
#ifndef FLD_FLD_FLEXDRIVER_H
#define FLD_FLD_FLEXDRIVER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fld/axi.h"
#include "fld/buffer_pool.h"
#include "fld/cuckoo.h"
#include "fld/flow_directory.h"
#include "fld/mem_budget.h"
#include "nic/descriptors.h"
#include "nic/ring_protocol.h"
#include "pcie/fabric.h"
#include "sim/event_queue.h"
#include "util/arena.h"
#include "util/fifo.h"

namespace fld::core {

/** FLD instantiation parameters. Defaults mirror the prototype (§6):
 *  two transmit queues, 4096-descriptor pool, 256 KiB buffers. */
struct FldConfig
{
    uint32_t num_tx_queues = 2;
    uint32_t tx_desc_pool = 4096;
    uint32_t tx_ring_entries = 2048;  ///< virtual ring slots per queue
    uint32_t tx_buffer_bytes = 256 * 1024;
    uint32_t tx_vwindow_bytes = 256 * 1024; ///< virtual window per queue
    uint32_t rx_buffer_bytes = 256 * 1024;
    uint32_t rx_stride_shift = 11;    ///< 2 KiB MPRQ strides
    uint32_t rx_strides_per_buffer = 8;
    uint32_t cq_entries = 1024;       ///< per CQ (one TX, one RX)
    uint32_t signal_interval = 16;    ///< selective completion period
    bool wqe_by_mmio = true;          ///< inline lone WQEs in doorbells
    /** Flow-directory control plane (0 = disabled, the prototype
     *  default: flow state is the runtime's business unless the
     *  deployment asks FLD to track it on-die). */
    uint64_t flow_capacity = 0;
    uint32_t flow_tenants = 64;
};

/** FPGA clock in MHz: FLD closes timing at 250 MHz (§6, Table 5). */
constexpr double kClockMhz = 250.0;
/** FLD packet-processing latency in clock cycles: the WQE synthesis
 *  a NIC read waits for (50 cycles = 200 ns at 250 MHz). Chosen here. */
constexpr uint32_t kPipelineCycles = 50;

/** Flow-directory shards: 0 = auto (see FlowDirectoryConfig). */
constexpr uint32_t kFlowShards = 0;
/** The flow directory keeps heavy-hitter telemetry. */
constexpr bool kFlowSketch = true;

/** Errors FLD reports to the control plane (§5.3, error handling). */
struct FldError
{
    enum class Type {
        TxNoCredits,   ///< accelerator sent without credits
        CuckooStall,   ///< descriptor insert stalled (stash full)
        NicError,      ///< error CQE from the NIC
        BadQueue,
    };
    Type type;
    uint32_t queue = 0;
};

struct FldStats
{
    uint64_t tx_packets = 0;
    uint64_t tx_bytes = 0;
    uint64_t rx_packets = 0;
    uint64_t rx_bytes = 0;
    uint64_t tx_rejected = 0;  ///< no credits
    uint64_t doorbells = 0;
    uint64_t wqe_reads = 0;    ///< descriptor slots synthesized
    uint64_t cqes = 0;
    uint64_t buffers_recycled = 0;
    uint64_t rx_stale_dropped = 0; ///< completions outside the posted window
};

class FlexDriver : public pcie::PcieEndpoint
{
  public:
    // BAR regions (BAR-relative).
    static constexpr uint64_t kTxRingRegion = 0x0000'0000;
    static constexpr uint64_t kTxDataRegion = 0x1000'0000;
    static constexpr uint64_t kRxDataRegion = 0x2000'0000;
    static constexpr uint64_t kCqRegion = 0x3000'0000;
    static constexpr uint64_t kBarSize = 0x4000'0000;

    /**
     * @param bar_base Fabric address the BAR is attached at (FLD puts
     *        absolute payload addresses into the WQEs it synthesizes).
     * @param nic_bar_base Fabric address of the NIC BAR (doorbells).
     */
    FlexDriver(std::string name, sim::EventQueue& eq,
               pcie::PcieFabric& fabric, pcie::PortId port,
               uint64_t bar_base, uint64_t nic_bar_base,
               FldConfig cfg = {});

    // -- control-plane binding (performed by the FLD runtime, §5.3) --

    /**
     * Bind FLD tx queue @p q to NIC send queue @p nic_sqn.
     * @p completion_key is the qpn field TX CQEs carry (the sqn for
     * Ethernet queues, the QP number for RDMA queues).
     */
    void bind_tx_queue(uint32_t q, uint32_t nic_sqn,
                       uint32_t completion_key, bool is_rdma);

    /**
     * Bind a NIC receive queue to FLD. @p completion_key is the qpn
     * field RX CQEs will carry (the rqn for Ethernet, the QP number
     * for RDMA). @p buffer_count buffers of the configured geometry
     * are carved out of the RX SRAM and all posted; the control plane
     * must have written matching descriptors into the host-memory
     * ring.
     */
    void bind_rx_queue(uint32_t completion_key, uint32_t nic_rqn,
                       bool is_rdma, uint32_t buffer_count);

    /** Ring-layout helpers for the control plane. */
    uint64_t tx_ring_addr(uint32_t q) const;
    uint64_t tx_cq_addr() const;
    uint64_t rx_cq_addr() const;
    uint64_t rx_buffer_addr(uint32_t rx_key, uint32_t buffer_index) const;
    uint32_t rx_buffer_bytes_per_buffer() const
    {
        return cfg_.rx_strides_per_buffer << cfg_.rx_stride_shift;
    }

    // -- accelerator-facing AXI-stream interface (§5.5) --

    void set_rx_handler(StreamRxHandler fn) { rx_handler_ = std::move(fn); }
    void set_credit_handler(CreditHandler fn)
    {
        credit_handler_ = std::move(fn);
    }

    /**
     * Transmit a packet on FLD queue @p q. Returns false (and reports
     * TxNoCredits) when descriptors or buffer space are exhausted —
     * well-behaved accelerators check credits first.
     */
    bool tx(uint32_t q, StreamPacket&& pkt);

    /** Current per-queue transmit credits. */
    TxCredits tx_credits(uint32_t q) const;

    using ErrorHandler = std::function<void(const FldError&)>;
    void set_error_handler(ErrorHandler fn) { errors_ = std::move(fn); }

    const FldStats& stats() const { return stats_; }
    const FldConfig& config() const { return cfg_; }
    const MemBudget& mem_budget() const { return budget_; }
    const CuckooTable& tx_xlt() const { return tx_xlt_; }
    /** On-die flow directory; null unless cfg.flow_capacity > 0. */
    const FlowDirectory* flow_directory() const { return flows_.get(); }

    // -- PcieEndpoint --
    void bar_write(uint64_t addr, const uint8_t* data,
                   size_t len) override;
    void bar_read(uint64_t addr, uint8_t* out, size_t len) override;
    std::string ep_name() const override { return name_; }
    uint64_t read_processing_ps() const override;

  private:
    /** Compressed transmit descriptor: 8 B of on-die state (§5.2). */
    struct CompressedTxDesc
    {
        uint32_t voff = 0;      ///< virtual offset in the queue window
        uint32_t len = 0;
        uint16_t wqe_index = 0; ///< producer index (mod 2^16)
        bool signaled = false;
        bool is_nop = false;    ///< drain NOP: no payload, no buffer
        uint32_t msg_id = 0;
        uint32_t flow_tag = 0;  ///< FLD-E context id (§5.4)
        uint32_t next_table = 0;///< FLD-E resume table (§5.3)
        uint64_t corr = 0;      ///< trace correlation id (0 = untraced)
        bool valid = false;
    };
    struct TxQueue
    {
        uint32_t nic_sqn = 0;        ///< doorbell target
        uint32_t completion_key = 0; ///< qpn field in TX CQEs
        bool is_rdma = false;
        bool bound = false;
        uint32_t pi = 0; ///< producer index (absolute)
        Fifo<uint32_t> outstanding; ///< pool indices, FIFO
        uint32_t unsignaled = 0;
        uint32_t signaled_outstanding = 0; ///< signaled ones in outstanding
        nic::DoorbellCoalescer doorbell;
    };
    struct RxBinding
    {
        uint32_t nic_rqn = 0;
        bool is_rdma = false;
        uint32_t buffer_count = 0;
        uint64_t sram_base = 0; ///< offset into rx SRAM
        uint32_t pi = 0;
        nic::DoorbellCoalescer doorbell;
    };

    void synthesize_wqe(uint32_t q, uint32_t slot, uint8_t* out);
    void post_drain_nop(uint32_t q);
    void handle_tx_cqe(const nic::Cqe& cqe);
    void handle_rx_cqe(const nic::Cqe& cqe);
    void issue_tx_doorbell(uint32_t q);
    void issue_rx_doorbell(uint32_t rx_key);
    void report(FldError::Type type, uint32_t queue);

    std::string name_;
    sim::EventQueue& eq_;
    pcie::PcieFabric& fabric_;
    pcie::PortId port_;
    uint64_t bar_base_;
    uint64_t nic_bar_base_;
    FldConfig cfg_;

    std::vector<TxQueue> txq_;
    std::vector<CompressedTxDesc> desc_pool_;
    std::vector<uint32_t> desc_free_;
    CuckooTable tx_xlt_;
    TxBufferPool tx_buf_;
    std::vector<uint8_t> rx_sram_;
    Arena rx_sram_arena_; ///< carves each binding's buffers
    std::map<uint32_t, RxBinding> rx_; ///< by completion key

    void note_flow(uint64_t key, uint32_t tenant_hint, uint32_t bytes);

    StreamRxHandler rx_handler_;
    /** Deliveries of the CQE block currently being expanded: a
     *  compressed block's mini-CQE train all leaves the FLD at the
     *  same tick, so bar_write collects the callbacks here and issues
     *  them as one schedule_batch (one level search per train; the
     *  wheel's last-bucket memo files the rest). */
    std::vector<sim::EventQueue::Callback> rx_burst_;
    CreditHandler credit_handler_;
    ErrorHandler errors_;
    FldStats stats_;
    MemBudget budget_;
    std::unique_ptr<FlowDirectory> flows_;
};

} // namespace fld::core

#endif // FLD_FLD_FLEXDRIVER_H
