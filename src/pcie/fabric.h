/**
 * @file
 * Event-driven PCIe fabric: ports, switch routing by BAR ranges,
 * per-direction link serialization, and split-completion reads.
 *
 * Topology model: every port connects to a central switch (the
 * Innova-2 NIC embeds one). A transaction from port A to port B
 * serializes on A's egress link, crosses the switch (propagation
 * latency), then serializes on B's ingress link. Both serializers are
 * independent resources, so bidirectional traffic and multi-initiator
 * contention behave naturally.
 */
#ifndef FLD_PCIE_FABRIC_H
#define FLD_PCIE_FABRIC_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "pcie/endpoint.h"
#include "pcie/tlp.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/inline_callback.h"

namespace fld::pcie {

using PortId = uint32_t;
constexpr PortId kInvalidPort = ~0u;

/** Per-port wire-byte counters (for utilization reporting). */
struct PortStats
{
    uint64_t egress_bytes = 0;  ///< device -> switch
    uint64_t ingress_bytes = 0; ///< switch -> device
    uint64_t reads = 0;
    uint64_t writes = 0;
};

class PcieFabric
{
  public:
    /** Move-only completion handlers (sim::MoveFunction): DMA chunk
     *  fans fire thousands of these per descriptor ring spin, and the
     *  std::function they replaced heap-allocated per operation. A
     *  read completion lends its buffer: a handler that decodes in
     *  place leaves it, and the fabric reuses it for a later read; a
     *  handler that keeps the bytes moves them out. A vector write's
     *  buffer is likewise reused once the write is delivered. */
    using OnWriteDone = sim::MoveFunction<void()>;
    using OnReadData = sim::MoveFunction<void(std::vector<uint8_t>&)>;

    PcieFabric(sim::EventQueue& eq, TlpParams tlp = {})
        : eq_(eq), tlp_(tlp)
    {}

    /**
     * Create a port with a link of @p gbps per direction and one-way
     * propagation @p latency to the switch.
     */
    PortId add_port(std::string name, double gbps, sim::TimePs latency);

    /**
     * Map @p ep at fabric address range [base, base+size) reachable
     * through @p port. Ranges must not overlap.
     */
    void attach(PortId port, PcieEndpoint* ep, uint64_t base,
                uint64_t size);

    /**
     * Posted write from @p from to fabric address @p addr. The
     * optional callback fires when the data has been delivered into
     * the target endpoint (writes are posted: the initiator does not
     * wait, but callers may want delivery ordering hooks).
     */
    void write(PortId from, uint64_t addr, std::vector<uint8_t> data,
               OnWriteDone done = {});

    /**
     * Posted write that copies @p len bytes out of @p data instead of
     * taking a vector. Preferred for fixed-size records built on the
     * stack (CQEs, doorbells): the bytes land in a pooled, capacity-
     * recycled buffer, so steady state does no allocation. The vector
     * overload remains the zero-copy path for payloads that already
     * own their storage.
     */
    void write(PortId from, uint64_t addr, const void* data, size_t len,
               OnWriteDone done = {});

    /** Split-completion read of @p len bytes at @p addr. @p done gets
     *  exactly those bytes, in a buffer it may move out of. */
    void read(PortId from, uint64_t addr, size_t len, OnReadData done);

    const TlpParams& tlp() const { return tlp_; }

    /**
     * Attach a fault plan. Fault behaviour follows tlp().faults:
     * read completions may be delayed or stalled, doorbell-sized
     * posted writes may be delivered with jitter. With a null plan or
     * all-zero knobs the fabric's timing is bit-identical to before.
     */
    void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }
    const PortStats& stats(PortId port) const
    {
        return ports_[port]->stats;
    }
    sim::EventQueue& event_queue() { return eq_; }

  private:
    struct Port
    {
        std::string name;
        double gbps;
        sim::TimePs latency;
        sim::TimePs egress_busy_until = 0;
        sim::TimePs ingress_busy_until = 0;
        /// Fault mode only: completions to this requester are kept
        /// FIFO; a delayed completion drags later ones behind it.
        sim::TimePs cpl_order_floor = 0;
        PortStats stats;
    };
    struct Mapping
    {
        uint64_t base;
        uint64_t size;
        PortId port;
        PcieEndpoint* ep;
    };
    /**
     * In-flight transaction state, pooled. The scheduled hops capture
     * only {fabric, op index} (16 bytes — always inline in the event
     * node); carrying the completion callback itself through the
     * capture chain overflowed the inline store and heap-allocated
     * three times per read.
     */
    struct ReadOp
    {
        PcieEndpoint* ep = nullptr;
        uint64_t bar_off = 0;
        size_t len = 0;
        Port* src = nullptr;
        Port* dst = nullptr;
        OnReadData done;
        std::vector<uint8_t> data;
        uint32_t next_free = 0;
    };
    struct WriteOp
    {
        PcieEndpoint* ep = nullptr;
        uint64_t bar_off = 0;
        std::vector<uint8_t> data;
        OnWriteDone done;
        uint32_t next_free = 0;
    };

    uint32_t acquire_read_op();
    void release_read_op(uint32_t idx);
    uint32_t acquire_write_op();
    void release_write_op(uint32_t idx);
    void post_write(PortId from, uint64_t addr, uint32_t idx);
    void read_request_arrived(uint32_t idx);
    void read_data_ready(uint32_t idx);
    void deliver_write(uint32_t idx);
    /** Move @p buf's storage to spare_bufs_ unless it has none or the
     *  list is full. */
    void keep_spare(std::vector<uint8_t>& buf);

    /**
     * Serialize @p wire_bytes on a direction serializer; returns the
     * time the last byte leaves the serializer.
     */
    sim::TimePs serialize(sim::TimePs earliest, sim::TimePs& busy_until,
                          double gbps, uint64_t wire_bytes);

    const Mapping& resolve(uint64_t addr) const;

    sim::EventQueue& eq_;
    TlpParams tlp_;
    sim::FaultPlan* faults_ = nullptr;
    std::vector<std::unique_ptr<Port>> ports_;
    std::vector<Mapping> map_;
    /// Op pools: deque for stable addresses, freelist threaded through
    /// next_free (kFreeListEnd terminates).
    static constexpr uint32_t kFreeListEnd = ~0u;
    std::deque<ReadOp> read_ops_;
    uint32_t read_free_ = kFreeListEnd;
    std::deque<WriteOp> write_ops_;
    uint32_t write_free_ = kFreeListEnd;
    /// Buffers for later reads: those read handlers left behind and
    /// those delivered vector writes held (a frame's bytes, once in
    /// host memory, carry the next payload read). Bounded.
    static constexpr size_t kMaxSpareBufs = 8;
    std::vector<std::vector<uint8_t>> spare_bufs_;
};

} // namespace fld::pcie

#endif // FLD_PCIE_FABRIC_H
