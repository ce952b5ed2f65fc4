/**
 * @file
 * FLD runtime library: the software control plane (§5.3).
 *
 * Runs on the host CPU and binds FLD and the NIC together: it creates
 * NIC queues whose rings live behind the FLD BAR (or, for the receive
 * ring, in host memory), installs match-action rules, and exposes the
 * two high-level interfaces:
 *
 *  - FLD-E: raw Ethernet queues plus "send to accelerator" match-action
 *    actions with next-table resume semantics;
 *  - FLD-R: RDMA queue pairs whose data path belongs to the
 *    accelerator while connection setup stays in software.
 *
 * Control-plane work costs no simulated time (it is off the data
 * path), matching the paper's division of labor (§4.1).
 */
#ifndef FLD_RUNTIME_FLD_RUNTIME_H
#define FLD_RUNTIME_FLD_RUNTIME_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fld/flexdriver.h"
#include "nic/nic.h"
#include "pcie/endpoint.h"
#include "util/arena.h"

namespace fld::runtime {

/** Events surfaced to control-plane applications (§5.3). */
struct RuntimeEvent
{
    enum class Source { Nic, Fld };
    Source source;
    std::string description;
};

class FldRuntime
{
  public:
    /**
     * @param host_arena_base / size: host-memory range the runtime may
     *        use for receive rings (and nothing else — FLD's design
     *        keeps all hot structures on-die or in the NIC).
     */
    FldRuntime(nic::NicDevice& nic, core::FlexDriver& fld,
               pcie::MemoryEndpoint& hostmem, uint64_t host_arena_base,
               uint64_t host_arena_size);

    /** An FLD-E Ethernet queue pair (one FLD tx queue + one NIC RQ). */
    struct EthQueue
    {
        uint32_t fld_queue = 0;
        uint32_t sqn = 0;
        uint32_t rqn = 0;
        uint32_t cqn_tx = 0;
        uint32_t cqn_rx = 0;
        nic::VportId vport = 0;
    };

    /**
     * Create an FLD-E queue on @p vport using FLD tx queue
     * @p fld_queue. @p rx_buffers MPRQ buffers (FLD geometry) are
     * carved from FLD RX SRAM with their ring in host memory.
     */
    EthQueue create_eth_queue(nic::VportId vport, uint32_t fld_queue,
                              uint32_t rx_buffers);

    /** An FLD-R queue pair. */
    struct FldQp
    {
        uint32_t fld_queue = 0;
        uint32_t qpn = 0;
        uint32_t sqn = 0;
        uint32_t rqn = 0;
        nic::VportId vport = 0;
    };

    /** Create an FLD-R QP whose data path belongs to the accelerator. */
    FldQp create_fld_qp(nic::VportId vport, uint32_t fld_queue,
                        uint32_t rx_buffers);

    /**
     * Connect an FLD-R QP to a remote endpoint — the control plane
     * acts as a standard RDMA connection manager while the data path
     * never touches the CPU.
     */
    void connect_qp(const FldQp& qp, uint32_t remote_qpn,
                    const net::MacAddr& local_mac,
                    const net::MacAddr& remote_mac);

    /**
     * FLD-E high-level abstraction: extend the match-action API with
     * an acceleration action. Packets matching @p match in @p table
     * are tagged with @p context_id, sent to the accelerator through
     * @p q, and — once the accelerator transmits them back — resume
     * NIC processing at @p next_table.
     */
    uint64_t add_accel_action(uint32_t table, int priority,
                              nic::FlowMatch match, const EthQueue& q,
                              uint32_t context_id, uint32_t next_table);

    using EventHandler = std::function<void(const RuntimeEvent&)>;
    void set_event_handler(EventHandler fn);

    nic::NicDevice& nic() { return nic_; }
    core::FlexDriver& fld() { return fld_; }

  private:
    /** SQ on FLD tx queue @p fld_queue's ring, RQ with its ring in
     *  host memory, and (with @p rdma) a QP over both, bound to FLD.
     *  An Ethernet queue's qpn stays 0. */
    FldQp create_queue(nic::VportId vport, uint32_t fld_queue,
                       uint32_t rx_buffers, bool rdma);

    nic::NicDevice& nic_;
    core::FlexDriver& fld_;
    pcie::MemoryEndpoint& hostmem_;
    Arena arena_;
    uint32_t tx_cqn_ = 0;
    uint32_t rx_cqn_ = 0;
    EventHandler events_;
};

} // namespace fld::runtime

#endif // FLD_RUNTIME_FLD_RUNTIME_H
