/**
 * @file
 * The ConnectX-like NIC model.
 *
 * An *unmodified commodity NIC* as seen over PCIe: descriptor rings in
 * fabric memory (host DRAM or FLD BAR — the NIC does not care, which
 * is the paper's core architectural point), MMIO doorbells, DMA
 * engines, an embedded switch with match-action steering, RSS,
 * checksum and VXLAN offloads, a hardware RC (RoCE-like) transport,
 * and per-queue/per-flow traffic shaping.
 *
 * Both the CPU baseline driver and FLD drive this same device; they
 * differ only in where their rings and buffers live and who rings the
 * doorbells.
 */
#ifndef FLD_NIC_NIC_H
#define FLD_NIC_NIC_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/toeplitz.h"
#include "nic/config.h"
#include "nic/descriptors.h"
#include "nic/flow_table.h"
#include "nic/pipeline.h"
#include "nic/wire.h"
#include "pcie/fabric.h"
#include "sim/event_queue.h"
#include "sim/token_bucket.h"

namespace fld::nic {

/** Completion queue configuration. */
struct CqConfig
{
    uint64_t ring_addr = 0; ///< fabric address of the CQE ring
    uint32_t entries = 0;   ///< power of two
    /** Consumer opts in to mini-CQE compression (it must know how to
     *  expand blocks); also requires NicConfig::cqe_compression. */
    bool allow_compression = false;
};

/** Send queue configuration (Ethernet or the SQ half of an RDMA QP). */
struct SqConfig
{
    uint64_t ring_addr = 0;
    uint32_t entries = 0;
    uint32_t cqn = 0;
    VportId vport = kUplinkVport;
    double rate_limit_gbps = 0.0; ///< 0 = unlimited (ETS max-rate)
};

/** Receive queue configuration (descriptors define MPRQ geometry). */
struct RqConfig
{
    uint64_t ring_addr = 0;
    uint32_t entries = 0;
    uint32_t cqn = 0;
};

/** RSS group (TIR): spreads flows over receive queues. */
struct TirConfig
{
    std::vector<uint32_t> rqns;
};

/** RDMA RC queue pair: pairs an SQ and an RQ on a vport. */
struct QpConfig
{
    uint32_t sqn = 0;
    uint32_t rqn = 0;
    VportId vport = kUplinkVport;
};

/** Peer binding established at connection time. */
struct QpPeer
{
    uint32_t remote_qpn = 0;
    net::MacAddr local_mac{};
    net::MacAddr remote_mac{};
};

/** Asynchronous events reported to the control plane (§5.3). */
struct NicEvent
{
    enum class Type {
        RqNoBuffer,   ///< packet dropped: receive queue empty
        QpRetransmit, ///< RC timeout fired
        QpFatal,      ///< unrecoverable QP error
        RuleDrop,     ///< packet hit an explicit Drop rule
        AclDeny,      ///< packet denied by an ACL action
    };
    Type type;
    uint32_t id = 0; ///< rqn / qpn / rule id
};

/** Aggregate datapath statistics. */
struct NicStats
{
    uint64_t tx_packets = 0;
    uint64_t tx_bytes = 0;
    uint64_t rx_packets = 0; ///< delivered into RQs
    uint64_t rx_bytes = 0;
    uint64_t wire_rx_packets = 0;
    uint64_t drops_no_buffer = 0;
    uint64_t drops_rule = 0;
    uint64_t drops_meter = 0;
    uint64_t drops_no_rule = 0;
    uint64_t drops_acl = 0; ///< AclDeny action hits
    uint64_t rdma_retransmits = 0;
    uint64_t rdma_acks = 0;
    uint64_t rdma_dup_psn = 0;    ///< duplicate data packets re-ACKed
    uint64_t rdma_out_of_order = 0; ///< future-PSN packets dropped
};

class NicDevice : public pcie::PcieEndpoint
{
  public:
    /** BAR layout: SQ doorbells, then RQ doorbells (8 B stride). */
    static constexpr uint64_t kSqDbBase = 0x0000;
    static constexpr uint64_t kRqDbBase = 0x10000;
    static constexpr uint64_t kBarSize = 0x20000;

    NicDevice(std::string name, sim::EventQueue& eq,
              pcie::PcieFabric& fabric, pcie::PortId dma_port,
              NicConfig cfg = {});

    // ------------------------------------------------------------------
    // Control plane (runs in software; zero simulated time, matching
    // the paper's host-resident control plane).
    // ------------------------------------------------------------------
    uint32_t create_cq(const CqConfig& cfg);
    uint32_t create_sq(const SqConfig& cfg);
    uint32_t create_rq(const RqConfig& cfg);
    uint32_t create_tir(const TirConfig& cfg);
    uint32_t create_qp(const QpConfig& cfg);
    void connect_qp(uint32_t qpn, const QpPeer& peer);

    /** Allocate a new vPort (0 is the wire uplink). */
    VportId add_vport();

    /** Match-action pipeline management (rte_flow-like). */
    uint64_t add_rule(uint32_t table, int priority, FlowMatch match,
                      std::vector<Action> actions);
    bool remove_rule(uint64_t id);
    FlowTables& flows() { return flows_; }

    /** Configure a named meter used by Meter actions (policer). */
    void set_meter(uint32_t meter_id, double gbps, uint64_t burst_bytes);

    /**
     * Programmable pipeline: all receive steering runs through a
     * compiled nic::Pipeline. Without an explicit program it is
     * derived from the installed rules (Pipeline::config_from) and
     * lazily recompiled after add_rule/remove_rule; per-rule hit
     * counters survive the recompile. set_pipeline_program installs
     * an explicit program with masked/ternary keys the rule API
     * cannot express; rule changes no longer affect steering until
     * clear_pipeline_program. Pools referenced by VipSelect actions
     * come from the program and/or set_vip_pool.
     */
    void set_pipeline_program(PipelineConfig cfg);
    void clear_pipeline_program();
    /** Register a VIP pool for VipSelect actions. */
    void set_vip_pool(uint32_t pool_id, std::vector<uint32_t> backends);
    /** The compiled program currently steering (compiles if dirty). */
    const Pipeline& pipeline();

    /** Change an SQ's max-rate shaping after creation. */
    void set_sq_rate(uint32_t sqn, double gbps);

    /** Late-bind an RQ's descriptor-ring address (control plane). */
    void set_rq_ring_addr(uint32_t rqn, uint64_t addr);

    /** The TIR that receives packets delivered to @p vport. */
    void set_vport_default_tir(VportId vport, uint32_t tir);

    using EventHandler = std::function<void(const NicEvent&)>;
    void set_event_handler(EventHandler fn) { events_ = std::move(fn); }

    /**
     * Fault injection (testing/§5.3 error handling): transition a QP
     * into the error state. In-flight and future sends complete with
     * error CQEs; recovery is the control plane's job, as in Verbs.
     */
    void inject_qp_error(uint32_t qpn);

    /**
     * Observation hook for tests/fuzzing: called at RQ-delivery entry
     * with the chosen rqn and the packet as steered (post-decap, pre
     * buffer accounting), before any no-buffer drop decision. Unset by
     * default and never on the hot path cost model — purely a probe.
     */
    using RxDeliveryProbe =
        std::function<void(uint32_t rqn, const net::Packet&)>;
    void set_rx_delivery_probe(RxDeliveryProbe fn)
    {
        rx_probe_ = std::move(fn);
    }

    NetPort& uplink() { return uplink_; }
    const NicStats& stats() const { return stats_; }
    const NicConfig& config() const { return cfg_; }
    pcie::PortId dma_port() const { return dma_port_; }

    // ------------------------------------------------------------------
    // PcieEndpoint: the NIC's own BAR (doorbells).
    // ------------------------------------------------------------------
    void bar_write(uint64_t addr, const uint8_t* data,
                   size_t len) override;
    void bar_read(uint64_t addr, uint8_t* out, size_t len) override;
    std::string ep_name() const override { return name_; }

  private:
    // ---- send path ----
    struct ReadyWqe ///< an executed WQE whose payload is in
    {
        bool filled = false;
        Wqe wqe;
        std::vector<uint8_t> payload;
    };
    struct SqState
    {
        SqConfig cfg;
        uint32_t pi = 0;       ///< producer index (doorbell writes it)
        uint32_t fetch_ci = 0; ///< next WQE to fetch
        uint32_t fetches_inflight = 0; ///< pipelined ring reads
        sim::TokenBucket shaper{0.0, 1 << 20};
        sim::TimePs shaper_free_at = 0;
        bool is_rdma = false;  ///< set when adopted by a QP
        uint32_t qpn = 0;
        // In-order retirement: payload gathers pipeline freely, but
        // WQEs execute (send + complete) strictly in ring order.
        uint64_t next_exec_seq = 0;
        uint64_t next_retire_seq = 0;
        /// Seq-indexed ring: WQE seq waits in ready[seq % size] until
        /// every earlier one retired. Grows by doubling, never past
        /// cfg.entries (a driver cannot have more WQEs outstanding).
        std::vector<ReadyWqe> ready;
    };
    // ---- receive path ----
    struct RqState
    {
        RqConfig cfg;
        uint32_t pi = 0;       ///< descriptors posted by the driver
        uint32_t fetch_ci = 0; ///< next descriptor to fetch
        uint32_t fetches_inflight = 0;
        std::deque<std::pair<uint32_t, RxDesc>> ready; ///< (index, desc)
        std::optional<RxDesc> current;
        uint32_t current_index = 0;
        uint32_t stride_used = 0;
    };
    struct CqState
    {
        CqConfig cfg;
        uint32_t pi = 0;
        // CQE compression (mini-CQEs): receive completions coalesce
        // into one PCIe write within a short window.
        std::vector<Cqe> pending;
        uint32_t block_start_slot = 0;
        uint64_t flush_generation = 0;
    };
    struct TxMsg ///< RC sender bookkeeping for one message (or frame)
    {
        Wqe wqe;
        uint32_t first_psn = 0;
        uint32_t last_psn = 0;
        uint32_t len = 0;
        std::vector<uint8_t> payload; ///< kept for retransmission
    };
    struct QpState
    {
        QpConfig cfg;
        QpPeer peer;
        bool connected = false;
        bool in_error = false;
        // sender
        uint32_t next_psn = 0;
        uint32_t acked_psn = 0; ///< first unacked PSN
        std::deque<TxMsg> inflight;
        uint64_t inflight_bytes = 0;
        std::deque<std::pair<Wqe, std::vector<uint8_t>>> pending;
        uint64_t timer_generation = 0;
        // receiver
        uint32_t expected_psn = 0;
        uint32_t pkts_since_ack = 0;
        uint32_t cur_msg_id = 0;
        uint32_t cur_msg_len = 0;
        uint32_t cur_msg_off = 0;
    };

    // send machinery
    void doorbell_sq(uint32_t sqn, uint32_t pi);
    void doorbell_sq_inline(uint32_t sqn, uint32_t pi, const Wqe& wqe);
    void maybe_fetch_wqes(uint32_t sqn);
    void execute_wqe(uint32_t sqn, Wqe wqe);
    /** File WQE @p seq of @p sqn as ready, then retire what is in order. */
    void wqe_ready(uint32_t sqn, uint64_t seq, const Wqe& wqe,
                   std::vector<uint8_t> payload);
    void eth_send(uint32_t sqn, const Wqe& wqe,
                  std::vector<uint8_t> payload);
    void rdma_send(uint32_t qpn, const Wqe& wqe,
                   std::vector<uint8_t> payload);
    void sq_complete(uint32_t sqn, const Wqe& wqe);
    void shaped_egress(uint32_t sqn, net::Packet&& pkt);

    // receive machinery
    void doorbell_rq(uint32_t rqn, uint32_t pi);
    void maybe_fetch_rx_descs(uint32_t rqn);
    void wire_receive(net::Packet&& pkt);
    /** Returns false when the packet was dropped for lack of buffers.
     *  An Ethernet frame passes its pass's @p ip_fragment verdict; an
     *  RDMA segment passes false and @p rdma_info. */
    bool deliver_to_rq(uint32_t rqn, net::Packet&& pkt, bool ip_fragment,
                       std::optional<Cqe> rdma_info = {});
    // The delivery steps below take @p pp, the pipeline pass's parse
    // of @p pkt's current bytes.
    void deliver_to_tir(uint32_t tir, net::Packet&& pkt,
                        const net::ParsedPacket& pp);
    void deliver_to_vport(VportId vport, net::Packet&& pkt,
                          const net::ParsedPacket& pp);

    // pipeline
    /** One pass of @p pkt through steering, parsed once on entry.
     *  @p tx_offload: the frame comes from an SQ, so TX checksum
     *  offload runs first. */
    void run_pipeline(net::Packet&& pkt, VportId in_vport,
                      uint32_t start_table, bool tx_offload = false);
    void offload_rx_checks(net::Packet& pkt, const net::ParsedPacket& pp);
    /** The explicit program if one is set, else the rules-derived
     *  program (recompiled first when rules changed). */
    Pipeline& steering_pipeline();
    /** Rewrite IPv4 addrs/ports per a NatRewrite-shaped action and fix
     *  the IP header + L4 checksums; no-op on non-IPv4 packets. @p pp
     *  is @p pkt's parse, taken again after the rewrite. */
    static void nat_rewrite_packet(net::Packet& pkt, net::ParsedPacket& pp,
                                   const Action& act);

    // rdma
    void rdma_rx(VportId vport, net::Packet&& pkt);
    void rdma_handle_ack(uint32_t qpn, QpState& qp, uint32_t acked_psn);
    /** Complete @p wqe of @p qpn with an error CQE on its SQ's CQ. */
    void complete_with_error(uint32_t qpn, const QpState& qp,
                             const Wqe& wqe);
    void rdma_send_ack(QpState& qp);
    void arm_retransmit_timer(uint32_t qpn);
    void retransmit(uint32_t qpn);
    void transmit_segments(uint32_t qpn, const TxMsg& msg);

    // completions
    void write_cqe(uint32_t cqn, Cqe cqe);
    void flush_cq(uint32_t cqn);

    void emit(NicEvent::Type type, uint32_t id);

    std::string name_;
    sim::EventQueue& eq_;
    pcie::PcieFabric& fabric_;
    pcie::PortId dma_port_;
    NicConfig cfg_;

    NetPort uplink_;
    FlowTables flows_;
    Pipeline pipeline_;            ///< compiled from flows_
    bool pipeline_dirty_ = true;   ///< flows changed since compile
    std::optional<Pipeline> program_; ///< set_pipeline_program
    std::map<uint32_t, std::vector<uint32_t>> vip_pools_;
    NicStats stats_;
    EventHandler events_;
    RxDeliveryProbe rx_probe_;

    std::map<uint32_t, SqState> sqs_;
    std::map<uint32_t, RqState> rqs_;
    std::map<uint32_t, CqState> cqs_;
    std::map<uint32_t, TirConfig> tirs_;
    std::map<uint32_t, QpState> qps_;
    std::map<uint32_t, sim::TokenBucket> meters_;
    std::map<VportId, uint32_t> vport_default_tir_;
    VportId next_vport_ = 1;
    uint32_t next_id_ = 1;
};

} // namespace fld::nic

#endif // FLD_NIC_NIC_H
