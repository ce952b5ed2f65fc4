#include "runtime/fld_runtime.h"

#include "nic/ring_protocol.h"
#include "util/strings.h"

namespace fld::runtime {

FldRuntime::FldRuntime(nic::NicDevice& nic, core::FlexDriver& fld,
                       pcie::MemoryEndpoint& hostmem,
                       uint64_t host_arena_base, uint64_t host_arena_size)
    : nic_(nic), fld_(fld), hostmem_(hostmem),
      arena_{"FldRuntime host", host_arena_base, host_arena_size}
{
    // One CQ for all transmit queues and one for receive (§4.3), both
    // rings living behind the FLD BAR where completions are stored
    // compressed.
    uint32_t entries = fld_.config().cq_entries;
    tx_cqn_ = nic_.create_cq({fld_.tx_cq_addr(), entries, false});
    // FLD expands mini-CQE blocks, so its receive CQ opts in (the
    // NIC-level switch still defaults off, matching the paper).
    rx_cqn_ = nic_.create_cq({fld_.rx_cq_addr(), entries, true});
}

void
FldRuntime::set_event_handler(EventHandler fn)
{
    events_ = std::move(fn);
    nic_.set_event_handler([this](const nic::NicEvent& e) {
        if (events_)
            events_({RuntimeEvent::Source::Nic,
                     strfmt("nic event type=%d id=%u", int(e.type),
                            e.id)});
    });
    fld_.set_error_handler([this](const core::FldError& e) {
        if (events_)
            events_({RuntimeEvent::Source::Fld,
                     strfmt("fld error type=%d queue=%u", int(e.type),
                            e.queue)});
    });
}

FldRuntime::FldQp
FldRuntime::create_queue(nic::VportId vport, uint32_t fld_queue,
                         uint32_t rx_buffers, bool rdma)
{
    FldQp q;
    q.fld_queue = fld_queue;
    q.vport = vport;

    nic::SqConfig sq;
    sq.ring_addr = fld_.tx_ring_addr(fld_queue);
    sq.entries = fld_.config().tx_ring_entries;
    sq.cqn = tx_cqn_;
    sq.vport = vport;
    q.sqn = nic_.create_sq(sq);

    // The RQ ring lives in host memory; data buffers live in FLD SRAM.
    uint32_t ring_entries = 64;
    while (ring_entries < 2 * rx_buffers)
        ring_entries *= 2;
    nic::RqConfig rq;
    rq.entries = ring_entries;
    rq.cqn = rx_cqn_;
    rq.ring_addr = 0; // back-filled once the ring is written
    q.rqn = nic_.create_rq(rq);
    if (rdma)
        q.qpn = nic_.create_qp({q.sqn, q.rqn, vport});

    // FLD keys an RDMA queue's completions by QP, an Ethernet one's by
    // its SQ and RQ numbers.
    uint32_t tx_key = rdma ? q.qpn : q.sqn;
    uint32_t rx_key = rdma ? q.qpn : q.rqn;
    fld_.bind_tx_queue(fld_queue, q.sqn, tx_key, rdma);
    // Writing the ring after bind_rx_queue's doorbell is safe: the NIC
    // reads descriptors only once that doorbell write has landed.
    fld_.bind_rx_queue(rx_key, q.rqn, rdma, rx_buffers);
    uint64_t ring_bytes = uint64_t(ring_entries) * nic::kRxDescStride;
    uint64_t ring = arena_.alloc(ring_bytes);
    const core::FldConfig& fc = fld_.config();
    nic::fill_rx_ring(
        hostmem_.raw(ring, ring_bytes), ring_entries, rx_buffers,
        {.byte_count = fld_.rx_buffer_bytes_per_buffer(),
         .stride_count = uint16_t(fc.rx_strides_per_buffer),
         .stride_shift = uint16_t(fc.rx_stride_shift)},
        [&](uint32_t b) { return fld_.rx_buffer_addr(rx_key, b); });
    nic_.set_rq_ring_addr(q.rqn, ring);
    return q;
}

FldRuntime::EthQueue
FldRuntime::create_eth_queue(nic::VportId vport, uint32_t fld_queue,
                             uint32_t rx_buffers)
{
    FldQp q = create_queue(vport, fld_queue, rx_buffers, /*rdma=*/false);
    return {fld_queue, q.sqn, q.rqn, tx_cqn_, rx_cqn_, vport};
}

FldRuntime::FldQp
FldRuntime::create_fld_qp(nic::VportId vport, uint32_t fld_queue,
                          uint32_t rx_buffers)
{
    return create_queue(vport, fld_queue, rx_buffers, /*rdma=*/true);
}

void
FldRuntime::connect_qp(const FldQp& qp, uint32_t remote_qpn,
                       const net::MacAddr& local_mac,
                       const net::MacAddr& remote_mac)
{
    nic_.connect_qp(qp.qpn, {remote_qpn, local_mac, remote_mac});
}

uint64_t
FldRuntime::add_accel_action(uint32_t table, int priority,
                             nic::FlowMatch match, const EthQueue& q,
                             uint32_t context_id, uint32_t next_table)
{
    std::vector<nic::Action> actions;
    if (context_id != 0)
        actions.push_back(nic::set_tag(context_id));
    actions.push_back(nic::send_to_accel(q.rqn, next_table));
    return nic_.add_rule(table, priority, std::move(match),
                         std::move(actions));
}

} // namespace fld::runtime
