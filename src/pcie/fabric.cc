#include "pcie/fabric.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/logging.h"

namespace fld::pcie {

PortId
PcieFabric::add_port(std::string name, double gbps, sim::TimePs latency)
{
    auto port = std::make_unique<Port>();
    port->name = std::move(name);
    port->gbps = gbps;
    port->latency = latency;
    ports_.push_back(std::move(port));
    return PortId(ports_.size() - 1);
}

void
PcieFabric::attach(PortId port, PcieEndpoint* ep, uint64_t base,
                   uint64_t size)
{
    if (port >= ports_.size())
        fatal("attach: bad port %u", port);
    for (const auto& m : map_) {
        if (base < m.base + m.size && m.base < base + size)
            fatal("attach: overlapping BAR ranges");
    }
    map_.push_back({base, size, port, ep});
}

const PcieFabric::Mapping&
PcieFabric::resolve(uint64_t addr) const
{
    for (const auto& m : map_) {
        if (addr >= m.base && addr < m.base + m.size)
            return m;
    }
    panic("PCIe fabric: no endpoint at address 0x%llx",
          (unsigned long long)addr);
}

sim::TimePs
PcieFabric::serialize(sim::TimePs earliest, sim::TimePs& busy_until,
                      double gbps, uint64_t wire_bytes)
{
    sim::TimePs start = std::max(earliest, busy_until);
    busy_until = start + sim::serialize_time(wire_bytes, gbps);
    return busy_until;
}

void
PcieFabric::write(PortId from, uint64_t addr, std::vector<uint8_t> data,
                  OnWriteDone done)
{
    uint32_t idx = acquire_write_op();
    WriteOp& op = write_ops_[idx];
    keep_spare(op.data); // the pooled op's last buffer
    op.data = std::move(data);
    op.done = std::move(done);
    post_write(from, addr, idx);
}

void
PcieFabric::write(PortId from, uint64_t addr, const void* data,
                  size_t len, OnWriteDone done)
{
    uint32_t idx = acquire_write_op();
    WriteOp& op = write_ops_[idx];
    const uint8_t* p = static_cast<const uint8_t*>(data);
    op.data.assign(p, p + len);
    op.done = std::move(done);
    post_write(from, addr, idx);
}

void
PcieFabric::post_write(PortId from, uint64_t addr, uint32_t idx)
{
    const Mapping& m = resolve(addr);
    Port& src = *ports_[from];
    Port& dst = *ports_[m.port];
    WriteOp& op = write_ops_[idx];
    op.ep = m.ep;
    op.bar_off = addr - m.base;

    uint64_t wire = tlp_.write_wire_bytes(op.data.size());
    src.stats.egress_bytes += wire;
    src.stats.writes++;
    dst.stats.ingress_bytes += wire;

    sim::TimePs now = eq_.now();
    // Same-port traffic (e.g. NIC's integrated paths) still pays
    // serialization once.
    sim::TimePs sent = serialize(now, src.egress_busy_until, src.gbps,
                                 wire);
    sim::TimePs at_switch = sent + src.latency;
    sim::TimePs delivered;
    if (&src == &dst) {
        delivered = at_switch;
    } else {
        delivered = serialize(at_switch, dst.ingress_busy_until,
                              dst.gbps, wire) + dst.latency;
    }

    // Fault injection: MMIO-sized posted writes (doorbells) may be
    // delivered late. Ordering within the port is preserved by the
    // event queue only for equal timestamps, so jitter can reorder a
    // doorbell behind a later one — exactly the hazard drivers must
    // tolerate (producer indices are cumulative, so a stale doorbell
    // is harmless).
    if (faults_) {
        sim::TimePs jitter =
            faults_->next_doorbell_jitter(tlp_.faults, op.data.size());
        if (jitter > 0) {
            if (auto* tr = sim::Tracer::active())
                tr->emit(eq_.now(), sim::TraceEventKind::FaultInject,
                         src.name, "db_jitter", 0, uint32_t(from), 0, 1,
                         op.data.size());
        }
        delivered += jitter;
    }

    eq_.schedule_at(delivered, [this, idx] { deliver_write(idx); });
}

void
PcieFabric::deliver_write(uint32_t idx)
{
    WriteOp& op = write_ops_[idx];
    op.ep->bar_write(op.bar_off, op.data.data(), op.data.size());
    OnWriteDone done = std::move(op.done);
    // Release before invoking: the handler may start new transactions,
    // and the freed op lets them reuse this slot.
    release_write_op(idx);
    if (done)
        done();
}

void
PcieFabric::read(PortId from, uint64_t addr, size_t len, OnReadData done)
{
    const Mapping& m = resolve(addr);
    Port& src = *ports_[from];
    Port& dst = *ports_[m.port];

    uint64_t req_wire = tlp_.read_req_wire_bytes(len);
    uint64_t cpl_wire = tlp_.read_cpl_wire_bytes(len);
    src.stats.egress_bytes += req_wire;
    src.stats.ingress_bytes += cpl_wire;
    src.stats.reads++;
    dst.stats.ingress_bytes += req_wire;
    dst.stats.egress_bytes += cpl_wire;

    sim::TimePs now = eq_.now();
    // Request: src egress -> dst ingress.
    sim::TimePs sent = serialize(now, src.egress_busy_until, src.gbps,
                                 req_wire);
    sim::TimePs at_dst;
    if (&src == &dst) {
        at_dst = sent + src.latency;
    } else {
        at_dst = serialize(sent + src.latency, dst.ingress_busy_until,
                           dst.gbps, req_wire) + dst.latency;
    }

    uint32_t idx = acquire_read_op();
    ReadOp& op = read_ops_[idx];
    op.ep = m.ep;
    op.bar_off = addr - m.base;
    op.len = len;
    op.src = &src;
    op.dst = &dst;
    op.done = std::move(done);
    eq_.schedule_at(at_dst,
                    [this, idx] { read_request_arrived(idx); });
}

void
PcieFabric::read_request_arrived(uint32_t idx)
{
    // Functional read happens once the request arrives, after the
    // endpoint's internal processing delay.
    ReadOp& op = read_ops_[idx];
    sim::TimePs ready = eq_.now() + op.ep->read_processing_ps();
    eq_.schedule_at(ready, [this, idx] { read_data_ready(idx); });
}

void
PcieFabric::read_data_ready(uint32_t idx)
{
    ReadOp& op = read_ops_[idx];
    if (!spare_bufs_.empty()) {
        op.data = std::move(spare_bufs_.back());
        spare_bufs_.pop_back();
    }
    // Zero-filled to exactly len: nothing of an earlier read survives.
    op.data.assign(op.len, 0);
    op.ep->bar_read(op.bar_off, op.data.data(), op.len);

    Port* srcp = op.src;
    Port* dstp = op.dst;
    uint64_t cpl_wire = tlp_.read_cpl_wire_bytes(op.len);
    // Completion: dst egress -> src ingress.
    sim::TimePs sent_cpl = serialize(eq_.now(), dstp->egress_busy_until,
                                     dstp->gbps, cpl_wire);
    sim::TimePs delivered;
    if (srcp == dstp) {
        delivered = sent_cpl + dstp->latency;
    } else {
        delivered = serialize(sent_cpl + dstp->latency,
                              srcp->ingress_busy_until, srcp->gbps,
                              cpl_wire) +
                    srcp->latency;
    }
    // Fault injection: the completion may be delayed (switch
    // congestion) or stalled outright (retried TLP). The data
    // is unchanged — PCIe completions are reliable — only
    // late. Completions to one requester stay FIFO (a stalled
    // TLP head-of-line blocks the ones behind it), preserving
    // the in-order delivery the NIC's pipelined descriptor
    // DMA depends on.
    if (faults_ && (tlp_.faults.read_delay_prob > 0 ||
                    tlp_.faults.read_stall_prob > 0)) {
        sim::TimePs delay =
            faults_->next_read_completion_delay(tlp_.faults);
        if (delay > 0) {
            if (auto* tr = sim::Tracer::active())
                tr->emit(eq_.now(), sim::TraceEventKind::FaultInject,
                         dstp->name, "cpl_delay", 0, 0, 0, 1, op.len);
        }
        delivered += delay;
        delivered = std::max(delivered, srcp->cpl_order_floor);
        srcp->cpl_order_floor = delivered;
    }
    eq_.schedule_at(delivered, [this, idx] {
        ReadOp& fin = read_ops_[idx];
        OnReadData done = std::move(fin.done);
        std::vector<uint8_t> data = std::move(fin.data);
        // Release before invoking (the handler may start new reads).
        release_read_op(idx);
        done(data);
        keep_spare(data); // unless the handler took it
    });
}

void
PcieFabric::keep_spare(std::vector<uint8_t>& buf)
{
    if (buf.capacity() > 0 && spare_bufs_.size() < kMaxSpareBufs)
        spare_bufs_.push_back(std::move(buf));
}

uint32_t
PcieFabric::acquire_read_op()
{
    if (read_free_ == kFreeListEnd) {
        read_ops_.emplace_back();
        return uint32_t(read_ops_.size() - 1);
    }
    uint32_t idx = read_free_;
    read_free_ = read_ops_[idx].next_free;
    return idx;
}

void
PcieFabric::release_read_op(uint32_t idx)
{
    ReadOp& op = read_ops_[idx];
    op.ep = nullptr;
    op.next_free = read_free_;
    read_free_ = idx;
}

uint32_t
PcieFabric::acquire_write_op()
{
    if (write_free_ == kFreeListEnd) {
        write_ops_.emplace_back();
        return uint32_t(write_ops_.size() - 1);
    }
    uint32_t idx = write_free_;
    write_free_ = write_ops_[idx].next_free;
    return idx;
}

void
PcieFabric::release_write_op(uint32_t idx)
{
    WriteOp& op = write_ops_[idx];
    op.ep = nullptr;
    op.data.clear();
    op.next_free = write_free_;
    write_free_ = idx;
}

} // namespace fld::pcie
