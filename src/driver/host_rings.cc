#include "driver/host_rings.h"

#include <cstring>

#include "util/bitops.h"
#include "util/logging.h"

namespace fld::driver {

HostRings::HostRings(std::string name, const HostAttach& at,
                     CqeHandler on_cqe)
    : name_(std::move(name)), at_(at),
      arena_{name_, at.arena_base, at.arena_size}
{
    uint64_t cq_bytes = uint64_t(kCqEntries) * nic::kCqeStride;
    uint64_t cq_ring = arena_.alloc(cq_bytes);
    cqn_ = at_.nic.create_cq({at_.mem_dma_base + cq_ring, kCqEntries});
    at_.mem.add_watch(cq_ring, cq_bytes,
                      [this, on_cqe = std::move(on_cqe)](uint64_t addr,
                                                          size_t len) {
                          if (len != nic::kCqeStride)
                              return;
                          uint8_t buf[nic::kCqeStride];
                          at_.mem.bar_read(addr, buf, nic::kCqeStride);
                          on_cqe(nic::Cqe::decode(buf));
                      });
}

uint32_t
HostRings::add_queue(nic::VportId vport, const RingGeometry& g,
                     uint32_t slot_bytes)
{
    uint64_t dma = at_.mem_dma_base;
    Queue& qu = queues_.emplace_back();
    qu.geo = g;
    qu.slot_bytes = slot_bytes;

    qu.sq_ring = arena_.alloc(uint64_t(g.sq_entries) * nic::kWqeStride);
    qu.sqn = at_.nic.create_sq(
        {dma + qu.sq_ring, g.sq_entries, cqn_, vport, 0.0});
    qu.slots = arena_.alloc(uint64_t(g.sq_entries) * slot_bytes, 4096);

    uint64_t rq_bytes = uint64_t(g.rq_entries) * nic::kRxDescStride;
    uint64_t rq_ring = arena_.alloc(rq_bytes);
    qu.rqn = at_.nic.create_rq({dma + rq_ring, g.rq_entries, cqn_});

    uint32_t buf_bytes = uint32_t(g.rx_strides) << g.rx_stride_shift;
    for (uint32_t i = 0; i < g.rx_buffers; ++i)
        qu.rx_buffers.push_back(arena_.alloc(buf_bytes, 4096));
    nic::fill_rx_ring(at_.mem.raw(rq_ring, rq_bytes), g.rq_entries,
                      g.rx_buffers,
                      {.byte_count = buf_bytes,
                       .stride_count = g.rx_strides,
                       .stride_shift = g.rx_stride_shift},
                      [&](uint32_t b) { return dma + qu.rx_buffers[b]; });
    qu.rq_pi = g.rx_buffers;
    ring_rq_doorbell(qu);
    return uint32_t(queues_.size() - 1);
}

uint16_t
HostRings::reserve(uint32_t q, size_t len)
{
    Queue& qu = queues_[q];
    if (len > qu.slot_bytes)
        fatal("%s: %zu-byte payload larger than its tx slot",
              name_.c_str(), len);
    return uint16_t(qu.sq_pi++);
}

void
HostRings::post(uint32_t q, uint16_t wqe_index, nic::Wqe wqe,
                const uint8_t* bytes, size_t len, bool mmio_lone)
{
    Queue& qu = queues_[q];
    uint32_t slot = wqe_index % qu.geo.sq_entries;
    uint64_t data = qu.slots + uint64_t(slot) * qu.slot_bytes;
    if (len)
        // Intentional copy: stages the payload into DMA-visible host
        // memory, the data movement a real driver performs.
        std::memcpy(at_.mem.raw(data, len), bytes, len);

    wqe.wqe_index = wqe_index;
    wqe.addr = at_.mem_dma_base + data;
    wqe.byte_count = uint32_t(len);
    uint8_t* enc = at_.mem.raw(qu.sq_ring + uint64_t(slot) * nic::kWqeStride,
                               nic::kWqeStride);
    wqe.encode(enc);
    // The doorbell must only advertise WQEs already visible in memory;
    // posts retire in reserve order.
    qu.sq_published++;
    bool lone = mmio_lone && outstanding(q) == 1 &&
                qu.sq_published == qu.sq_pi;
    ring_sq_doorbell(q, lone ? enc : nullptr);
}

void
HostRings::ring_sq_doorbell(uint32_t q, const uint8_t* inline_wqe)
{
    Queue& qu = queues_[q];
    if (!qu.sq_doorbell.start())
        return;
    uint8_t db[4 + nic::kWqeStride];
    size_t db_len = inline_wqe ? 4 + nic::kWqeStride : 4;
    store_le32(db, qu.sq_published);
    if (inline_wqe)
        std::memcpy(db + 4, inline_wqe, nic::kWqeStride);
    at_.fabric.write(at_.port,
                     at_.nic_bar_base + nic::NicDevice::kSqDbBase +
                         uint64_t(qu.sqn) * 8,
                     db, db_len, [this, q] {
                         if (queues_[q].sq_doorbell.landed())
                             ring_sq_doorbell(q);
                     });
}

void
HostRings::ring_rq_doorbell(const Queue& qu)
{
    uint8_t db[4];
    store_le32(db, qu.rq_pi);
    at_.fabric.write(at_.port,
                     at_.nic_bar_base + nic::NicDevice::kRqDbBase +
                         uint64_t(qu.rqn) * 8,
                     db, sizeof db);
}

void
HostRings::complete_tx(uint32_t q, uint16_t wqe_counter)
{
    Queue& qu = queues_[q];
    qu.sq_ci += nic::retire_count(wqe_counter, uint16_t(qu.sq_ci),
                                  qu.sq_pi - qu.sq_ci);
}

uint64_t
HostRings::rx_addr(uint32_t q, const nic::Cqe& cqe) const
{
    const Queue& qu = queues_[q];
    return qu.rx_buffers[cqe.rq_wqe_index % qu.geo.rx_buffers] +
           (uint64_t(cqe.stride_index) << qu.geo.rx_stride_shift);
}

void
HostRings::recycle_rx(uint32_t q, const nic::Cqe& cqe)
{
    Queue& qu = queues_[q];
    if (uint32_t n = nic::rx_advance(qu.rq_pi, qu.geo.rx_buffers,
                                     cqe.rq_wqe_index)) {
        qu.rq_pi += n;
        ring_rq_doorbell(qu);
    }
}

int
HostRings::find_sq(uint32_t n) const
{
    for (size_t q = 0; q < queues_.size(); ++q)
        if (queues_[q].sqn == n)
            return int(q);
    return -1;
}

int
HostRings::find_rq(uint32_t n) const
{
    for (size_t q = 0; q < queues_.size(); ++q)
        if (queues_[q].rqn == n)
            return int(q);
    return -1;
}

} // namespace fld::driver
