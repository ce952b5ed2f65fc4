#include "apps/rpc_client.h"

#include <algorithm>

#include "apps/rpc_service.h" // rpc_execute (shadow oracle), method ids
#include "sim/fuzz.h"         // fnv1a64
#include "util/logging.h"
#include "util/strings.h"

namespace fld::apps {

std::vector<uint8_t>
build_defrag_payload(Rng& rng, uint32_t datum_len)
{
    std::vector<uint8_t> datum(datum_len);
    for (auto& b : datum)
        b = uint8_t(rng.next());
    // Slice into chunks of 1..255 bytes, then rotate the record order
    // so the handler sees out-of-order offsets.
    struct Rec
    {
        uint16_t off, len;
    };
    std::vector<Rec> recs;
    for (uint32_t off = 0; off < datum_len;) {
        uint32_t len = std::min<uint32_t>(
            datum_len - off, 1 + uint32_t(rng.uniform(255)));
        recs.push_back({uint16_t(off), uint16_t(len)});
        off += len;
    }
    size_t rot = recs.empty() ? 0 : rng.uniform(uint64_t(recs.size()));
    std::rotate(recs.begin(), recs.begin() + ptrdiff_t(rot),
                recs.end());
    std::vector<uint8_t> out;
    out.reserve(datum_len + recs.size() * 4);
    for (const Rec& r : recs) {
        out.push_back(uint8_t(r.off));
        out.push_back(uint8_t(r.off >> 8));
        out.push_back(uint8_t(r.len));
        out.push_back(uint8_t(r.len >> 8));
        out.insert(out.end(), datum.begin() + r.off,
                   datum.begin() + r.off + r.len);
    }
    return out;
}

RpcClientPool::RpcClientPool(sim::EventQueue& eq, driver::FastPath& fp,
                             RpcClientConfig cfg)
    : eq_(eq), fp_(fp), cfg_(cfg),
      rings_(eq, fp, cfg.tx_ring_entries, cfg.rx_ring_entries,
             [this] { service(); }),
      latency_fold_(sim::kFnvBasis)
{
    for (uint8_t m = 0; m < kRpcMethodCount; ++m)
        if (cfg_.methods_mask & (1u << m))
            enabled_methods_.push_back(m);
    slots_.resize(cfg_.connections);
    for (uint32_t i = 0; i < cfg_.connections; ++i) {
        slots_[i].port = uint16_t(cfg_.base_port + i);
        // Per-slot stream: draw order is fixed by the slot's own
        // serial request loop, so the sequence is identical across
        // FLD- and CPU-served runs regardless of timing.
        slots_[i].rng.reseed(cfg_.seed * 0x9e3779b97f4a7c15ull +
                             i * 0xbf58476d1ce4e5b9ull + 1);
    }
}

void
RpcClientPool::start()
{
    open_next_batch();
}

void
RpcClientPool::open_next_batch()
{
    uint32_t batch = std::max(1u, cfg_.open_batch);
    for (uint32_t n = 0; n < batch && opens_issued_ < cfg_.connections;
         ++n) {
        uint32_t i = opens_issued_++;
        Slot& s = slots_[i];
        s.conn_id = fp_.open(rings_.app_id(), i, cfg_.remote_ip,
                             cfg_.remote_port, s.port);
        if (s.conn_id == driver::FastPath::kNoConn) {
            errors_.push_back(strfmt("slot %u: open() refused", i));
            finish_slot(i, /*aborted=*/true);
            continue;
        }
        s.live = std::make_unique<LiveConn>();
        by_conn_[s.conn_id] = i;
    }
    if (opens_issued_ < cfg_.connections)
        eq_.schedule_in(cfg_.open_interval,
                        [this] { open_next_batch(); });
}

void
RpcClientPool::service()
{
    while (auto m = rings_.next_ctrl())
        handle_ctrl(*m);

    // Drain the RX ring: response bytes (TxDone bumps are ignored).
    rings_.drain([this](const driver::RingDesc& d,
                        const uint8_t* bytes) {
        if (d.type != driver::kDescData)
            return;
        auto it = by_conn_.find(uint32_t(d.opaque));
        if (it == by_conn_.end())
            return;
        uint32_t i = it->second;
        LiveConn& l = *slots_[i].live;
        if (!l.decoder.feed(bytes, d.len) && !l.error_counted) {
            ++stats_.decode_errors;
            l.error_counted = true;
            errors_.push_back(
                strfmt("slot %u: response stream poisoned (%s)", i,
                       rpc::to_string(l.decoder.error_code())));
        }
        rpc::Frame f;
        while (l.decoder.next(&f))
            on_response(i, std::move(f));
    });

    rings_.flush();
}

void
RpcClientPool::handle_ctrl(const driver::CtrlMsg& m)
{
    // Only live connections are mapped: a finished slot ignores
    // anything that still arrives for its connection.
    auto it = by_conn_.find(m.conn_id);
    if (it == by_conn_.end())
        return;
    uint32_t i = it->second;
    switch (m.type) {
    case driver::CtrlMsg::Type::Opened:
        ++stats_.opened;
        schedule_next_request(i);
        break;
    case driver::CtrlMsg::Type::Closed:
        ++stats_.closed;
        finish_slot(i, /*aborted=*/false);
        break;
    case driver::CtrlMsg::Type::Reset:
        finish_slot(i, /*aborted=*/true);
        // Release the dead connection back to the stack (a Closed one
        // frees itself after time-wait).
        fp_.close(m.conn_id);
        break;
    case driver::CtrlMsg::Type::Accepted:
        break; // clients never listen
    }
}

void
RpcClientPool::schedule_next_request(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    if (s.terminal)
        return;
    if (s.requests_done >= cfg_.requests_per_conn) {
        fp_.close(s.conn_id);
        return;
    }
    sim::TimePs think = 0;
    if (cfg_.think_mean > 0)
        think = sim::TimePs(
            s.rng.exponential(double(cfg_.think_mean)));
    eq_.schedule_in(think,
                    [this, slot_index] { build_request(slot_index); });
}

void
RpcClientPool::build_request(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    if (s.terminal)
        return;

    // Draw the method from the enabled set, then the payload.
    uint8_t method = enabled_methods_.empty()
                         ? kRpcEcho
                         : enabled_methods_[s.rng.uniform(
                               enabled_methods_.size())];
    uint32_t len = cfg_.payload_min;
    if (cfg_.payload_max > cfg_.payload_min)
        len = uint32_t(
            s.rng.range(cfg_.payload_min, cfg_.payload_max));
    std::vector<uint8_t> payload;
    if (method == kRpcDefrag) {
        payload = build_defrag_payload(s.rng, len);
    } else {
        payload.resize(len);
        for (auto& b : payload)
            b = uint8_t(s.rng.next());
    }

    LiveConn& l = *s.live;
    l.req_id = uint64_t(s.port) << 32 | s.next_seq++;
    l.req_method = method;
    l.req_payload = std::move(payload);
    l.waiting = true;
    l.t0 = eq_.now(); // latency includes ring/backpressure time
    l.pending_out = rpc::encode_frame(method, l.req_id,
                                      l.req_payload.data(),
                                      l.req_payload.size());
    l.pending_off = 0;
    ++stats_.requests_sent;
    ++stats_.per_method[method & 7];
    stats_.request_bytes += l.req_payload.size();

    pump_slot(slot_index);
    rings_.flush();
}

void
RpcClientPool::pump_slot(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    if (s.terminal)
        return; // finish_slot dropped the queued bytes
    LiveConn& l = *s.live;
    const uint32_t chunk_max =
        cfg_.tx_chunk_bytes
            ? std::min(cfg_.tx_chunk_bytes, rings_.slot_bytes())
            : rings_.slot_bytes();

    while (l.pending_off < l.pending_out.size()) {
        uint32_t remaining =
            uint32_t(l.pending_out.size() - l.pending_off);
        uint32_t chunk = std::min(remaining, chunk_max);
        driver::RingDesc d;
        d.type = driver::kDescData;
        d.opaque = s.conn_id;
        d.len = chunk;
        if (chunk == remaining)
            d.flags = driver::kDescFlagPush;
        // A full ring: consume what this pass posted (the stack frees
        // the slots at the doorbell), after which the post must land.
        const uint8_t* bytes = l.pending_out.data() + l.pending_off;
        if (!rings_.post(d, bytes) &&
            !(rings_.flush() && rings_.post(d, bytes)))
            panic("RpcClientPool: TX post refused after flush(); the "
                  "doorbell must release every TX slot");
        l.pending_off += chunk;
    }
    l.pending_out.clear();
    l.pending_off = 0;
}

void
RpcClientPool::on_response(uint32_t slot_index, rpc::Frame&& f)
{
    Slot& s = slots_[slot_index];
    LiveConn& l = *s.live;
    if (!l.waiting || f.request_id != l.req_id) {
        ++stats_.protocol_errors;
        errors_.push_back(strfmt(
            "slot %u: unexpected response id %016llx (waiting=%d)",
            slot_index, (unsigned long long)f.request_id,
            int(l.waiting)));
        return;
    }
    l.waiting = false;

    // Shadow oracle: the response must equal the reference transform
    // of the request we actually sent — unconditionally, faults or
    // not (TCP either delivers the stream intact or resets).
    std::vector<uint8_t> expect =
        rpc_execute(l.req_method, l.req_id, l.req_payload.data(),
                    l.req_payload.size());
    if (f.payload != expect) {
        ++stats_.conformance_errors;
        errors_.push_back(strfmt(
            "slot %u req %016llx (%s): response diverges from "
            "shadow oracle (%zu vs %zu bytes)",
            slot_index, (unsigned long long)l.req_id,
            rpc_method_name(l.req_method), f.payload.size(),
            expect.size()));
    }

    sim::TimePs lat = eq_.now() - l.t0;
    latency_.add(sim::to_us(lat));
    latency_fold_ = sim::fnv1a64_u64(uint64_t(lat), latency_fold_);
    digests_[l.req_id] =
        sim::fnv1a64(f.payload.data(), f.payload.size());
    ++stats_.responses;
    stats_.response_bytes += f.payload.size();
    ++s.requests_done;
    schedule_next_request(slot_index);
}

void
RpcClientPool::finish_slot(uint32_t slot_index, bool aborted)
{
    Slot& s = slots_[slot_index];
    if (s.terminal)
        return;
    s.terminal = true;
    if (s.live) {
        s.live.reset();
        by_conn_.erase(s.conn_id);
    }
    if (aborted)
        ++stats_.aborted;
    ++done_count_;
}

} // namespace fld::apps
