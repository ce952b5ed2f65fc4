#include "apps/rpc_service.h"

#include <algorithm>
#include <cstring>

#include "crypto/zuc.h"
#include "sim/fuzz.h" // fnv1a64
#include "util/logging.h"

namespace fld::apps {

// ---------------------------------------------------------------------
// Reference transform
// ---------------------------------------------------------------------

const char*
rpc_method_name(uint8_t method)
{
    switch (method) {
    case kRpcEcho:
        return "echo";
    case kRpcZuc:
        return "zuc";
    case kRpcDefrag:
        return "defrag";
    case kRpcBusy:
        return "busy";
    }
    return "?";
}

namespace {

/** Cipher parameters are a pure function of the request id. */
crypto::Zuc::Key
zuc_key_for(uint64_t request_id)
{
    crypto::Zuc::Key key;
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = uint8_t((request_id >> (8 * (i & 7))) + i * 0x9e);
    return key;
}

std::vector<uint8_t>
defrag_reassemble(const uint8_t* payload, size_t len)
{
    // Chunk records: [u16 offset][u16 len][len bytes], little-endian,
    // in any order; a trailing partial record is ignored. Gaps stay
    // zero, overlaps overwrite — deterministic either way.
    size_t extent = 0;
    for (size_t pos = 0; pos + 4 <= len;) {
        uint32_t off = uint32_t(payload[pos]) |
                       uint32_t(payload[pos + 1]) << 8;
        uint32_t clen = uint32_t(payload[pos + 2]) |
                        uint32_t(payload[pos + 3]) << 8;
        if (pos + 4 + clen > len)
            break;
        extent = std::max(extent, size_t(off) + clen);
        pos += 4 + clen;
    }
    std::vector<uint8_t> out(extent, 0);
    for (size_t pos = 0; pos + 4 <= len;) {
        uint32_t off = uint32_t(payload[pos]) |
                       uint32_t(payload[pos + 1]) << 8;
        uint32_t clen = uint32_t(payload[pos + 2]) |
                        uint32_t(payload[pos + 3]) << 8;
        if (pos + 4 + clen > len)
            break;
        std::memcpy(out.data() + off, payload + pos + 4, clen);
        pos += 4 + clen;
    }
    return out;
}

} // namespace

std::vector<uint8_t>
rpc_execute(uint8_t method, uint64_t request_id, const uint8_t* payload,
            size_t len)
{
    switch (method) {
    case kRpcEcho:
        return std::vector<uint8_t>(payload, payload + len);
    case kRpcZuc: {
        std::vector<uint8_t> buf(payload, payload + len);
        crypto::eea3_crypt(zuc_key_for(request_id),
                           uint32_t(request_id),
                           uint8_t((request_id >> 32) & 0x1f),
                           uint8_t((request_id >> 37) & 1), buf.data(),
                           len * 8);
        return buf;
    }
    case kRpcDefrag:
        return defrag_reassemble(payload, len);
    case kRpcBusy: {
        // Digest + length: a small fixed-size receipt.
        uint64_t d = sim::fnv1a64(payload, len);
        std::vector<uint8_t> out(12);
        for (int i = 0; i < 8; ++i)
            out[size_t(i)] = uint8_t(d >> (8 * i));
        for (int i = 0; i < 4; ++i)
            out[size_t(8 + i)] = uint8_t(uint32_t(len) >> (8 * i));
        return out;
    }
    }
    return {};
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

sim::TimePs
RpcHandlerModel::service_time(size_t bytes) const
{
    sim::TimePs t = setup_time;
    if (gbps > 0)
        t += sim::serialize_time(bytes, gbps);
    return t;
}

RpcDispatcher::RpcDispatcher(sim::EventQueue& eq, RpcServiceConfig cfg)
    : eq_(eq), cfg_(cfg),
      worker_free_(std::max(1u, cfg.workers), sim::TimePs(0))
{
}

const RpcHandlerModel&
RpcDispatcher::model_for(uint8_t method) const
{
    switch (method) {
    case kRpcZuc:
        return cfg_.zuc;
    case kRpcDefrag:
        return cfg_.defrag;
    case kRpcBusy:
        return cfg_.busy;
    default:
        return cfg_.echo;
    }
}

bool
RpcDispatcher::dispatch(rpc::Frame&& request, Completion done)
{
    if (request.method >= kRpcMethodCount ||
        request.payload.size() > cfg_.max_payload) {
        ++stats_.rejected;
        return false;
    }
    ++stats_.dispatched;
    ++stats_.per_method[request.method];

    // Earliest-free worker, ties to the lowest index: deterministic
    // and order-preserving for a single queue of arrivals.
    size_t w = 0;
    for (size_t i = 1; i < worker_free_.size(); ++i)
        if (worker_free_[i] < worker_free_[w])
            w = i;
    sim::TimePs start = std::max(eq_.now(), worker_free_[w]);
    sim::TimePs cost =
        model_for(request.method).service_time(request.payload.size());
    worker_free_[w] = start + cost;
    stats_.busy_time += cost;
    ++inflight_;

    eq_.schedule_at(
        start + cost,
        [this, req = std::move(request), done = std::move(done)] {
            rpc::Frame resp;
            resp.method = req.method;
            resp.request_id = req.request_id;
            resp.payload = rpc_execute(req.method, req.request_id,
                                       req.payload.data(),
                                       req.payload.size());
            --inflight_;
            ++stats_.completed;
            done(std::move(resp));
        });
    return true;
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

RpcServer::RpcServer(sim::EventQueue& eq, driver::FastPath& fp,
                     RpcServerConfig cfg)
    : eq_(eq), fp_(fp), cfg_(cfg), disp_(eq, cfg.service)
{
    app_ = fp_.register_app(cfg_.tx_ring_entries, cfg_.rx_ring_entries,
                            [this] { on_notify(); });
    fp_.listen(cfg_.listen_port, app_);
}

bool
RpcServer::idle() const
{
    if (!disp_.idle())
        return false;
    for (const auto& [id, c] : conns_)
        if (!c.out.empty())
            return false;
    return true;
}

void
RpcServer::on_notify()
{
    if (service_pending_)
        return;
    service_pending_ = true;
    eq_.schedule_in(0, [this] {
        service_pending_ = false;
        service();
    });
}

void
RpcServer::service()
{
    drain_ctrl();
    drain_rx();
    pump_tx();
}

void
RpcServer::drain_ctrl()
{
    while (auto m = fp_.poll_ctrl(app_)) {
        switch (m->type) {
        case driver::CtrlMsg::Type::Accepted:
            ++stats_.accepted;
            conns_[m->conn_id]; // default-construct per-conn state
            break;
        case driver::CtrlMsg::Type::Closed:
        case driver::CtrlMsg::Type::Reset: {
            if (m->type == driver::CtrlMsg::Type::Closed)
                ++stats_.closed;
            else
                ++stats_.resets;
            // Queued output is dropped; a Reset connection is also
            // released back to the stack (a Closed one frees itself
            // after time-wait).
            conns_.erase(m->conn_id);
            if (m->type == driver::CtrlMsg::Type::Reset)
                fp_.close(m->conn_id);
            break;
        }
        case driver::CtrlMsg::Type::Opened:
            break; // server never opens actively
        }
    }
}

void
RpcServer::drain_rx()
{
    driver::DescRing& rx = fp_.rx_ring(app_);
    const uint8_t* arena = fp_.rx_arena(app_);
    bool released = false;
    while (!rx.empty()) {
        driver::RingDesc d;
        uint32_t slot = rx.pop(&d);
        if (d.type == driver::kDescData) {
            auto it = conns_.find(uint32_t(d.opaque));
            if (it != conns_.end()) {
                Conn& c = it->second;
                if (!c.decoder.feed(arena + d.addr, d.len) &&
                    !c.error_counted) {
                    // Poisoned stream: count once, then ignore the
                    // connection's bytes forever (sticky decoder).
                    ++stats_.decode_errors;
                    c.error_counted = true;
                }
                rpc::Frame f;
                while (c.decoder.next(&f))
                    on_request(uint32_t(d.opaque), std::move(f));
            }
        } else if (d.type == driver::kDescTxDone &&
                   (d.flags & driver::kDescFlagTxTag)) {
            ++stats_.responses_acked;
        }
        rx.release(slot);
        released = true;
    }
    if (released)
        fp_.rx_doorbell(app_); // freed slots: unpark deliveries
}

void
RpcServer::on_request(uint32_t conn_id, rpc::Frame&& f)
{
    ++stats_.requests;
    disp_.dispatch(std::move(f), [this, conn_id](rpc::Frame&& resp) {
        auto it = conns_.find(conn_id);
        if (it == conns_.end())
            return; // connection died while the handler ran
        Conn& c = it->second;
        c.out.push_back(rpc::encode_frame(resp));
        if (!c.ready) {
            c.ready = true;
            send_ready_.push_back(conn_id);
        }
        pump_tx(); // completion runs from a handler event, not notify
    });
}

void
RpcServer::pump_tx()
{
    driver::DescRing& ring = fp_.tx_ring(app_);
    uint8_t* arena = fp_.tx_arena(app_);
    const uint32_t slot_bytes = fp_.slot_bytes();
    const uint32_t chunk_max =
        cfg_.tx_chunk_bytes
            ? std::min(cfg_.tx_chunk_bytes, slot_bytes)
            : slot_bytes;
    bool posted = false;

    while (!send_ready_.empty()) {
        uint32_t id = send_ready_.front();
        auto it = conns_.find(id);
        if (it == conns_.end()) {
            send_ready_.pop_front();
            continue;
        }
        Conn& c = it->second;
        const std::vector<uint8_t>& resp = c.out.front();
        uint32_t remaining = uint32_t(resp.size() - c.out_head_off);
        uint32_t chunk = std::min(remaining, chunk_max);

        driver::RingDesc d;
        d.type = driver::kDescData;
        d.opaque = id;
        d.len = chunk;
        d.addr = uint64_t(ring.next_slot()) * slot_bytes;
        bool last = chunk == remaining;
        if (last) {
            // Tag the final descriptor: its TxDone confirms the whole
            // response was acknowledged end-to-end.
            d.flags = driver::kDescFlagPush | driver::kDescFlagTxTag;
            d.tag = ++response_seq_;
        }
        if (!ring.post(d)) {
            // Consume what is queued (slots free immediately: the
            // stack copies payloads at the doorbell) and retry once.
            if (posted) {
                fp_.doorbell(app_);
                posted = false;
                d.addr = uint64_t(ring.next_slot()) * slot_bytes;
            }
            if (!ring.post(d)) {
                ++stats_.tx_ring_full;
                if (!retry_armed_) {
                    retry_armed_ = true;
                    eq_.schedule_in(sim::microseconds(1), [this] {
                        retry_armed_ = false;
                        pump_tx();
                    });
                }
                break;
            }
        }
        // Fill the arena only after the slot is ours: a failed post
        // means the slot may still back an unconsumed descriptor.
        std::memcpy(arena + d.addr, resp.data() + c.out_head_off,
                    chunk);
        posted = true;
        c.out_head_off += chunk;
        if (last) {
            c.out.pop_front();
            c.out_head_off = 0;
            ++stats_.responses;
            // Rotate for round-robin fairness across connections.
            send_ready_.pop_front();
            if (!c.out.empty())
                send_ready_.push_back(id);
            else
                c.ready = false;
        }
    }
    if (posted)
        fp_.doorbell(app_);
}

} // namespace fld::apps
