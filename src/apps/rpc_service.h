/**
 * @file
 * RPC application tier, server side: a method dispatcher with a
 * handler cost model, and an RpcServer that serves rpc:: frames over
 * the host fast path's ring ABI.
 *
 * The dispatcher is the "accelerator as a service" shape RPCAcc
 * argues for: each method id maps to a handler with real compute (the
 * ZUC cipher and the defrag reassembler reused as handlers, plus a
 * synthetic fixed-cost busy handler) and a UnitModel-style cost
 * (setup time + serialization at the handler's bandwidth) charged on
 * a bank of serial workers. Handler *semantics* are a pure function
 * of (method, request_id, request payload) — rpc_execute — so any
 * observer can recompute the expected response: the client verifies
 * every response against it (shadow oracle), and the dispatcher
 * conformance tests pin it against independent per-method
 * implementations.
 */
#ifndef FLD_APPS_RPC_SERVICE_H
#define FLD_APPS_RPC_SERVICE_H

#include <cstdint>
#include <map>
#include <vector>

#include "driver/fastpath.h"
#include "net/rpc_codec.h"
#include "sim/event_queue.h"
#include "util/fifo.h"

namespace fld::apps {

// ---------------------------------------------------------------------
// Methods and the reference transform
// ---------------------------------------------------------------------

/** Method ids (rpc::Frame::method). */
constexpr uint8_t kRpcEcho = 0;   ///< response = request payload
constexpr uint8_t kRpcZuc = 1;    ///< 128-EEA3 over the payload
constexpr uint8_t kRpcDefrag = 2; ///< reassemble chunked payload
constexpr uint8_t kRpcBusy = 3;   ///< fixed-cost digest handler
constexpr uint8_t kRpcMethodCount = 4;

const char* rpc_method_name(uint8_t method);

/**
 * Reference semantics of every method: the response payload for a
 * given request. Pure and deterministic — the shadow oracle.
 *
 * kRpcZuc derives the cipher key/count/bearer from request_id, so two
 * requests with equal payloads but different ids produce different
 * ciphertexts. kRpcDefrag parses the payload as chunk records
 * [u16 offset][u16 len][len bytes] (any order, duplicates overwrite)
 * and returns the reassembled datum. kRpcBusy returns the payload's
 * FNV-1a digest plus its length (12 bytes).
 */
std::vector<uint8_t> rpc_execute(uint8_t method, uint64_t request_id,
                                 const uint8_t* payload, size_t len);

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/** Per-method compute cost: setup plus serialization at gbps. */
struct RpcHandlerModel
{
    sim::TimePs setup_time = 0;
    double gbps = 0; ///< 0 = setup time only

    sim::TimePs service_time(size_t bytes) const;
};

struct RpcServiceConfig
{
    /** Serial handler units; requests queue on the earliest-free
     *  one (deterministic: ties break to the lowest index). */
    uint32_t workers = 8;
    /** Echo is driver-limited, not compute-limited. */
    RpcHandlerModel echo{sim::nanoseconds(50), 100.0};
    /** ZUC cipher unit (same figures as ZucAccelerator). */
    RpcHandlerModel zuc{sim::nanoseconds(100), 5.4};
    /** Defrag engine (same figures as DefragAccelerator). */
    RpcHandlerModel defrag{sim::nanoseconds(60), 100.0};
    /** Synthetic busy-cost handler: pure setup time. */
    RpcHandlerModel busy{sim::microseconds(2), 0.0};

    uint32_t max_payload = 16 * 1024;
};

struct RpcDispatchStats
{
    uint64_t dispatched = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0; ///< unknown method or oversize payload
    uint64_t per_method[kRpcMethodCount] = {};
    sim::TimePs busy_time = 0; ///< summed handler occupancy
};

/**
 * Routes request frames to handler workers and emits response frames
 * after the handler's modeled compute time.
 */
class RpcDispatcher
{
  public:
    using Completion = std::function<void(rpc::Frame&& response)>;

    RpcDispatcher(sim::EventQueue& eq, RpcServiceConfig cfg);

    /**
     * Queue a request. The completion fires from a scheduled event
     * once a worker has run the handler. Returns false (no
     * completion will fire) for unknown methods or oversize payloads.
     */
    bool dispatch(rpc::Frame&& request, Completion done);

    bool idle() const { return inflight_ == 0; }
    const RpcDispatchStats& stats() const { return stats_; }
    const RpcServiceConfig& config() const { return cfg_; }

  private:
    const RpcHandlerModel& model_for(uint8_t method) const;

    sim::EventQueue& eq_;
    RpcServiceConfig cfg_;
    std::vector<sim::TimePs> worker_free_;
    uint32_t inflight_ = 0;
    RpcDispatchStats stats_;
};

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct RpcServerConfig
{
    uint16_t listen_port = 7100;
    uint32_t tx_ring_entries = 256;
    uint32_t rx_ring_entries = 512;
    /** Split responses into TX descriptors of at most this many
     *  bytes (0 = whole slots), exercising descriptor fragmentation
     *  on the response path too. */
    uint32_t tx_chunk_bytes = 0;
    RpcServiceConfig service;
};

struct RpcServerStats
{
    uint32_t accepted = 0;
    uint32_t closed = 0;
    uint32_t resets = 0;
    uint64_t requests = 0;       ///< frames decoded off RX rings
    uint64_t responses = 0;      ///< response frames fully posted
    uint64_t responses_acked = 0;///< tagged TxDone seen end-to-end
    uint64_t decode_errors = 0;  ///< connections with poisoned streams
    uint64_t tx_ring_full = 0;
};

/**
 * The serving application: accepts fast-path connections, reassembles
 * request frames from RX descriptors (per-connection FrameDecoder),
 * dispatches them, and streams response frames back through the TX
 * ring — tagging the final descriptor of every response so the tagged
 * TxDone completion confirms end-to-end delivery. All ring work runs
 * from scheduled events, never from inside the stack's notify.
 */
class RpcServer
{
  public:
    RpcServer(sim::EventQueue& eq, driver::FastPath& fp,
              RpcServerConfig cfg);

    const RpcServerStats& stats() const { return stats_; }
    const RpcDispatcher& dispatcher() const { return disp_; }
    uint32_t app_id() const { return app_; }
    /** No queued responses and no handler in flight. */
    bool idle() const;
    /** Connections accepted and not yet Closed/Reset. */
    size_t live_conns() const { return conns_.size(); }

  private:
    /** Exists from Accepted until Closed/Reset; a missing id means the
     *  connection is gone and its bytes and responses are dropped. */
    struct Conn
    {
        rpc::FrameDecoder decoder;
        Fifo<std::vector<uint8_t>> out; ///< encoded responses
        size_t out_head_off = 0; ///< bytes of out.front() already sent
        bool error_counted = false;
        bool ready = false; ///< queued on send_ready_
    };

    void on_notify();
    void service();
    void drain_ctrl();
    void drain_rx();
    void on_request(uint32_t conn_id, rpc::Frame&& f);
    void pump_tx();

    sim::EventQueue& eq_;
    driver::FastPath& fp_;
    RpcServerConfig cfg_;
    RpcDispatcher disp_;
    uint32_t app_ = 0;

    std::map<uint32_t, Conn> conns_;
    /** Connections with queued output, FIFO, no duplicates among live
     *  ones; ids of erased connections are skipped when reached. */
    Fifo<uint32_t> send_ready_;
    bool service_pending_ = false;
    bool retry_armed_ = false;
    uint32_t response_seq_ = 0; ///< tags for tagged TxDone completions
    RpcServerStats stats_;
};

} // namespace fld::apps

#endif // FLD_APPS_RPC_SERVICE_H
