/**
 * @file
 * Closed-loop RPC clients over the host fast path.
 *
 * RpcClientPool opens N connections (staggered), then runs each as a
 * classic closed-loop client: draw a method and payload from a
 * per-connection seeded Rng, think for a seeded exponential interval,
 * send the request, wait for the response, repeat; close after the
 * configured request count. Offered load is swept by (connections x
 * think time).
 *
 * Every response is verified against the shadow oracle rpc_execute()
 * — the pool recomputes the expected payload for each request it sent
 * and counts any divergence as a conformance violation. Per-request
 * response digests (request_id -> FNV of the response payload) feed
 * the FLD-vs-CPU differential oracle, and request latencies
 * (build-to-decode, including ring backpressure) feed the SLO
 * histogram.
 *
 * Request frames are deliberately split across multiple TX
 * descriptors (tx_chunk_bytes) so the codec's fragmentation handling
 * is exercised on the wire path, not just in unit tests.
 */
#ifndef FLD_APPS_RPC_CLIENT_H
#define FLD_APPS_RPC_CLIENT_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "apps/app_rings.h"
#include "driver/fastpath.h"
#include "net/rpc_codec.h"
#include "sim/stats.h"
#include "util/fifo.h"
#include "util/rng.h"

namespace fld::apps {

struct RpcClientConfig
{
    uint32_t connections = 8;
    uint32_t requests_per_conn = 4;
    uint32_t payload_min = 64;
    uint32_t payload_max = 512;
    /** Bit i enables method id i (see rpc_service.h). */
    uint32_t methods_mask = 0xf;
    /** Mean of the exponential think time between a response and the
     *  next request (0 = back-to-back). */
    sim::TimePs think_mean = sim::microseconds(5);
    uint64_t seed = 1;

    uint32_t open_batch = 32;
    sim::TimePs open_interval = sim::microseconds(10);

    uint16_t base_port = 21000;
    uint32_t remote_ip = 0;
    uint16_t remote_port = 7100;
    uint32_t tx_ring_entries = 128;
    uint32_t rx_ring_entries = 256;
    /** Split each request across descriptors of at most this many
     *  bytes (0 = whole slots). */
    uint32_t tx_chunk_bytes = 0;
};

struct RpcClientStats
{
    uint32_t opened = 0;
    uint32_t closed = 0;
    uint32_t aborted = 0;      ///< reset before finishing
    uint64_t requests_sent = 0;
    uint64_t responses = 0;    ///< completed request/response pairs
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
    uint64_t conformance_errors = 0; ///< response != shadow oracle
    uint64_t protocol_errors = 0;    ///< wrong/unexpected request_id
    uint64_t decode_errors = 0;
    /** Always 0: a post refused on a full TX ring lands after
     *  flush(), whose doorbell releases every slot. */
    uint64_t tx_ring_full = 0;
    uint64_t per_method[8] = {};
};

class RpcClientPool
{
  public:
    RpcClientPool(sim::EventQueue& eq, driver::FastPath& fp,
                  RpcClientConfig cfg);

    void start();
    /** Every connection reached a terminal state. */
    bool done() const { return done_count_ == cfg_.connections; }

    const RpcClientStats& stats() const { return stats_; }
    /** request_id -> FNV digest of the response payload. */
    const std::map<uint64_t, uint64_t>& digests() const
    {
        return digests_;
    }
    /** Request latency samples in microseconds. */
    const sim::Histogram& latency() const { return latency_; }
    /** FNV fold of every latency (in ps) in completion order — the
     *  bit-identical-rerun check for the timing dimension. */
    uint64_t latency_fold() const { return latency_fold_; }
    const std::vector<std::string>& errors() const { return errors_; }
    uint32_t app_id() const { return rings_.app_id(); }
    /** Connections opened and not yet finished (Closed/Reset). */
    size_t live_conns() const { return by_conn_.size(); }

  private:
    /** State that exists only while the connection is open. */
    struct LiveConn
    {
        rpc::FrameDecoder decoder;
        bool error_counted = false;
        bool waiting = false; ///< request outstanding
        // Outstanding request (for the shadow oracle).
        uint64_t req_id = 0;
        uint8_t req_method = 0;
        std::vector<uint8_t> req_payload;
        sim::TimePs t0 = 0;
        // Encoded request bytes not yet posted (TX ring was full).
        std::vector<uint8_t> pending_out;
        size_t pending_off = 0;
    };

    /** Per-connection record kept for the whole run. */
    struct Slot
    {
        uint32_t conn_id = driver::FastPath::kNoConn;
        uint16_t port = 0;
        Rng rng{1};
        uint32_t requests_done = 0;
        uint32_t next_seq = 1;
        bool terminal = false;
        /** Set by open(), freed by finish_slot(). */
        std::unique_ptr<LiveConn> live;
    };

    void open_next_batch();
    void service();
    void handle_ctrl(const driver::CtrlMsg& m);
    void schedule_next_request(uint32_t slot_index);
    void build_request(uint32_t slot_index);
    /** Post the slot's queued request bytes, all of them. */
    void pump_slot(uint32_t slot_index);
    void on_response(uint32_t slot_index, rpc::Frame&& f);
    void finish_slot(uint32_t slot_index, bool aborted);

    sim::EventQueue& eq_;
    driver::FastPath& fp_;
    RpcClientConfig cfg_;
    AppRings rings_;

    /** Method ids methods_mask enables, in id order. */
    std::vector<uint8_t> enabled_methods_;
    std::vector<Slot> slots_;
    /** conn id -> slot, for live connections only. */
    std::map<uint32_t, uint32_t> by_conn_;
    uint32_t opens_issued_ = 0;
    uint32_t done_count_ = 0;

    std::map<uint64_t, uint64_t> digests_;
    sim::Histogram latency_;
    uint64_t latency_fold_ = 0; ///< seeded to kFnvBasis in the ctor
    std::vector<std::string> errors_;
    RpcClientStats stats_;
};

/** Build a kRpcDefrag request payload: @p datum_len bytes of rng
 *  pattern split into shuffled [off][len][bytes] chunk records. */
std::vector<uint8_t> build_defrag_payload(Rng& rng,
                                          uint32_t datum_len);

} // namespace fld::apps

#endif // FLD_APPS_RPC_CLIENT_H
