/**
 * @file
 * Application emulation over the host fast path's ring ABI.
 *
 * AppEmu plays the client: it opens N connections through the
 * slow path (staggered in batches so SYN bursts don't swamp small
 * driver rings), streams a deterministic byte pattern through the TX
 * descriptor ring — closed-loop (next request waits for the previous
 * one's TxDone completion) or open-loop (fixed pacing, ring
 * backpressure permitting) — then closes, optionally reopening each
 * connection for several churn incarnations.
 *
 * SinkApp plays the server: it listens for passive opens, drains the
 * RX ring (optionally with a per-wakeup delay to model a slow
 * application and exercise ring backpressure), and keeps a per-flow
 * FNV digest of delivered bytes. Client-side sent digests vs
 * server-side delivered digests are the exactly-once oracle, and the
 * same digests compared across FLD-driven and CPU-driven runs are the
 * differential oracle.
 *
 * Both apps drive their rings through AppRings, which runs all ring
 * work from scheduled events (never from inside the stack's notify
 * callback) so stack code never re-enters itself.
 */
#ifndef FLD_APPS_APP_EMU_H
#define FLD_APPS_APP_EMU_H

#include <cstdint>
#include <map>
#include <vector>

#include "apps/app_rings.h"
#include "driver/fastpath.h"
#include "sim/event_queue.h"
#include "util/fifo.h"

namespace fld::apps {

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/** Open-loop request cadence per client. Chosen here. */
constexpr sim::TimePs kAppSendInterval = sim::microseconds(2);
/** Gap between a connection closing and its slot's next incarnation
 *  opening (churn_cycles). Chosen here. */
constexpr sim::TimePs kAppReopenDelay = sim::microseconds(50);

struct AppEmuConfig
{
    uint32_t connections = 8;
    /** Application writes per connection incarnation. */
    uint32_t requests_per_conn = 4;
    /** Bytes per write (clamped to the fast path's slot size). */
    uint32_t request_bytes = 512;
    /** Closed loop: next request waits for the previous TxDone.
     *  Open loop: requests go out on a fixed cadence. */
    bool closed_loop = true;
    /** Stagger opens: this many per interval. */
    uint32_t open_batch = 32;
    sim::TimePs open_interval = sim::microseconds(10);
    /** Extra open/close incarnations per connection slot. */
    uint32_t churn_cycles = 0;

    uint16_t base_port = 20000;
    uint32_t remote_ip = 0;
    uint16_t remote_port = 7000;
    uint32_t tx_ring_entries = 64;
    uint32_t rx_ring_entries = 64;
};

/** Outcome of one connection incarnation. */
struct ConnOutcome
{
    uint16_t local_port = 0;
    uint32_t slot = 0;
    uint32_t incarnation = 0;
    uint64_t sent_bytes = 0;
    uint64_t acked_bytes = 0; ///< confirmed by TxDone completions
    uint64_t sent_digest = 0; ///< FNV over the bytes, in write order
    bool opened = false;
    bool closed = false;
    bool reset = false;
};

class AppEmu
{
  public:
    AppEmu(sim::EventQueue& eq, driver::FastPath& fp,
           AppEmuConfig cfg);

    /** Kick off the staggered opens. */
    void start();

    /** All incarnations reached a terminal state (closed or reset). */
    bool done() const { return done_count_ == total_incarnations_; }

    const std::vector<ConnOutcome>& outcomes() const
    {
        return outcomes_;
    }
    uint64_t tx_ring_full() const { return tx_ring_full_; }
    uint32_t app_id() const { return rings_.app_id(); }

    /** Deterministic payload byte for (slot, incarnation, req, j). */
    static uint8_t pattern_byte(uint32_t slot, uint32_t inc,
                                uint32_t req, uint32_t j)
    {
        return uint8_t((slot * 131) ^ (inc * 53) ^ (req * 29) ^
                       (j * 7));
    }

  private:
    /** Live state of one connection slot's current incarnation. */
    struct Slot
    {
        uint32_t conn_id = driver::FastPath::kNoConn;
        uint32_t incarnation = 0;
        uint32_t outcome_index = 0;
        uint32_t requests_posted = 0;
        uint64_t inflight_bytes = 0; ///< posted, TxDone not yet seen
        bool opened = false;
        bool finished = false; ///< all requests posted and acked
    };

    void open_next_batch();
    void pacing_tick();
    void service();
    void handle_ctrl(const driver::CtrlMsg& m);
    void pump_sends();
    void enqueue_send(uint32_t slot_index);
    void drain_send_queue();
    void post_request(uint32_t slot_index);
    void maybe_close(uint32_t slot_index);
    void open_slot(uint32_t slot_index, uint32_t incarnation);
    uint16_t port_for(uint32_t slot_index, uint32_t incarnation) const;

    sim::EventQueue& eq_;
    driver::FastPath& fp_;
    AppEmuConfig cfg_;
    AppRings rings_;
    std::vector<uint8_t> request_buf_; ///< one request's pattern bytes

    std::vector<Slot> slots_;
    std::map<uint32_t, uint32_t> by_conn_; ///< conn_id -> slot index
    /** Closed loop: slots wanting to send, in FIFO order. A full TX
     *  ring leaves them queued; the next TxDone drain retries. */
    Fifo<uint32_t> send_queue_;
    std::vector<char> send_queued_;
    std::vector<ConnOutcome> outcomes_;

    uint32_t opens_issued_ = 0; ///< first-incarnation opens kicked off
    uint32_t done_count_ = 0;
    uint32_t total_incarnations_ = 0;
    bool open_loop_timer_ = false;
    uint64_t tx_ring_full_ = 0;
};

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct SinkAppConfig
{
    uint16_t listen_port = 7000;
    uint32_t tx_ring_entries = 8;
    uint32_t rx_ring_entries = 256;
};

/** Per-flow record on the server side, keyed by the peer's port. */
struct SinkFlow
{
    driver::ConnKey key;
    uint64_t bytes = 0;
    uint64_t digest = 0; ///< FNV over delivered bytes, in order
    bool closed = false;
    bool reset = false;
};

class SinkApp
{
  public:
    SinkApp(sim::EventQueue& eq, driver::FastPath& fp,
            SinkAppConfig cfg);

    /** Flows by peer (client) port — unique per incarnation. */
    const std::map<uint16_t, SinkFlow>& flows() const
    {
        return flows_;
    }
    uint32_t accepted() const { return accepted_; }
    uint32_t closed() const { return closed_; }
    uint32_t resets() const { return resets_; }
    uint32_t app_id() const { return rings_.app_id(); }

  private:
    void drain();

    AppRings rings_;
    std::map<uint32_t, uint16_t> conn_port_; ///< conn_id -> peer port
    std::map<uint16_t, SinkFlow> flows_;
    uint32_t accepted_ = 0;
    uint32_t closed_ = 0;
    uint32_t resets_ = 0;
};

} // namespace fld::apps

#endif // FLD_APPS_APP_EMU_H
