/**
 * @file
 * Host TCP fast path with a flextcp-like application ring ABI.
 *
 * The paper's FLD re-implements the NIC driver an accelerator needs;
 * serving real applications additionally needs the *host* transmit
 * path the kernel normally provides. This module grows the
 * single-connection SoftwareSendStack (PR 3) into a per-flow fast
 * path in the shape of TAS/flextcp (SNIPPETS.md snippet 1):
 *
 *  - Applications talk to the stack through per-application SPSC
 *    descriptor rings. Each entry is a flextcp-style
 *    {opaque, addr, len, flags} record with an ownership flag
 *    (`nic_own`) that round-trips producer -> consumer -> producer,
 *    and free-running wrap-aware head/tail indices. Work is announced
 *    with bump-queue doorbells that naturally coalesce over batches.
 *  - Connection open/teardown travels the *slow path*: explicit
 *    control messages between the application and the stack, never
 *    the data rings.
 *  - Every connection carries its own seq/ack/rto/go-back-N state and
 *    its own retransmission timer. This fixes the old stack's
 *    single-global-timer/global-ARP-queue design, where one stalled
 *    ARP entry or one lossy flow delayed unrelated flows' segments:
 *    ARP parking and timeouts are now strictly per next-hop and
 *    per connection.
 *
 * The stack is transport-agnostic: frames leave through a
 * caller-supplied hook (a CpuDriver queue, the FLD AXI stream, or a
 * test harness wire) and arrive via on_rx(). The same application
 * traffic can therefore be served CPU-driven or FLD-driven and the
 * two runs compared by the differential oracles.
 */
#ifndef FLD_DRIVER_FASTPATH_H
#define FLD_DRIVER_FASTPATH_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"
#include "sim/event_queue.h"
#include "util/fifo.h"

namespace fld::driver {

// ---------------------------------------------------------------------
// Ring ABI
// ---------------------------------------------------------------------

/** Descriptor types (RingDesc::type). */
constexpr uint8_t kDescInvalid = 0;
/** TX: payload at {addr, len} to stream on connection `opaque`.
 *  RX: `len` payload bytes for connection `opaque` at `addr`. */
constexpr uint8_t kDescData = 1;
/** RX only: `len` more transmit bytes of connection `opaque` were
 *  acknowledged end-to-end (flextcp's CONNUPDATE tx bump). */
constexpr uint8_t kDescTxDone = 2;

/** Descriptor flags (RingDesc::flags). */
constexpr uint16_t kDescFlagPush = 0x1; ///< TX: PSH the final segment
/**
 * TX: request a *tagged* completion for this descriptor. Instead of
 * being coalesced into the next aggregate TxDone bump, the descriptor
 * gets its own kDescTxDone entry echoing RingDesc::tag once its last
 * byte is acknowledged end-to-end. The RPC tier tags the final
 * descriptor of each response so response completion (not just byte
 * counts) is visible on the ring.
 */
constexpr uint16_t kDescFlagTxTag = 0x2;

/**
 * One ring entry, modeled on flextcp's 64 B queue entries: an opaque
 * cookie, a buffer reference, and an ownership flag the producer sets
 * and the consumer clears once the entry (and its buffer) may be
 * reused.
 */
struct RingDesc
{
    uint64_t opaque = 0; ///< connection id
    uint64_t addr = 0;   ///< offset into the owning app's arena
    uint32_t len = 0;
    uint32_t tag = 0;    ///< app cookie echoed by tagged completions
    uint16_t flags = 0;
    uint8_t type = kDescInvalid;
    uint8_t nic_own = 0; ///< 1 while the consumer side owns the entry
};

/**
 * Wrap-aware SPSC descriptor ring.
 *
 * head_/tail_ are free-running 32-bit indices (slot = index mod
 * capacity), so the ring keeps working across index wraparound — the
 * same discipline the NIC's WQE rings use and TraceChecker verifies.
 * Consumption is two-phase, like a real NIC: pop() advances the tail
 * (the consumer has *read* the entry) but the slot stays `nic_own`
 * until release() — only then may the producer reuse the slot and the
 * buffer it references. Backpressure is therefore visible to the
 * producer as post() returning false.
 */
class DescRing
{
  public:
    /** @p entries must be a power of two (>= 2). @p initial_index
     *  lets wrap tests start head/tail near the 2^32 boundary. */
    explicit DescRing(uint32_t entries, uint32_t initial_index = 0);

    uint32_t capacity() const { return capacity_; }
    uint32_t head() const { return head_; }
    uint32_t tail() const { return tail_; }
    bool empty() const { return head_ == tail_; }
    bool full() const { return head_ - tail_ == capacity_; }
    /** Entries posted but not yet consumed. */
    uint32_t pending() const { return head_ - tail_; }

    /** Slot index the next post() will claim (mod capacity). */
    uint32_t next_slot() const { return head_ & mask_; }

    /**
     * Producer: claim the next slot. Fails (returning false and
     * counting a stall) when the ring is full *or* the slot has not
     * been released yet — a consumer still owns its buffer.
     */
    bool post(const RingDesc& d);

    /** Consumer: entry at the tail, or null when none pending. */
    const RingDesc* peek() const;
    /**
     * Consumer: read the tail entry and advance the tail. Returns the
     * slot index (for the matching release()); the descriptor is
     * copied into @p out.
     */
    uint32_t pop(RingDesc* out);
    /** Consumer: return slot ownership to the producer. */
    void release(uint32_t slot);

    const RingDesc& slot(uint32_t index) const
    {
        return slots_[index & mask_];
    }

    // Conservation counters for the leak/round-trip oracles.
    uint64_t posted() const { return posted_; }
    uint64_t consumed() const { return consumed_; }
    uint64_t released() const { return released_; }
    uint64_t stalls() const { return stalls_; }
    /** True when every posted descriptor has been handed back. */
    bool all_released() const { return posted_ == released_; }
    /** True when no slot carries a dangling ownership flag. */
    bool own_flags_clear() const;

  private:
    uint32_t capacity_;
    uint32_t mask_;
    uint32_t head_;
    uint32_t tail_;
    std::vector<RingDesc> slots_;
    uint64_t posted_ = 0;
    uint64_t consumed_ = 0;
    uint64_t released_ = 0;
    uint64_t stalls_ = 0;
};

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/** Per-connection reliability parameters. */
struct ConnConfig
{
    uint32_t mss = 1460;         ///< TCP payload bytes per segment
    uint32_t window_segments = 8;///< go-back-N in-flight segment window
    sim::TimePs rto = sim::microseconds(200);
    uint32_t max_retries = 8;    ///< back-to-back timeouts before reset
};

enum class ConnState : uint8_t {
    Closed,      ///< time-wait: handshake done, conn about to be freed
    SynSent,     ///< active open, SYN in flight
    SynRcvd,     ///< passive open, SYN-ACK in flight
    Established,
    FinSent,     ///< close requested, FIN queued or in flight
    Reset,       ///< gave up after max_retries (or peer vanished)
};

const char* to_string(ConnState s);

/** Demultiplexing key (the local IP is the stack's own address). */
struct ConnKey
{
    uint32_t remote_ip = 0;
    uint16_t remote_port = 0;
    uint16_t local_port = 0;

    bool operator<(const ConnKey& o) const
    {
        return std::tie(remote_ip, remote_port, local_port) <
               std::tie(o.remote_ip, o.remote_port, o.local_port);
    }
    bool operator==(const ConnKey& o) const
    {
        return remote_ip == o.remote_ip &&
               remote_port == o.remote_port &&
               local_port == o.local_port;
    }
};

/** Slow-path message from the stack to an application. */
struct CtrlMsg
{
    enum class Type : uint8_t {
        Opened,   ///< active open completed (handshake done)
        Accepted, ///< passive connection established on a listener
        Closed,   ///< teardown finished cleanly
        Reset,    ///< connection gave up (max_retries exceeded)
    };
    Type type = Type::Opened;
    uint32_t conn_id = 0;
    uint64_t cookie = 0; ///< the opaque the app passed to open()
    ConnKey key;
};

class FastPath;

/**
 * One TCP connection: private per-flow seq/ack state, its own
 * go-back-N window and retransmission timer. Only FastPath mutates
 * it; tests and harnesses read through the const accessors.
 */
class Connection
{
  public:
    uint32_t id() const { return id_; }
    const ConnKey& key() const { return key_; }
    ConnState state() const { return state_; }
    uint32_t app() const { return app_; }
    uint64_t cookie() const { return cookie_; }

    uint32_t snd_una() const { return snd_una_; }
    uint32_t snd_nxt() const { return snd_nxt_; }
    uint32_t rcv_nxt() const { return rcv_nxt_; }
    size_t unacked_segments() const { return unacked_.size(); }
    size_t backlog_segments() const { return backlog_.size(); }
    bool timer_armed() const { return timer_armed_; }

    uint64_t segments_sent() const { return segments_sent_; }
    uint64_t retransmits() const { return retransmits_; }
    uint64_t resets() const { return resets_; }
    uint64_t bytes_streamed() const { return bytes_streamed_; }
    uint64_t bytes_acked() const { return bytes_acked_; }
    uint64_t bytes_delivered() const { return bytes_delivered_; }
    uint64_t dup_segments() const { return dup_segments_; }
    uint64_t ooo_segments() const { return ooo_segments_; }

  private:
    friend class FastPath;

    struct Segment
    {
        uint32_t seq = 0;
        std::vector<uint8_t> payload;
        bool push = false;
        bool syn = false;
        bool fin = false;

        uint32_t seq_len() const
        {
            return uint32_t(payload.size()) + (syn ? 1u : 0u) +
                   (fin ? 1u : 0u);
        }
    };

    uint32_t id_ = 0;
    ConnKey key_;
    uint32_t app_ = 0;
    uint64_t cookie_ = 0;
    ConnConfig cfg_;
    ConnState state_ = ConnState::Closed;
    /** Legacy single-connection mode (SoftwareSendStack): resets
     *  clear the queues but keep the connection usable. */
    bool legacy_ = false;
    bool auto_close_peer_fin_ = true;

    uint32_t snd_una_ = 1;
    uint32_t snd_nxt_ = 1;
    uint32_t rcv_nxt_ = 0;
    uint32_t fin_seq_ = 0;   ///< sequence our FIN occupies (when sent)
    bool fin_queued_ = false;
    bool fin_acked_ = false;
    bool peer_fin_rcvd_ = false;

    Fifo<Segment> backlog_;
    Fifo<Segment> unacked_;

    bool timer_armed_ = false;
    uint64_t timer_gen_ = 0;
    uint32_t retries_ = 0;

    /** TX-completion reporting: descriptor byte counts waiting for
     *  snd_una to cover {end_seq}. */
    struct TxRecord
    {
        uint32_t end_seq = 0;
        uint32_t bytes = 0;
        uint32_t tag = 0;
        bool tagged = false; ///< emit an own TxDone echoing `tag`
    };
    Fifo<TxRecord> tx_records_;

    uint64_t segments_sent_ = 0;
    uint64_t retransmits_ = 0;
    uint64_t resets_ = 0;
    uint64_t bytes_streamed_ = 0;
    uint64_t bytes_acked_ = 0;
    uint64_t bytes_delivered_ = 0;
    uint64_t dup_segments_ = 0;
    uint64_t ooo_segments_ = 0;
};

// ---------------------------------------------------------------------
// FastPath
// ---------------------------------------------------------------------

struct FastPathConfig
{
    net::MacAddr mac{0x02, 0, 0, 0, 0, 0x51};
    uint32_t ip = net::ipv4_addr(192, 168, 1, 2);
    /** Defaults applied to every new connection. */
    ConnConfig conn;
    /** Bytes per RX-ring slot buffer (>= conn.mss). */
    uint32_t slot_bytes = 2048;
    /** Answer ARP requests for our own IP (a real host does). */
    bool arp_responder = true;
};

/** Retry cadence when the driver refuses a frame (ring full / no FLD
 *  credits). */
constexpr sim::TimePs kTxRetryDelay = sim::microseconds(5);
/** Linger in Closed (time-wait) before freeing connection state, so a
 *  peer retransmitting its FIN still gets re-ACKed. Scaled on top of
 *  the connection's rto. */
constexpr uint32_t kTimeWaitRtos = 4;

struct FastPathStats
{
    uint64_t conns_opened = 0;   ///< active opens completing handshake
    uint64_t conns_accepted = 0; ///< passive opens established
    uint64_t conns_closed = 0;
    uint64_t conns_reset = 0;
    uint64_t frames_tx = 0; ///< frames the driver accepted
    uint64_t frames_rx = 0;
    uint64_t segments_sent = 0;
    uint64_t segments_received = 0;
    uint64_t retransmits = 0;
    uint64_t pure_acks_sent = 0;
    uint64_t dup_segments = 0;  ///< below rcv_nxt, re-ACKed
    uint64_t ooo_segments = 0;  ///< above rcv_nxt, dropped (go-back-N)
    uint64_t stray_segments = 0;///< no matching connection
    uint64_t arp_requests = 0;
    uint64_t arp_replies_sent = 0;
    uint64_t doorbells = 0;
    uint64_t tx_descs = 0;      ///< data descriptors consumed
    uint64_t rx_descs = 0;      ///< data descriptors delivered
    uint64_t tx_done_descs = 0;
    uint64_t tagged_tx_done_descs = 0; ///< subset echoing an app tag
    uint64_t rx_ring_stalls = 0;   ///< deliveries parked on a full ring
    uint64_t driver_backpressure = 0; ///< frames queued on driver refusal
};

class FastPath
{
  public:
    /** Frame egress hook; returns false when the driver cannot accept
     *  the frame right now (the stack queues and retries). */
    using TxFn = std::function<bool(net::Packet&&)>;
    /** Ring-activity nudge delivered to an application. */
    using NotifyFn = std::function<void()>;

    static constexpr uint32_t kNoApp = 0xffffffffu;
    static constexpr uint32_t kNoConn = 0;

    FastPath(sim::EventQueue& eq, FastPathConfig cfg = {});
    ~FastPath();

    void set_tx(TxFn tx) { tx_ = std::move(tx); }

    // ---- driver-facing ----------------------------------------------
    void on_rx(net::Packet&& pkt);

    // ---- application registration / rings ---------------------------
    /** Register an application; rings are created with the given
     *  power-of-two entry counts. Returns the app id. */
    uint32_t register_app(uint32_t tx_entries, uint32_t rx_entries,
                          NotifyFn notify = {});
    DescRing& tx_ring(uint32_t app);
    DescRing& rx_ring(uint32_t app);
    const DescRing& tx_ring(uint32_t app) const;
    const DescRing& rx_ring(uint32_t app) const;
    /** Per-slot payload arenas backing desc.addr. */
    uint8_t* tx_arena(uint32_t app);
    const uint8_t* rx_arena(uint32_t app) const;
    uint32_t slot_bytes() const { return cfg_.slot_bytes; }

    /** Bump-queue doorbell: consume freshly posted TX descriptors. */
    void doorbell(uint32_t app);
    /** The app released RX descriptors: flush parked deliveries. */
    void rx_doorbell(uint32_t app);
    /** Next slow-path message for @p app, if any. */
    std::optional<CtrlMsg> poll_ctrl(uint32_t app);

    // ---- slow path (connection lifecycle) ---------------------------
    /**
     * Active open. Returns the connection id immediately; the
     * CtrlMsg::Opened message arrives once the handshake completes.
     * @p cookie is echoed in every ctrl message for this connection.
     */
    uint32_t open(uint32_t app, uint64_t cookie, uint32_t remote_ip,
                  uint16_t remote_port, uint16_t local_port);
    /** Graceful close: FIN after all queued data. On a connection
     *  that never finished its handshake, or one that was Reset, frees
     *  it at once (a Reset connection stays until its app does this). */
    void close(uint32_t conn_id);
    /** Accept passive connections on @p local_port for @p app. */
    void listen(uint16_t local_port, uint32_t app);
    /**
     * Create a connection already in Established without a handshake
     * (tests, and the SoftwareSendStack compatibility wrapper).
     * @p legacy keeps the connection usable after a reset, matching
     * the old single-connection stack.
     */
    uint32_t open_established(uint32_t app, uint64_t cookie,
                              uint32_t remote_ip, uint16_t remote_port,
                              uint16_t local_port, bool legacy = false);

    /** Stream bytes directly (ring-less path; used by the wrapper and
     *  by tests that exercise TCP machinery without the ring ABI). */
    size_t stream_send(uint32_t conn_id, const uint8_t* data,
                       size_t len);

    // ---- ARP --------------------------------------------------------
    void add_arp_entry(uint32_t ip, const net::MacAddr& mac);
    bool resolved(uint32_t ip) const { return arp_cache_.count(ip); }

    // ---- introspection ----------------------------------------------
    /** Null once the connection has been freed (post time-wait). */
    const Connection* conn(uint32_t conn_id) const;
    /** Connections not yet freed (includes time-wait and Reset). */
    size_t live_conns() const { return conns_.size(); }
    std::vector<uint32_t> conn_ids() const;
    /** True when nothing is in flight anywhere in the stack. */
    bool quiesced() const;
    const FastPathStats& stats() const { return stats_; }
    const FastPathConfig& config() const { return cfg_; }

    /** Per-connection config override (before any traffic). */
    void set_conn_config(uint32_t conn_id, const ConnConfig& cfg);

  private:
    struct ParkedRx
    {
        uint32_t conn_id = 0;
        uint8_t type = kDescData;
        std::vector<uint8_t> bytes; ///< empty for kDescTxDone
        uint32_t len = 0;           ///< TxDone byte count
        uint32_t tag = 0;           ///< tagged TxDone cookie
        bool tagged = false;
    };

    struct AppContext
    {
        DescRing tx;
        DescRing rx;
        std::vector<uint8_t> tx_arena;
        std::vector<uint8_t> rx_arena;
        Fifo<CtrlMsg> ctrl;
        Fifo<ParkedRx> parked;
        NotifyFn notify;

        AppContext(uint32_t tx_entries, uint32_t rx_entries,
                   uint32_t slot_bytes, NotifyFn fn)
            : tx(tx_entries), rx(rx_entries),
              tx_arena(size_t(tx_entries) * slot_bytes),
              rx_arena(size_t(rx_entries) * slot_bytes),
              notify(std::move(fn))
        {}
    };

    Connection* find(uint32_t conn_id);
    Connection* find_by_key(const ConnKey& key);
    Connection* create_conn(uint32_t app, uint64_t cookie,
                            const ConnKey& key);
    void free_conn(uint32_t conn_id);
    void post_ctrl(Connection& c, CtrlMsg::Type type);
    void notify_app(uint32_t app);

    // TX machinery.
    void pump(Connection& c);
    void transmit_segment(Connection& c, const Connection::Segment& s);
    void send_pure_ack(Connection& c);
    void emit(net::Packet&& frame);
    void drain_driver_backlog();
    void enqueue_stream(Connection& c, const uint8_t* data, size_t len,
                        bool push);
    void queue_fin(Connection& c);

    // Timers.
    void arm_timer(Connection& c);
    void cancel_timer(Connection& c);
    void on_timeout(uint32_t conn_id, uint64_t generation);
    void reset_conn(Connection& c);
    void enter_closed(Connection& c);

    // RX machinery.
    void on_arp(const net::Packet& pkt);
    void on_tcp(const net::ParsedPacket& pp, const net::Packet& pkt);
    void handle_ack(Connection& c, uint32_t ack);
    void handle_data(Connection& c, const net::ParsedPacket& pp,
                     const net::Packet& pkt);
    void handle_fin(Connection& c, uint32_t fin_seq);
    void maybe_finish_close(Connection& c);
    void deliver_data(Connection& c, const uint8_t* data, size_t len);
    void report_tx_done(Connection& c);
    void park_or_post(uint32_t app, ParkedRx&& item);
    bool try_post_rx(uint32_t app, const ParkedRx& item);
    void flush_parked(uint32_t app);

    // ARP.
    void maybe_send_arp(uint32_t next_hop_ip);
    void on_arp_resolved(uint32_t ip);

    sim::EventQueue& eq_;
    FastPathConfig cfg_;
    TxFn tx_;

    std::vector<std::unique_ptr<AppContext>> apps_;
    std::map<uint32_t, std::unique_ptr<Connection>> conns_;
    std::map<ConnKey, uint32_t> by_key_;
    std::map<uint16_t, uint32_t> listeners_; ///< port -> app
    uint32_t next_conn_id_ = 1;

    std::map<uint32_t, net::MacAddr> arp_cache_;
    std::map<uint32_t, bool> arp_pending_; ///< request outstanding

    Fifo<net::Packet> driver_backlog_;
    bool retry_armed_ = false;

    uint16_t ip_id_ = 1;
    FastPathStats stats_;
};

} // namespace fld::driver

#endif // FLD_DRIVER_FASTPATH_H
