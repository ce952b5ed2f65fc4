/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single EventQueue drives a whole simulated testbed (hosts, NICs,
 * PCIe fabric, FLD, accelerators). Events scheduled for the same tick
 * execute in scheduling order (a monotonic sequence number breaks ties),
 * which keeps runs deterministic.
 *
 * Hot-path design: callbacks are move-only InlineCallbacks (no
 * std::function, no per-event copy of captured packet payloads) stored
 * in a chunked, address-stable node pool and executed *in place* — a
 * popped event pays one fused invoke-and-destroy dispatch, never a
 * relocation. Ordering comes from a hierarchical timing wheel
 * (calendar queue) instead of a binary heap: near-future events land
 * in power-of-two buckets of fixed picosecond granularity in O(1),
 * far timers (RTO, time-wait, shapers) live in coarser overflow
 * levels and cascade down as the clock approaches, and the drain loop
 * empties a whole bucket at a time without re-reading the wheel
 * cursor. Scheduling and popping are O(1) amortized — no O(log n)
 * sifts — and steady-state operation performs zero heap allocations
 * once the pool has warmed up.
 *
 * Execution follows the total order {when, seq} exactly. The wheel
 * is replayed against a plain priority queue over that order in
 * tests/sim/timing_wheel_test.cc, and the transcript hashes and trace
 * digests that order produces are pinned in
 * tests/integration/contract_manifest.h.
 */
#ifndef FLD_SIM_EVENT_QUEUE_H
#define FLD_SIM_EVENT_QUEUE_H

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace fld::sim {

class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    TimePs now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when. Scheduling into
     * the past would reorder already-executed history; @p when is
     * clamped to now() (with a debug assert, so tests catch the
     * offending component) and the event runs this tick, after all
     * previously scheduled same-tick events — including when the
     * clamp lands inside the bucket currently being drained.
     */
    void schedule_at(TimePs when, Callback cb)
    {
        place_node(when, make_node(std::move(cb)));
    }

    /**
     * Same, constructing the callable directly in its pool node —
     * saves one relocation of the captures per scheduled event. This
     * is the overload lambda call sites resolve to.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback>>>
    void schedule_at(TimePs when, F&& fn)
    {
        uint32_t idx = alloc_node();
        ::new (static_cast<void*>(&node(idx).cb))
            Callback(std::forward<F>(fn));
        place_node(when, idx);
    }

    /** Schedule @p cb to run @p delay after the current time. */
    template <typename F>
    void schedule_in(TimePs delay, F&& fn)
    {
        schedule_at(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Burst batching: append a run of callbacks for the same @p when.
     * Equivalent to calling schedule_at once per element in order
     * (same seq assignment, same execution order). Every element
     * still files through the wheel; after the first, the last-bucket
     * memo resolves the slot without a level search, so trains of
     * same-timestamp events (mini-CQE trains, DMA chunk fans,
     * doorbell coalescing) pay one level search for the whole run.
     */
    void schedule_batch(TimePs when, Callback* cbs, size_t n);

    /** Variadic burst: schedule_burst(when, f1, f2, ...). */
    template <typename F0, typename... Fs>
    void schedule_burst(TimePs when, F0&& f0, Fs&&... fns)
    {
        if constexpr (sizeof...(Fs) == 0) {
            schedule_at(when, std::forward<F0>(f0));
        } else {
            Callback cbs[1 + sizeof...(Fs)] = {
                Callback(std::forward<F0>(f0)),
                Callback(std::forward<Fs>(fns))...};
            schedule_batch(when, cbs, 1 + sizeof...(Fs));
        }
    }

    /** Run events until the queue drains. Returns events executed. */
    uint64_t run();

    /**
     * Run events with timestamp <= @p deadline, then set now to the
     * deadline. Returns events executed.
     */
    uint64_t run_until(TimePs deadline);

    /** Number of pending events. O(1) across wheel buckets, cascade
     *  levels, the in-flight drain list and the overflow file. */
    size_t pending() const { return pending_; }

    /** Drop all pending events (used between experiment phases).
     *  Safe mid-drain and mid-cascade: remaining drained entries and
     *  every chained bucket are released, counters stay exact. */
    void clear();

    /**
     * Lifetime telemetry (events/sec reporting): events executed and
     * scheduled since construction. Both survive clear(), and both
     * are exact at any point — including from inside a callback.
     */
    uint64_t executed_total() const { return executed_total_; }
    uint64_t scheduled_total() const { return next_seq_; }

    /** Wheel telemetry. */
    struct WheelStats
    {
        uint64_t bucket_drains = 0;   ///< buckets pulled into the drain list
        uint64_t drained_events = 0;  ///< events those buckets held
        uint64_t max_bucket = 0;      ///< largest single bucket seen
        uint64_t cascades = 0;        ///< upper-level slots re-filed down
        uint64_t cascaded_events = 0; ///< events moved by those cascades
        uint64_t overflow_filed = 0;  ///< events beyond the top horizon
        uint64_t overflow_refiled = 0;///< overflow events re-filed in

        /** Mean events per drained bucket (batching effectiveness). */
        double avg_bucket_occupancy() const
        {
            return bucket_drains
                       ? double(drained_events) / double(bucket_drains)
                       : 0.0;
        }
    };
    const WheelStats& wheel_stats() const { return wheel_stats_; }

    /**
     * Wheel geometry (exposed for tests and telemetry): level-0
     * buckets are 2^kGranularityShift ps wide; each of the kLevels
     * levels has kSlots slots and is kSlotBits coarser than the one
     * below; events beyond the top-level horizon live in an overflow
     * file that re-files as the clock approaches.
     */
    static constexpr unsigned kGranularityShift = 12; // 4.096 ns buckets
    static constexpr unsigned kSlotBits = 12;
    static constexpr uint32_t kSlots = 1u << kSlotBits; // 4096 per level
    static constexpr unsigned kLevels = 4;
    /** First timestamp past the top level's reach (now + ~13 days). */
    static constexpr unsigned kHorizonShift =
        kGranularityShift + kLevels * kSlotBits;

  private:
    static constexpr uint32_t kNil = 0xffffffffu;
    static constexpr uint32_t kChunkShift = 8;
    static constexpr uint32_t kChunkSize = 1u << kChunkShift;

    /** Pooled event body. Chunked storage keeps addresses stable, so
     *  a draining callback runs in place while re-entrant scheduling
     *  grows the pool underneath it. */
    struct Node
    {
        Callback cb;
        TimePs when = 0;
        uint64_t seq = 0;
        uint32_t next = kNil; ///< intrusive bucket-chain link
    };

    /** Drain-list entry: one event of the bucket being executed. */
    struct Ready
    {
        TimePs when;
        uint64_t seq;
        uint32_t node;
    };

    /** One wheel level: slot chains plus a two-tier occupancy bitmap
     *  (word bitmap + one summary word) for O(1) next-slot search. */
    struct Level
    {
        std::vector<std::pair<uint32_t, uint32_t>> slots; // head, tail
        std::array<uint64_t, kSlots / 64> words{};
        uint64_t summary = 0;
    };

    Node& node(uint32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }
    uint32_t alloc_node();
    uint32_t make_node(Callback cb);
    void release_node(uint32_t idx)
    {
        node(idx).cb.reset();
        free_nodes_.push_back(idx);
    }

    /** Assign seq, clamp past times, route to drain list or wheel. */
    void place_node(TimePs when, uint32_t idx);
    void file_node(TimePs when, uint32_t idx);
    void drain_insert(TimePs when, uint64_t seq, uint32_t idx);
    void append_slot(Level& lv, uint32_t slot, uint32_t idx);

    /** Advance the wheel to the next non-empty bucket and pull it
     *  into the drain list (cascading upper levels and re-filing
     *  overflow as needed). Returns false when nothing is pending. */
    bool advance();
    void fill_drain(uint32_t slot);
    void cascade(unsigned level, uint32_t slot);
    bool refile_overflow();

    bool drain_active() const { return drain_pos_ < drain_.size(); }
    uint32_t slot_of(TimePs t, unsigned level) const
    {
        return uint32_t(
            (t >> (kGranularityShift + level * kSlotBits)) &
            (kSlots - 1));
    }

    uint64_t run_wheel(bool bounded, TimePs deadline);

    TimePs now_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t executed_total_ = 0;
    size_t pending_ = 0;

    // Node pool.
    std::vector<std::unique_ptr<Node[]>> chunks_;
    uint32_t node_count_ = 0;
    std::vector<uint32_t> free_nodes_;

    // Wheel.
    std::array<Level, kLevels> levels_;
    /** Wheel cursor: start of the region the wheel's slot indexing is
     *  relative to. Monotonic; may run ahead of now() when run_until
     *  pre-locates a bucket past its deadline (ordering stays exact —
     *  earlier late arrivals merge into the drain list by position). */
    TimePs wheel_pos_ = 0;
    std::vector<Ready> drain_;
    size_t drain_pos_ = 0;
    TimePs drain_end_ = 0; ///< exclusive end of the drained bucket
    std::vector<uint32_t> overflow_;
    WheelStats wheel_stats_;

    // Last-bucket memo: consecutive schedules into the same bucket
    // (wire trains, DMA chunk fans) skip level resolution entirely.
    bool memo_valid_ = false;
    unsigned memo_level_ = 0;
    uint32_t memo_slot_ = 0;
    TimePs memo_key_ = 0;
};

} // namespace fld::sim

#endif // FLD_SIM_EVENT_QUEUE_H
