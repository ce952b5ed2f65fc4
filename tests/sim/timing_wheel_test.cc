/**
 * @file
 * Timing-wheel engine edge cases: overflow cascading, bounded runs
 * landing in empty buckets, same-tick FIFO across bucket boundaries,
 * exact O(1) counters (including clear() mid-cascade), past-time
 * clamping while the clamped bucket is mid-drain, burst batching, and
 * an execution-order differential against a reference priority queue
 * on a randomized re-entrant workload.
 */
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

namespace fld::sim {
namespace {

/** Level-k slot width in picoseconds. */
constexpr TimePs
slot_width(unsigned level)
{
    return TimePs(1)
           << (EventQueue::kGranularityShift +
               level * EventQueue::kSlotBits);
}

TEST(TimingWheel, FarFutureEventsCascadeDown)
{
    // An event filed at an upper level must cascade through every
    // level below as the clock approaches, and still fire at its
    // exact timestamp in (when, seq) order.
    EventQueue eq;
    std::vector<int> order;
    const TimePs far = 3 * slot_width(2) + 12345; // a level-2 resident
    eq.schedule_at(far, [&] { order.push_back(2); });
    eq.schedule_at(slot_width(1) + 7, [&] { order.push_back(1); });
    eq.schedule_at(100, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), far);
    EXPECT_GT(eq.wheel_stats().cascades, 0u);
    EXPECT_GE(eq.wheel_stats().cascaded_events, 2u);
}

TEST(TimingWheel, BeyondHorizonOverflowRefilesAndFires)
{
    // Timestamps past the top level's reach live in the overflow file
    // and re-file into the wheel when the clock gets there. ~13 days
    // of simulated time is unreachable by real workloads, but RTO
    // arithmetic on corrupted state could produce such timestamps and
    // they must not be lost or misordered.
    EventQueue eq;
    const TimePs horizon = TimePs(1) << EventQueue::kHorizonShift;
    std::vector<int> order;
    eq.schedule_at(horizon + 500, [&] { order.push_back(2); });
    eq.schedule_at(horizon + 499, [&] { order.push_back(1); });
    eq.schedule_at(horizon + 500, [&] { order.push_back(3); });
    eq.schedule_at(1000, [&] { order.push_back(0); });
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_GE(eq.wheel_stats().overflow_filed, 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), horizon + 500);
    EXPECT_GE(eq.wheel_stats().overflow_refiled, 3u);
}

TEST(TimingWheel, RunUntilDeadlineInsideEmptyBucketParksCleanly)
{
    // Deadline falls in a bucket holding nothing, with pending work
    // both before and after it: everything <= deadline fires, the
    // clock parks exactly on the deadline, and the later event
    // neither fires early nor gets lost.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_at(1000, [&] { order.push_back(0); });
    const TimePs later = 40 * slot_width(0) + 17;
    eq.schedule_at(later, [&] { order.push_back(1); });

    const TimePs deadline = 20 * slot_width(0) + 3;
    EXPECT_EQ(eq.run_until(deadline), 1u);
    EXPECT_EQ(eq.now(), deadline);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(order, (std::vector<int>{0}));

    // Scheduling between the parked clock and the far event must slot
    // in ahead of it even though the wheel already located its bucket.
    eq.schedule_at(deadline + 5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(eq.now(), later);
}

TEST(TimingWheel, RunUntilRepeatedEmptyDeadlinesStayMonotonic)
{
    // Successive bounded runs with deadlines in empty buckets must
    // keep now() monotonic and still execute a far event dead on time.
    EventQueue eq;
    int fired = 0;
    const TimePs when = 5 * slot_width(1) + 99;
    eq.schedule_at(when, [&] { fired = 1; });
    for (TimePs d = slot_width(0); d < 6 * slot_width(0);
         d += slot_width(0)) {
        eq.run_until(d);
        EXPECT_EQ(eq.now(), d);
        EXPECT_EQ(fired, 0);
    }
    eq.run_until(when);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), when);
}

TEST(TimingWheel, SameTickFifoAcrossBucketBoundary)
{
    // Interleave schedules for the last tick of one bucket and the
    // first tick of the next: within each tick, execution must follow
    // scheduling order even though the ticks land in different
    // buckets and the interleaving alternates between them.
    EventQueue eq;
    const TimePs last = 8 * slot_width(0) - 1; // bucket 7's final tick
    const TimePs first = 8 * slot_width(0);    // bucket 8's first tick
    std::vector<std::pair<TimePs, int>> order;
    for (int i = 0; i < 8; ++i) {
        TimePs when = (i % 2) ? first : last;
        eq.schedule_at(when, [&order, when, i] {
            order.emplace_back(when, i);
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    // All of `last` (evens ascending), then all of `first` (odds).
    std::vector<std::pair<TimePs, int>> expect = {
        {last, 0},  {last, 2},  {last, 4},  {last, 6},
        {first, 1}, {first, 3}, {first, 5}, {first, 7},
    };
    EXPECT_EQ(order, expect);
}

TEST(TimingWheel, PendingIsExactAcrossLevelsAndOverflow)
{
    EventQueue eq;
    const TimePs horizon = TimePs(1) << EventQueue::kHorizonShift;
    std::vector<TimePs> whens = {
        5,                      // current bucket
        3 * slot_width(0) + 1,  // level 0
        2 * slot_width(1) + 2,  // level 1
        4 * slot_width(2) + 3,  // level 2
        1 * slot_width(3) + 4,  // level 3
        horizon + 42,           // overflow
    };
    for (TimePs w : whens)
        eq.schedule_at(w, [] {});
    EXPECT_EQ(eq.pending(), whens.size());
    EXPECT_EQ(eq.scheduled_total(), whens.size());

    // Drain one at a time; pending()/executed_total() stay exact at
    // every intermediate point, including with the drain list active.
    size_t left = whens.size();
    for (TimePs w : whens) {
        eq.run_until(w);
        --left;
        EXPECT_EQ(eq.pending(), left) << "after " << w;
        EXPECT_EQ(eq.executed_total(), whens.size() - left);
    }
    EXPECT_EQ(eq.scheduled_total(), whens.size());
}

TEST(TimingWheel, ClearMidCascadeKeepsCountersExact)
{
    // clear() from inside a callback, while the drain list still holds
    // same-tick events and upper levels + overflow hold cascaded and
    // far work: everything pending is dropped, lifetime counters stay
    // exact, and the queue remains usable.
    EventQueue eq;
    const TimePs horizon = TimePs(1) << EventQueue::kHorizonShift;
    int fired = 0;
    const TimePs tick = 2 * slot_width(1) + 7; // forces a cascade first
    eq.schedule_at(tick, [&] {
        ++fired;
        eq.clear(); // drops the two events below mid-drain
    });
    eq.schedule_at(tick, [&] { ++fired; });          // same tick, later seq
    eq.schedule_at(tick + slot_width(2), [&] { ++fired; }); // upper level
    eq.schedule_at(horizon + 1, [&] { ++fired; });   // overflow
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.scheduled_total(), 4u);
    EXPECT_EQ(eq.executed_total(), 1u);
    EXPECT_EQ(eq.now(), tick);

    eq.schedule_at(tick + 5, [&] { fired += 10; });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 11);
    EXPECT_EQ(eq.executed_total(), 2u);
    EXPECT_EQ(eq.scheduled_total(), 5u);
}

#ifdef NDEBUG
TEST(TimingWheel, PastClampMidDrainRunsAfterAllSameTickEvents)
{
    // Regression: a callback computing a timestamp from stale state
    // schedules into the past while its own bucket is mid-drain. The
    // clamped event must run this tick but after *every* previously
    // scheduled same-tick event — those still ahead in the drain list
    // and a re-entrant schedule made before the clamp.
    EventQueue eq;
    std::vector<int> order;
    const TimePs tick = 3 * slot_width(0) + 5;
    eq.schedule_at(tick, [&] {
        order.push_back(0);
        eq.schedule_at(tick, [&] { order.push_back(3); });
        eq.schedule_at(tick - 4000, [&] { order.push_back(4); }); // clamp
        eq.schedule_at(tick, [&] { order.push_back(5); });
    });
    eq.schedule_at(tick, [&] { order.push_back(1); });
    eq.schedule_at(tick, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), tick);
}
#endif

TEST(TimingWheel, ScheduleBatchMatchesIndividualScheduling)
{
    // schedule_batch(when, cbs, n) must be observationally identical
    // to n schedule_at calls: same seq assignment, same FIFO order
    // interleaved with ordinary schedules on the same tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_at(500, [&] { order.push_back(0); });
    EventQueue::Callback batch[3] = {
        EventQueue::Callback([&] { order.push_back(1); }),
        EventQueue::Callback([&] { order.push_back(2); }),
        EventQueue::Callback([&] { order.push_back(3); }),
    };
    eq.schedule_batch(500, batch, 3);
    eq.schedule_at(500, [&] { order.push_back(4); });
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_EQ(eq.scheduled_total(), 5u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.executed_total(), 5u);
}

TEST(TimingWheel, ScheduleBurstVariadicKeepsOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_burst(
        100, [&] { order.push_back(0); }, [&] { order.push_back(1); },
        [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimingWheel, StatsSeeBucketBatching)
{
    // A same-tick train drains as one bucket: occupancy telemetry must
    // report it (this is the signal bench_sim_perf surfaces).
    EventQueue eq;
    for (int i = 0; i < 32; ++i)
        eq.schedule_at(1000, [] {});
    eq.run();
    const EventQueue::WheelStats& ws = eq.wheel_stats();
    EXPECT_GE(ws.bucket_drains, 1u);
    EXPECT_EQ(ws.drained_events, 32u);
    EXPECT_EQ(ws.max_bucket, 32u);
    EXPECT_DOUBLE_EQ(ws.avg_bucket_occupancy(),
                     32.0 / double(ws.bucket_drains));
}

/**
 * Reference scheduler: a plain priority queue over the total order
 * {when, seq} that the wheel must reproduce exactly.
 */
class ReferenceQueue
{
  public:
    TimePs now() const { return now_; }

    void schedule_in(TimePs delay, std::function<void()> fn)
    {
        queue_.push(Entry{now_ + delay, next_seq_++, std::move(fn)});
    }

    void run()
    {
        while (!queue_.empty()) {
            Entry e = queue_.top();
            queue_.pop();
            now_ = e.when;
            e.fn();
        }
    }

  private:
    struct Entry
    {
        TimePs when;
        uint64_t seq;
        std::function<void()> fn;

        bool operator>(const Entry& o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    TimePs now_ = 0;
    uint64_t next_seq_ = 0;
};

/**
 * Randomized re-entrant workload driven by a deterministic xorshift:
 * every callback logs (now, id) and may schedule followups at mixed
 * horizons — zero-delay, sub-bucket, cross-bucket, cross-level and
 * occasionally near-horizon. Executed identically by both queues.
 */
template <typename Queue>
std::vector<std::pair<TimePs, uint32_t>>
run_mixed_workload()
{
    Queue eq;
    std::vector<std::pair<TimePs, uint32_t>> log;
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    uint32_t id = 0;
    struct Spawner
    {
        Queue& eq;
        std::vector<std::pair<TimePs, uint32_t>>& log;
        decltype(next)& rnd;
        uint32_t& id;
        void spawn(uint32_t depth)
        {
            uint32_t me = id++;
            TimePs delta;
            switch (rnd() % 6) {
            case 0: delta = 0; break;                       // same tick
            case 1: delta = rnd() % 4096; break;            // in-bucket
            case 2: delta = rnd() % (1u << 20); break;      // level 0/1
            case 3: delta = rnd() % (1ull << 30); break;    // level 1/2
            case 4: delta = rnd() % (1ull << 40); break;    // level 2/3
            default: delta = 1; break;
            }
            eq.schedule_in(delta, [this, me, depth] {
                log.emplace_back(eq.now(), me);
                if (depth > 0) {
                    spawn(depth - 1);
                    if (rnd() % 3 == 0)
                        spawn(depth - 1);
                }
            });
        }
    } spawner{eq, log, next, id};
    for (int i = 0; i < 40; ++i)
        spawner.spawn(5);
    eq.run();
    return log;
}

TEST(TimingWheel, WheelMatchesHeapOnMixedReentrantWorkload)
{
    auto wheel = run_mixed_workload<EventQueue>();
    auto reference = run_mixed_workload<ReferenceQueue>();
    ASSERT_GT(wheel.size(), 100u);
    EXPECT_EQ(wheel, reference);
}

} // namespace
} // namespace fld::sim
