#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace fld::sim {

EventQueue::EventQueue()
{
    for (Level& lv : levels_)
        lv.slots.assign(kSlots, {kNil, kNil});
}

EventQueue::~EventQueue() = default;

uint32_t
EventQueue::alloc_node()
{
    if (!free_nodes_.empty()) {
        uint32_t idx = free_nodes_.back();
        free_nodes_.pop_back();
        return idx;
    }
    if ((node_count_ & (kChunkSize - 1)) == 0)
        chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    return node_count_++;
}

uint32_t
EventQueue::make_node(Callback cb)
{
    uint32_t idx = alloc_node();
    node(idx).cb = std::move(cb);
    return idx;
}

void
EventQueue::place_node(TimePs when, uint32_t idx)
{
    assert(when >= now_ && "scheduling into the past");
    if (when < now_)
        when = now_; // clamp: runs this tick, after same-tick events
    Node& nd = node(idx);
    nd.when = when;
    nd.seq = next_seq_++;
    ++pending_;
    // A time inside the bucket currently being drained (including a
    // past time just clamped to now) merges into the drain list by
    // position, so it still runs after every previously scheduled
    // same-tick event and before any later-tick one.
    if (drain_active() && when < drain_end_) {
        drain_insert(when, nd.seq, idx);
        return;
    }
    file_node(when, idx);
}

void
EventQueue::drain_insert(TimePs when, uint64_t seq, uint32_t idx)
{
    // seq is the largest outstanding, so ordering within equal when is
    // by position alone: insert after every entry with when' <= when.
    auto it = std::upper_bound(
        drain_.begin() + long(drain_pos_), drain_.end(), when,
        [](TimePs w, const Ready& r) { return w < r.when; });
    drain_.insert(it, Ready{when, seq, idx});
}

void
EventQueue::append_slot(Level& lv, uint32_t slot, uint32_t idx)
{
    Node& nd = node(idx);
    nd.next = kNil;
    auto& [head, tail] = lv.slots[slot];
    if (tail == kNil)
        head = idx;
    else
        node(tail).next = idx;
    tail = idx;
    lv.words[slot >> 6] |= uint64_t(1) << (slot & 63);
    lv.summary |= uint64_t(1) << (slot >> 6);
}

void
EventQueue::file_node(TimePs when, uint32_t idx)
{
    // Clamped or cursor-lagging times (run_until may leave now()
    // behind the wheel cursor) file at the cursor's own bucket; the
    // stored when still orders the drain, so nothing reorders.
    TimePs pos = when < wheel_pos_ ? wheel_pos_ : when;
    if (memo_valid_) {
        TimePs key =
            pos >> (kGranularityShift + memo_level_ * kSlotBits);
        if (key == memo_key_) {
            append_slot(levels_[memo_level_], memo_slot_, idx);
            return;
        }
    }
    uint64_t x = (pos ^ wheel_pos_) >> kGranularityShift;
    unsigned level = 0;
    if (x != 0) {
        unsigned msb = 63u - unsigned(__builtin_clzll(x));
        level = msb / kSlotBits;
    }
    if (level >= kLevels) {
        node(idx).next = kNil;
        overflow_.push_back(idx);
        ++wheel_stats_.overflow_filed;
        return;
    }
    uint32_t slot = slot_of(pos, level);
    append_slot(levels_[level], slot, idx);
    memo_valid_ = true;
    memo_level_ = level;
    memo_slot_ = slot;
    memo_key_ = pos >> (kGranularityShift + level * kSlotBits);
}

namespace {

/** First set slot index >= from, or kNotFound. */
constexpr uint32_t kNotFound = 0xffffffffu;

} // namespace

static uint32_t
find_from(const std::array<uint64_t, EventQueue::kSlots / 64>& words,
          uint64_t summary, uint32_t from)
{
    uint32_t w = from >> 6;
    uint64_t word = words[w] & (~uint64_t(0) << (from & 63));
    if (word)
        return (w << 6) + uint32_t(__builtin_ctzll(word));
    if (w + 1 >= EventQueue::kSlots / 64)
        return kNotFound;
    uint64_t rest = summary & (~uint64_t(0) << (w + 1));
    if (!rest)
        return kNotFound;
    w = uint32_t(__builtin_ctzll(rest));
    return (w << 6) + uint32_t(__builtin_ctzll(words[w]));
}

bool
EventQueue::advance()
{
    drain_.clear();
    drain_pos_ = 0;
    memo_valid_ = false;
    for (;;) {
        uint32_t s0 =
            find_from(levels_[0].words, levels_[0].summary,
                      slot_of(wheel_pos_, 0));
        if (s0 != kNotFound) {
            fill_drain(s0);
            return true;
        }
        unsigned k = 1;
        for (; k < kLevels; ++k) {
            uint32_t from = slot_of(wheel_pos_, k) + 1;
            uint32_t sk =
                from >= kSlots
                    ? kNotFound
                    : find_from(levels_[k].words, levels_[k].summary,
                                from);
            if (sk != kNotFound) {
                cascade(k, sk);
                break;
            }
        }
        if (k == kLevels && !refile_overflow())
            return false;
    }
}

void
EventQueue::fill_drain(uint32_t slot)
{
    Level& lv = levels_[0];
    auto [head, tail] = lv.slots[slot];
    lv.slots[slot] = {kNil, kNil};
    lv.words[slot >> 6] &= ~(uint64_t(1) << (slot & 63));
    if (lv.words[slot >> 6] == 0)
        lv.summary &= ~(uint64_t(1) << (slot >> 6));
    (void)tail;

    bool sorted = true;
    TimePs prev_when = 0;
    for (uint32_t idx = head; idx != kNil; idx = node(idx).next) {
        Node& nd = node(idx);
        sorted &= nd.when >= prev_when;
        prev_when = nd.when;
        drain_.push_back(Ready{nd.when, nd.seq, idx});
    }
    // The chain is already in seq order (appends and cascades both
    // preserve it), so non-decreasing whens mean the chain is already
    // in exact total order — the common case (most buckets hold one
    // timestamp). Otherwise: seq is unique, so an unstable sort keyed
    // on {when, seq} yields the exact total order — and std::sort,
    // unlike std::stable_sort, never allocates a merge buffer (this
    // runs once per drained bucket, the engine's hottest loop).
    if (!sorted)
        std::sort(drain_.begin(), drain_.end(),
                  [](const Ready& a, const Ready& b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.seq < b.seq;
                  });

    constexpr unsigned span = kGranularityShift + kSlotBits;
    TimePs base = (wheel_pos_ >> span) << span;
    TimePs start = base + (TimePs(slot) << kGranularityShift);
    if (wheel_pos_ < start)
        wheel_pos_ = start;
    drain_end_ = start + (TimePs(1) << kGranularityShift);

    ++wheel_stats_.bucket_drains;
    wheel_stats_.drained_events += drain_.size();
    if (drain_.size() > wheel_stats_.max_bucket)
        wheel_stats_.max_bucket = drain_.size();
}

void
EventQueue::cascade(unsigned level, uint32_t slot)
{
    memo_valid_ = false;
    Level& lv = levels_[level];
    auto [head, tail] = lv.slots[slot];
    lv.slots[slot] = {kNil, kNil};
    lv.words[slot >> 6] &= ~(uint64_t(1) << (slot & 63));
    if (lv.words[slot >> 6] == 0)
        lv.summary &= ~(uint64_t(1) << (slot >> 6));
    (void)tail;

    const unsigned shift = kGranularityShift + level * kSlotBits;
    TimePs base = (wheel_pos_ >> (shift + kSlotBits))
                  << (shift + kSlotBits);
    wheel_pos_ = base + (TimePs(slot) << shift);

    ++wheel_stats_.cascades;
    // Re-file in chain (= seq) order; every event lands at a strictly
    // lower level because it shares this slot's prefix with the new
    // cursor.
    uint32_t idx = head;
    while (idx != kNil) {
        uint32_t next = node(idx).next;
        ++wheel_stats_.cascaded_events;
        file_node(node(idx).when, idx);
        idx = next;
    }
}

bool
EventQueue::refile_overflow()
{
    if (overflow_.empty())
        return false;
    memo_valid_ = false;
    TimePs min_when = node(overflow_[0]).when;
    for (uint32_t idx : overflow_)
        min_when = std::min(min_when, node(idx).when);
    wheel_pos_ = min_when; // monotonic: beyond every drained horizon
    std::vector<uint32_t> keep;
    for (uint32_t idx : overflow_) {
        if ((node(idx).when >> kHorizonShift) ==
            (min_when >> kHorizonShift)) {
            ++wheel_stats_.overflow_refiled;
            file_node(node(idx).when, idx);
        } else {
            keep.push_back(idx);
        }
    }
    overflow_.swap(keep);
    return true;
}

void
EventQueue::schedule_batch(TimePs when, Callback* cbs, size_t n)
{
    // After the first element files, the last-bucket memo lets the
    // rest append to the same slot without a level search.
    for (size_t i = 0; i < n; ++i)
        place_node(when, make_node(std::move(cbs[i])));
}

uint64_t
EventQueue::run_wheel(bool bounded, TimePs deadline)
{
    uint64_t executed = 0;
    for (;;) {
        if (!drain_active()) {
            if (pending_ == 0 || !advance())
                break;
        }
        const Ready r = drain_[drain_pos_];
        if (bounded && r.when > deadline)
            break;
        ++drain_pos_;
        --pending_;
        now_ = r.when;
        Node& nd = node(r.node);
        nd.cb.invoke_and_dispose();
        free_nodes_.push_back(r.node);
        ++executed;
        ++executed_total_;
    }
    if (!drain_active()) {
        drain_.clear();
        drain_pos_ = 0;
    }
    return executed;
}

uint64_t
EventQueue::run()
{
    return run_wheel(false, 0);
}

uint64_t
EventQueue::run_until(TimePs deadline)
{
    uint64_t executed = run_wheel(true, deadline);
    if (now_ < deadline)
        now_ = deadline;
    return executed;
}

void
EventQueue::clear()
{
    for (Level& lv : levels_) {
        if (lv.summary == 0)
            continue;
        for (uint32_t w = 0; w < kSlots / 64; ++w) {
            uint64_t word = lv.words[w];
            while (word) {
                uint32_t slot =
                    (w << 6) + uint32_t(__builtin_ctzll(word));
                word &= word - 1;
                uint32_t idx = lv.slots[slot].first;
                while (idx != kNil) {
                    uint32_t next = node(idx).next;
                    release_node(idx);
                    idx = next;
                }
                lv.slots[slot] = {kNil, kNil};
            }
            lv.words[w] = 0;
        }
        lv.summary = 0;
    }
    for (size_t i = drain_pos_; i < drain_.size(); ++i)
        release_node(drain_[i].node);
    drain_.clear();
    drain_pos_ = 0;
    for (uint32_t idx : overflow_)
        release_node(idx);
    overflow_.clear();
    memo_valid_ = false;
    pending_ = 0;
}

} // namespace fld::sim
