#include "fld/sketch.h"

#include <algorithm>
#include <limits>

#include "sim/fuzz.h" // fnv1a64_u64
#include "util/bitops.h"
#include "util/logging.h"

namespace fld::core {

namespace {
/** splitmix64 finalizer — same mixer the cuckoo banks use. */
uint64_t
mix(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}
} // namespace

HeavyHitterSketch::HeavyHitterSketch(SketchConfig cfg) : cfg_(cfg)
{
    if (cfg_.width == 0 || cfg_.depth == 0)
        fatal("HeavyHitterSketch: width and depth must be positive");
    if (!is_pow2(cfg_.width))
        fatal("HeavyHitterSketch: width must be a power of two");
    rows_.assign(size_t(cfg_.depth) * cfg_.width, 0);
    top_.reserve(cfg_.topk);
}

size_t
HeavyHitterSketch::cell(uint32_t row, uint64_t key) const
{
    uint64_t h =
        mix(key + cfg_.seed + uint64_t(row) * 0x9e3779b97f4a7c15ull);
    return size_t(row) * cfg_.width + size_t(h & (cfg_.width - 1));
}

void
HeavyHitterSketch::update(uint64_t key, uint64_t weight)
{
    constexpr uint32_t kSat = std::numeric_limits<uint32_t>::max();
    uint64_t est = std::numeric_limits<uint64_t>::max();
    for (uint32_t r = 0; r < cfg_.depth; ++r) {
        uint32_t& c = rows_[cell(r, key)];
        // Saturating 32-bit counters, as hardware would implement.
        uint64_t next = uint64_t(c) + weight;
        c = next > kSat ? kSat : uint32_t(next);
        est = std::min<uint64_t>(est, c);
    }
    total_weight_ += weight;
    ++updates_;

    // Tail flows (estimate below the candidate floor) exit O(1) here;
    // only potential heavy hitters pay the O(k) table walk.
    if (cfg_.topk == 0)
        return;
    if (top_.size() == cfg_.topk && est <= top_min_) {
        // Still need to refresh an entry we already track.
        for (TopEntry& e : top_) {
            if (e.key == key) {
                e.estimate = est;
                return;
            }
        }
        return;
    }
    offer_candidate(key, est);
}

void
HeavyHitterSketch::offer_candidate(uint64_t key, uint64_t est)
{
    TopEntry* min_entry = nullptr;
    for (TopEntry& e : top_) {
        if (e.key == key) {
            e.estimate = est;
            if (top_.size() == cfg_.topk) {
                top_min_ = est;
                for (const TopEntry& t : top_)
                    top_min_ = std::min(top_min_, t.estimate);
            }
            return;
        }
        if (!min_entry || e.estimate < min_entry->estimate)
            min_entry = &e;
    }
    if (top_.size() < cfg_.topk) {
        top_.push_back({key, est});
        if (top_.size() == cfg_.topk) {
            top_min_ = top_.front().estimate;
            for (const TopEntry& t : top_)
                top_min_ = std::min(top_min_, t.estimate);
        }
        return;
    }
    // Evict the lightest candidate (classic count-min + heap scheme).
    *min_entry = {key, est};
    top_min_ = top_.front().estimate;
    for (const TopEntry& t : top_)
        top_min_ = std::min(top_min_, t.estimate);
}

uint64_t
HeavyHitterSketch::estimate(uint64_t key) const
{
    uint64_t est = std::numeric_limits<uint64_t>::max();
    for (uint32_t r = 0; r < cfg_.depth; ++r)
        est = std::min<uint64_t>(est, rows_[cell(r, key)]);
    return est;
}

std::vector<HeavyHitterSketch::TopEntry>
HeavyHitterSketch::top() const
{
    std::vector<TopEntry> out = top_;
    std::sort(out.begin(), out.end(),
              [](const TopEntry& a, const TopEntry& b) {
                  return a.estimate != b.estimate
                             ? a.estimate > b.estimate
                             : a.key < b.key;
              });
    return out;
}

void
HeavyHitterSketch::clear()
{
    std::fill(rows_.begin(), rows_.end(), 0u);
    top_.clear();
    top_min_ = 0;
    total_weight_ = 0;
    updates_ = 0;
}

size_t
HeavyHitterSketch::memory_bytes() const
{
    return size_t(cfg_.depth) * cfg_.width * 4 +
           size_t(cfg_.topk) * 16;
}

uint64_t
HeavyHitterSketch::state_hash() const
{
    uint64_t h = sim::kFnvBasis;
    for (uint32_t c : rows_)
        h = sim::fnv1a64_u64(c, h);
    for (const TopEntry& e : top()) { // sorted: order-independent
        h = sim::fnv1a64_u64(e.key, h);
        h = sim::fnv1a64_u64(e.estimate, h);
    }
    return h;
}

} // namespace fld::core
