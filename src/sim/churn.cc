#include "sim/churn.h"

#include <cmath>

namespace fld::sim {

namespace {
/** splitmix64 finalizer: serial -> well-mixed 64-bit flow key. */
uint64_t
mix(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}
} // namespace

ChurnGen::ChurnGen(ChurnConfig cfg) : cfg_(cfg), rng_(cfg.seed)
{
    if (cfg_.tenants == 0)
        cfg_.tenants = 1;
    if (cfg_.flows_per_tenant == 0)
        cfg_.flows_per_tenant = 1;
    if (cfg_.max_bytes < kChurnMinBytes)
        cfg_.max_bytes = kChurnMinBytes;
    live_.reserve(target_population());
}

ChurnEvent
ChurnGen::open_new()
{
    uint64_t serial = next_serial_++;
    // Round-robin tenants during the ramp so every tenant reaches its
    // quota; afterwards replacements keep the assignment uniform.
    uint16_t tenant = uint16_t(serial % cfg_.tenants);
    uint64_t key = mix(serial + (cfg_.seed << 17) + 0x51ull);
    live_.push_back({key, tenant});
    return {now_, ChurnOp::Open, key, tenant, 0, false};
}

size_t
ChurnGen::pick_live()
{
    // Approximate Zipf: rank = N * u^(1+skew) concentrates picks on
    // low ranks; flows keep their slot index for their lifetime so
    // low-index (old) flows become the elephants.
    double u = rng_.uniform_double();
    double r = std::pow(u, 1.0 + cfg_.skew);
    size_t idx = size_t(r * double(live_.size()));
    return idx < live_.size() ? idx : live_.size() - 1;
}

ChurnEvent
ChurnGen::next()
{
    now_ += kChurnSpacing;
    if (!ramped_) {
        ChurnEvent ev = open_new();
        if (live_.size() >= target_population())
            ramped_ = true;
        return ev;
    }

    // Steady phase: optional faults first, then the regular mix.
    if (cfg_.dup_open_prob > 0 && rng_.chance(cfg_.dup_open_prob) &&
        !live_.empty()) {
        const LiveFlow& f = live_[pick_live()];
        return {now_, ChurnOp::Open, f.key, f.tenant, 0, true};
    }
    if (cfg_.stray_close_prob > 0 &&
        rng_.chance(cfg_.stray_close_prob)) {
        // A key no open_new() ever produced (different salt).
        uint64_t key = mix(rng_.next()) | (1ull << 63);
        return {now_, ChurnOp::Close, key, 0, 0, true};
    }

    if (!rng_.chance(cfg_.packet_fraction) || live_.empty()) {
        if (close_next_ && !live_.empty()) {
            close_next_ = false;
            size_t idx = rng_.uniform(live_.size());
            ChurnEvent ev{now_, ChurnOp::Close, live_[idx].key,
                          live_[idx].tenant, 0, false};
            live_[idx] = live_.back();
            live_.pop_back();
            return ev;
        }
        close_next_ = true;
        return open_new();
    }

    const LiveFlow& f = live_[pick_live()];
    uint32_t bytes = uint32_t(rng_.range(kChurnMinBytes, cfg_.max_bytes));
    return {now_, ChurnOp::Packet, f.key, f.tenant, bytes, false};
}

} // namespace fld::sim
