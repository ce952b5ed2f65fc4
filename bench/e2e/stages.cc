#include "stages.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fld::e2e {

namespace {

constexpr sim::TimePs kUnset = std::numeric_limits<sim::TimePs>::max();
constexpr uint32_t kRingMask = 0xffff; ///< Wqe::wqe_index is 16 bits

bool
is(const char* detail, std::string_view want)
{
    return detail && want == detail;
}

} // namespace

StageJoiner::QueueTimes::QueueTimes()
    : db(kRingMask + 1, kUnset), fetch(kRingMask + 1, kUnset)
{
}

StageJoiner::StageJoiner(std::string client_nic, std::string server_nic)
    : client_(std::move(client_nic)), server_(std::move(server_nic))
{
}

StageJoiner::Side
StageJoiner::side_of(std::string_view actor) const
{
    auto owned_by = [&](const std::string& nic) {
        return actor.substr(0, nic.size()) == nic &&
               (actor.size() == nic.size() ||
                actor.substr(nic.size()) == ".uplink");
    };
    if (owned_by(client_))
        return kClient;
    if (owned_by(server_))
        return kServer;
    return kNone;
}

StageJoiner::QueueTimes&
StageJoiner::queue(std::string_view actor, uint32_t q)
{
    return queues_[{std::string(actor), q}];
}

void
StageJoiner::stamp(uint64_t corr, size_t dir, Stamp s, sim::TimePs t)
{
    if (corr == 0)
        return;
    auto [it, fresh] = live_.try_emplace(corr);
    if (fresh)
        for (auto& d : it->second)
            d.fill(kUnset);
    sim::TimePs& slot = it->second[dir][s];
    if (slot == kUnset) // first sighting wins (duplicates are faults)
        slot = t;
}

void
StageJoiner::finish(uint64_t corr)
{
    auto it = live_.find(corr);
    if (it == live_.end())
        return;
    ++echoed_;
    const Stamps& st = it->second;
    std::array<std::array<uint32_t, 6>, 2> d{};
    bool whole = true;
    for (size_t dir = 0; dir < 2 && whole; ++dir) {
        for (size_t s = 0; s < kStages.size(); ++s) {
            sim::TimePs a = st[dir][s], b = st[dir][s + 1];
            if (a == kUnset || b == kUnset || b < a ||
                b - a > std::numeric_limits<uint32_t>::max()) {
                whole = false;
                break;
            }
            d[dir][s] = uint32_t(b - a);
        }
    }
    if (whole) {
        ++complete_;
        for (size_t dir = 0; dir < 2; ++dir)
            for (size_t s = 0; s < kStages.size(); ++s) {
                samples_[dir][s].push_back(d[dir][s]);
                sorted_[dir][s] = false;
            }
    }
    live_.erase(it);
}

void
StageJoiner::consume(const std::vector<sim::TraceEvent>& events)
{
    using K = sim::TraceEventKind;
    for (const sim::TraceEvent& e : events) {
        std::string_view actor(e.actor);
        Side side = side_of(actor);
        if (side == kNone)
            continue;
        // Direction of the frame an event belongs to: the side that
        // sends it (payload read, wire tx) or receives it (the rest).
        size_t sent_by = side == kClient ? 0 : 1;
        size_t recv_by = side == kServer ? 0 : 1;
        switch (e.kind) {
          case K::DoorbellWrite: {
            bool inline_wqe = is(e.detail, "sq_inline");
            if (!inline_wqe && !is(e.detail, "sq"))
                break;
            QueueTimes& q = queue(actor, e.queue);
            uint32_t published = e.index - q.pi; // wraps with the counter
            if (published <= kRingMask + 1)
                for (uint32_t k = 0; k < published; ++k)
                    q.db[(q.pi + k) & kRingMask] = e.time;
            q.pi = e.index;
            // An inline WQE needs no fetch; a later ring fetch of the
            // same slot (the NIC's fallback) overrides this.
            if (inline_wqe)
                q.fetch[(e.index - 1) & kRingMask] = e.time;
            break;
          }
          case K::WqeFetch: {
            if (!is(e.detail, "sq"))
                break;
            QueueTimes& q = queue(actor, e.queue);
            for (uint32_t k = 0; k < e.count && k <= kRingMask; ++k)
                q.fetch[(e.index + k) & kRingMask] = e.time;
            break;
          }
          case K::PayloadRead: {
            if (e.corr == 0 || !is(e.detail, "eth"))
                break;
            const QueueTimes& q = queue(actor, e.queue);
            uint32_t slot = e.index & kRingMask;
            if (q.db[slot] != kUnset)
                stamp(e.corr, sent_by, kDb, q.db[slot]);
            if (q.fetch[slot] != kUnset)
                stamp(e.corr, sent_by, kFetch, q.fetch[slot]);
            stamp(e.corr, sent_by, kPayload, e.time);
            break;
          }
          case K::WireTx:
            stamp(e.corr, sent_by, kWireTx, e.time);
            break;
          case K::WireRx:
            stamp(e.corr, recv_by, kWireRx, e.time);
            break;
          case K::PayloadWrite:
            if (is(e.detail, "eth"))
                stamp(e.corr, recv_by, kDma, e.time);
            break;
          case K::CqeWrite:
            if (e.corr == 0 ||
                !(is(e.detail, "Rx") || is(e.detail, "RxMini")))
                break;
            stamp(e.corr, recv_by, kCqe, e.time);
            if (side == kClient)
                finish(e.corr);
            break;
          default:
            break;
        }
    }
}

double
StageJoiner::coverage() const
{
    return echoed_ ? double(complete_) / double(echoed_) : 0.0;
}

double
StageJoiner::quantile_us(size_t dir, size_t stage, double q)
{
    std::vector<uint32_t>& v = samples_[dir][stage];
    if (v.empty())
        return std::nan("");
    if (!sorted_[dir][stage]) {
        std::sort(v.begin(), v.end());
        sorted_[dir][stage] = true;
    }
    double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
    size_t lo = size_t(pos);
    double frac = pos - double(lo);
    double ps = double(v[lo]);
    if (lo + 1 < v.size())
        ps += frac * (double(v[lo + 1]) - double(v[lo]));
    return ps * 1e-6;
}

} // namespace fld::e2e
