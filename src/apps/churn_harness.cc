#include "apps/churn_harness.h"

#include "sim/fuzz.h" // fnv1a64_u64
#include "util/bitops.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

constexpr const char* kActiveCat = "flow active state (24 B/flow)";
constexpr size_t kMaxViolations = 32;

core::FlowDirectoryConfig
resolve_directory(const ChurnHarnessConfig& cfg)
{
    core::FlowDirectoryConfig d = cfg.directory;
    if (d.flow_capacity == 0) {
        uint64_t target = uint64_t(cfg.churn.tenants) *
                          cfg.churn.flows_per_tenant;
        // Headroom over the steady population: churn overshoots by a
        // flow or two, and rejects are a violation, not a shrug.
        d.flow_capacity = round_up_pow2(target + target / 8 + 16);
    }
    if (d.tenants < cfg.churn.tenants)
        d.tenants = cfg.churn.tenants;
    return d;
}

} // namespace

ChurnHarness::ChurnHarness(ChurnHarnessConfig cfg)
    : cfg_(cfg), gen_(cfg.churn), dir_(resolve_directory(cfg))
{
    dir_.attach_budget(budget_);
    if (cfg_.tenant_rate_gbps > 0) {
        shapers_.assign(cfg_.churn.tenants,
                        sim::TokenBucket(cfg_.tenant_rate_gbps,
                                         cfg_.tenant_burst_bytes));
    }
    if (cfg_.shadow_oracle)
        shadow_.reserve(gen_.target_population());
}

void
ChurnHarness::apply(const sim::ChurnEvent& ev)
{
    tally_.events++;
    tally_.end_time = ev.time;
    auto violate = [&](std::string why) {
        if (tally_.violations.size() < kMaxViolations)
            tally_.violations.push_back(std::move(why));
    };

    switch (ev.op) {
    case sim::ChurnOp::Open: {
        if (ev.fault) {
            tally_.faults_injected++;
            if (dir_.open_flow(ev.key, ev.tenant))
                violate(strfmt("duplicate open of key %llx was "
                               "accepted",
                               (unsigned long long)ev.key));
            return;
        }
        if (dir_.open_flow(ev.key, ev.tenant)) {
            tally_.opens++;
            budget_.add(kActiveCat,
                        core::FlowDirectory::kFlowStateBytes);
            if (cfg_.shadow_oracle)
                shadow_.emplace(ev.key, ShadowFlow{ev.tenant});
        } else {
            tally_.rejects++;
            rejected_keys_.insert(ev.key);
        }
        return;
    }
    case sim::ChurnOp::Close: {
        if (ev.fault) {
            tally_.faults_injected++;
            if (dir_.close_flow(ev.key))
                violate(strfmt("stray close of key %llx was accepted",
                               (unsigned long long)ev.key));
            return;
        }
        if (rejected_keys_.erase(ev.key)) {
            if (dir_.close_flow(ev.key))
                violate("close of a rejected-open key succeeded");
            return;
        }
        if (!dir_.close_flow(ev.key)) {
            violate(strfmt("close of live key %llx failed",
                           (unsigned long long)ev.key));
            return;
        }
        tally_.closes++;
        if (!budget_.sub(kActiveCat,
                         core::FlowDirectory::kFlowStateBytes))
            violate("active-state budget underflowed on close");
        if (cfg_.shadow_oracle)
            shadow_.erase(ev.key);
        return;
    }
    case sim::ChurnOp::Packet: {
        if (rejected_keys_.count(ev.key))
            return;
        if (!shapers_.empty() &&
            !shapers_[ev.tenant % shapers_.size()].try_consume(
                ev.time, ev.bytes)) {
            tally_.shaped_drops++;
            return;
        }
        if (!dir_.record(ev.key, ev.bytes)) {
            violate(strfmt("record on live key %llx failed",
                           (unsigned long long)ev.key));
            return;
        }
        tally_.packets++;
        tally_.accepted_bytes += ev.bytes;
        if (cfg_.shadow_oracle) {
            ShadowFlow& sf = shadow_[ev.key];
            sf.packets++;
            sf.bytes += ev.bytes;
        }
        return;
    }
    }
}

void
ChurnHarness::ramp()
{
    while (!gen_.ramp_done())
        apply(gen_.next());
}

void
ChurnHarness::step(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        apply(gen_.next());
}

ChurnReport
ChurnHarness::report()
{
    ChurnReport r = tally_;
    r.final_live = dir_.size();
    auto violate = [&](std::string why) {
        if (r.violations.size() < kMaxViolations)
            r.violations.push_back(std::move(why));
    };

    // (c) Stat conservation.
    uint64_t open_sum = 0;
    for (const auto& ts : dir_.tenants())
        open_sum += ts.flows_open;
    if (open_sum != dir_.size())
        violate(strfmt("tenant open-flow sum %llu != directory size "
                       "%zu",
                       (unsigned long long)open_sum, dir_.size()));
    const auto& ds = dir_.stats();
    if (ds.opens != ds.closes + dir_.size())
        violate("opens != closes + live");

    // (a) Shadow equivalence.
    if (cfg_.shadow_oracle) {
        if (shadow_.size() != dir_.size())
            violate(strfmt("shadow size %zu != directory size %zu",
                           shadow_.size(), dir_.size()));
        for (const auto& [key, sf] : shadow_) {
            auto info = dir_.find(key);
            if (!info) {
                violate(strfmt("flow %llx lost by directory",
                               (unsigned long long)key));
                continue;
            }
            if (info->tenant != sf.tenant ||
                info->packets != sf.packets ||
                info->bytes != sf.bytes) {
                violate(strfmt("flow %llx diverged from shadow "
                               "(pkts %llu/%llu bytes %llu/%llu)",
                               (unsigned long long)key,
                               (unsigned long long)info->packets,
                               (unsigned long long)sf.packets,
                               (unsigned long long)info->bytes,
                               (unsigned long long)sf.bytes));
            }
            if (r.violations.size() >= kMaxViolations)
                break;
        }
    }

    // (d) Budget liveness + model reconciliation.
    uint64_t want_active =
        uint64_t(dir_.size()) * core::FlowDirectory::kFlowStateBytes;
    if (budget_.of(kActiveCat) != want_active)
        violate(strfmt("active-state budget %llu != live flows x 24 "
                       "= %llu",
                       (unsigned long long)budget_.of(kActiveCat),
                       (unsigned long long)want_active));
    if (budget_.underflows() != 0)
        violate("budget underflowed during churn");
    if (budget_.total() != dir_.memory_bytes() + want_active)
        violate("budget total != provisioned + active bytes");
    if (std::string why = dir_.reconcile_with_model(); !why.empty())
        violate(std::move(why));

    // Deterministic digest over everything externally observable.
    uint64_t h = sim::fnv1a64_u64(dir_.size());
    h = sim::fnv1a64_u64(ds.opens, h);
    h = sim::fnv1a64_u64(ds.closes, h);
    h = sim::fnv1a64_u64(ds.packets, h);
    h = sim::fnv1a64_u64(ds.bytes, h);
    for (const auto& ts : dir_.tenants()) {
        h = sim::fnv1a64_u64(ts.flows_open, h);
        h = sim::fnv1a64_u64(ts.packets, h);
        h = sim::fnv1a64_u64(ts.bytes, h);
    }
    r.state_hash = h;
    return r;
}

ChurnReport
ChurnHarness::run(uint64_t steady_events)
{
    ramp();
    step(steady_events);
    return report();
}

} // namespace fld::apps
