#include "driver/host.h"

#include <algorithm>

#include "util/logging.h"

namespace fld::driver {

HostNode::HostNode(std::string name, sim::EventQueue& eq, HostConfig cfg)
    : name_(std::move(name)), eq_(eq), cfg_(cfg), rng_(cfg.seed)
{}

sim::TimePs
HostNode::core_start(uint32_t core, sim::TimePs cost)
{
    if (core >= kHostCores)
        fatal("%s: core %u out of range", name_.c_str(), core);

    sim::TimePs start = std::max(eq_.now(), busy_until_[core]);
    // OS interference: the scheduler occasionally takes the core away.
    if (cfg_.jitter_prob > 0 && rng_.chance(cfg_.jitter_prob)) {
        start += cfg_.jitter_min +
                 sim::TimePs(rng_.exponential(
                     double(cfg_.jitter_mean_extra)));
    }
    busy_until_[core] = start + cost;
    busy_time_[core] += cost;
    return busy_until_[core];
}

} // namespace fld::driver
