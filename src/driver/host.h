/**
 * @file
 * Host CPU model.
 *
 * Cores are serial servers with per-packet/per-byte processing costs
 * and rare OS-interference delays. This is the substitution for the
 * paper's Haswell/CentOS hosts: absolute costs are calibrated against
 * numbers the paper reports (see HostConfig comments), and the
 * experiments depend on the *mechanisms* (single-core bottlenecks,
 * tail jitter), not on the exact constants.
 */
#ifndef FLD_DRIVER_HOST_H
#define FLD_DRIVER_HOST_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace fld::driver {

/** Cores per host, each a serial server. Chosen here. */
constexpr uint32_t kHostCores = 16;

struct HostConfig
{
    /**
     * DPDK-style driver cost per packet on one side (rx or tx).
     * Calibrated so a single-core testpmd echo forwards ~9.6 Mpps on
     * the IMC mix (§8.1.1): rx + tx ~ 104 ns/packet.
     */
    sim::TimePs rx_packet_cost = sim::nanoseconds(52);
    sim::TimePs tx_packet_cost = sim::nanoseconds(52);

    /** Copy/checksum cost per byte (software checksum paths). */
    sim::TimePs per_byte_cost = 0;

    /**
     * OS interference: with probability jitter_prob a work item is
     * delayed by jitter_min plus an exponential tail. Calibrated to
     * Table 6's CPU 99.9th percentile (11.18 us vs a 2.34 us median).
     */
    double jitter_prob = 0.0015;
    sim::TimePs jitter_min = sim::microseconds(4);
    sim::TimePs jitter_mean_extra = sim::microseconds(3);

    uint64_t seed = 12345;
};

/** A host with kHostCores serial cores. */
class HostNode
{
  public:
    HostNode(std::string name, sim::EventQueue& eq, HostConfig cfg = {});

    const HostConfig& config() const { return cfg_; }
    uint32_t cores() const { return kHostCores; }

    /**
     * Run @p cost of work on @p core, then call @p fn. Work on one
     * core is strictly serial; OS jitter may inflate the latency.
     * The callable goes straight into the event queue's node pool
     * (no std::function wrapper, no heap allocation on the hot path).
     */
    template <typename F>
    void run_on_core(uint32_t core, sim::TimePs cost, F&& fn)
    {
        eq_.schedule_at(core_start(core, cost),
                        std::forward<F>(fn));
    }

    /** When the core becomes free (>= now when busy). */
    sim::TimePs core_free_at(uint32_t core) const
    {
        return busy_until_[core];
    }

    /** Busy time accumulated per core (utilization accounting). */
    sim::TimePs core_busy_time(uint32_t core) const
    {
        return busy_time_[core];
    }

    /** Deterministic processing cost of a packet of @p bytes. */
    sim::TimePs packet_cost(size_t bytes, bool tx) const
    {
        return (tx ? cfg_.tx_packet_cost : cfg_.rx_packet_cost) +
               sim::TimePs(bytes) * cfg_.per_byte_cost;
    }

    const std::string& name() const { return name_; }

  private:
    /** Book the serial-core time (plus OS jitter) for one work item;
     *  returns the completion timestamp the callback fires at. */
    sim::TimePs core_start(uint32_t core, sim::TimePs cost);

    std::string name_;
    sim::EventQueue& eq_;
    HostConfig cfg_;
    std::array<sim::TimePs, kHostCores> busy_until_{};
    std::array<sim::TimePs, kHostCores> busy_time_{};
    Rng rng_;
};

} // namespace fld::driver

#endif // FLD_DRIVER_HOST_H
