/**
 * @file
 * Measurement primitives: sample histograms with percentile extraction
 * and windowed byte/packet rate meters.
 */
#ifndef FLD_SIM_STATS_H
#define FLD_SIM_STATS_H

#include <cstdint>
#include <deque>
#include <string>

#include "sim/time.h"

namespace fld::sim {

/**
 * Collects raw samples and reports order statistics.
 *
 * The evaluation's latency tables (e.g., Table 6) need exact
 * mean/median/99th/99.9th percentiles, so samples are retained verbatim
 * rather than bucketed. Each sample is stored once: the deque grows in
 * fixed-size blocks without copying what it holds, and the first order
 * query after an add() sorts it in place (mean and stddev come from
 * running sums, so insertion order is never needed again).
 */
class Histogram
{
  public:
    void add(double sample);

    size_t count() const { return samples_.size(); }
    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;

    /**
     * Percentile in [0, 100]; linear interpolation between samples.
     * Returns quiet NaN when the histogram holds no samples — an
     * empty distribution has no percentiles, and NaN propagates
     * loudly instead of masquerading as a zero-latency measurement.
     */
    double percentile(double pct) const;
    double median() const { return percentile(50.0); }

    /**
     * Quantile for arbitrary q in [0, 1] (q is clamped), e.g. p(0.999)
     * for the 99.9th percentile. Same interpolation and empty-set NaN
     * semantics as percentile(); the two agree exactly at
     * p(q) == percentile(100 * q).
     */
    double p(double q) const;

    void clear();

    /** "mean=... p50=... p99=... p99.9=..." summary string. */
    std::string summary() const;

  private:
    void ensure_sorted() const;

    mutable std::deque<double> samples_; ///< sorted when sorted_valid_
    mutable bool sorted_valid_ = false;
    double sum_ = 0;
    double sum_sq_ = 0;
};

/**
 * Per-fault-source event counters, filled in by sim::FaultPlan as
 * injection decisions are drawn. Reliability tests assert recovery
 * behaviour (retransmits, deliveries) against these exact counts.
 */
struct FaultCounters
{
    // Ethernet wire (per frame).
    uint64_t wire_frames = 0;     ///< frames that consulted the plan
    uint64_t wire_drops = 0;
    uint64_t wire_corruptions = 0;
    uint64_t wire_duplicates = 0;
    uint64_t wire_reorders = 0;
    // PCIe fabric.
    uint64_t pcie_read_delays = 0;
    uint64_t pcie_read_stalls = 0;
    uint64_t pcie_doorbell_jitters = 0;
    // Accelerator units.
    uint64_t accel_stalls = 0;

    uint64_t wire_faults() const
    {
        return wire_drops + wire_corruptions + wire_duplicates +
               wire_reorders;
    }
    uint64_t total() const
    {
        return wire_faults() + pcie_read_delays + pcie_read_stalls +
               pcie_doorbell_jitters + accel_stalls;
    }

    /** "wire: drop=... corrupt=... | pcie: ... | accel: ..." line. */
    std::string summary() const;
};

/**
 * Packet-conservation ledger for one end-to-end run: every frame a
 * sender handed to the datapath must be delivered, sitting in flight,
 * or accounted for by a named loss counter. The fuzzer's fourth
 * oracle sums both NICs' drop counters, the fault plan's wire losses
 * and the drivers'/AFU's overload drops into `accounted_losses` and
 * asserts the inequalities below; in a fault-free, drop-free run they
 * collapse to the exact identity rx == tx.
 */
struct ConservationLedger
{
    uint64_t tx = 0;               ///< frames the sender(s) emitted
    uint64_t rx = 0;               ///< frames delivered to the sink(s)
    uint64_t accounted_losses = 0; ///< sum of every named drop counter
    uint64_t duplicates = 0;       ///< wire duplications (can inflate rx)
    uint64_t in_flight = 0;        ///< still queued when the run ended

    /**
     * Check tx = rx + drops + in-flight, as inequalities that stay
     * valid when retransmission re-injects frames: nothing may vanish
     * unaccounted (rx + losses + in_flight >= tx) and nothing may be
     * conjured (rx <= tx + duplicates). Returns a human-readable
     * violation description, or an empty string when conserved.
     */
    std::string check() const;

    /** "tx=... rx=... losses=... dup=... inflight=..." line. */
    std::string summary() const;
};

/** Accumulates bytes/packets over simulated time and reports rates. */
class RateMeter
{
  public:
    void record(TimePs now, uint64_t bytes)
    {
        if (count_ == 0)
            first_ = now;
        last_ = now;
        bytes_ += bytes;
        ++count_;
    }

    uint64_t bytes() const { return bytes_; }
    uint64_t packets() const { return count_; }

    /** Average goodput between an explicit start/end window. */
    double gbps(TimePs start, TimePs end) const
    {
        return end > start ? gbps_of(bytes_, end - start) : 0.0;
    }

    /** Average goodput over the observed first..last record window. */
    double gbps() const { return gbps(first_, last_); }

    /** Packet rate in Mpps over an explicit window. */
    double mpps(TimePs start, TimePs end) const
    {
        if (end <= start)
            return 0.0;
        return double(count_) / to_us(end - start);
    }

    void clear()
    {
        bytes_ = count_ = 0;
        first_ = last_ = 0;
    }

  private:
    uint64_t bytes_ = 0;
    uint64_t count_ = 0;
    TimePs first_ = 0;
    TimePs last_ = 0;
};

} // namespace fld::sim

#endif // FLD_SIM_STATS_H
