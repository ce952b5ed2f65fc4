#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace fld::sim {

void
Histogram::add(double sample)
{
    samples_.push_back(sample);
    sum_ += sample;
    sum_sq_ += sample * sample;
    sorted_valid_ = false;
}

double
Histogram::mean() const
{
    return samples_.empty() ? 0.0 : sum_ / double(samples_.size());
}

double
Histogram::min() const
{
    ensure_sorted();
    return samples_.empty() ? 0.0 : samples_.front();
}

double
Histogram::max() const
{
    ensure_sorted();
    return samples_.empty() ? 0.0 : samples_.back();
}

double
Histogram::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    double n = double(samples_.size());
    double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

double
Histogram::percentile(double pct) const
{
    ensure_sorted();
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    if (samples_.size() == 1)
        return samples_.front();
    double rank = pct / 100.0 * double(samples_.size() - 1);
    size_t lo = size_t(rank);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    double frac = rank - double(lo);
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double
Histogram::p(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    return percentile(q * 100.0);
}

void
Histogram::clear()
{
    samples_.clear();
    sorted_valid_ = false;
    sum_ = sum_sq_ = 0;
}

std::string
Histogram::summary() const
{
    return strfmt("n=%zu mean=%.3f p50=%.3f p99=%.3f p99.9=%.3f max=%.3f",
                  count(), mean(), percentile(50), percentile(99),
                  percentile(99.9), max());
}

std::string
FaultCounters::summary() const
{
    return strfmt("wire: frames=%llu drop=%llu corrupt=%llu dup=%llu "
                  "reorder=%llu | pcie: rd_delay=%llu rd_stall=%llu "
                  "db_jitter=%llu | accel: stall=%llu",
                  (unsigned long long)wire_frames,
                  (unsigned long long)wire_drops,
                  (unsigned long long)wire_corruptions,
                  (unsigned long long)wire_duplicates,
                  (unsigned long long)wire_reorders,
                  (unsigned long long)pcie_read_delays,
                  (unsigned long long)pcie_read_stalls,
                  (unsigned long long)pcie_doorbell_jitters,
                  (unsigned long long)accel_stalls);
}

std::string
ConservationLedger::check() const
{
    if (rx + accounted_losses + in_flight < tx)
        return strfmt("conservation violated: %llu frames vanished "
                      "unaccounted (%s)",
                      (unsigned long long)(tx - rx - accounted_losses -
                                           in_flight),
                      summary().c_str());
    if (rx > tx + duplicates)
        return strfmt("conservation violated: %llu frames conjured from "
                      "nothing (%s)",
                      (unsigned long long)(rx - tx - duplicates),
                      summary().c_str());
    return "";
}

std::string
ConservationLedger::summary() const
{
    return strfmt("tx=%llu rx=%llu losses=%llu dup=%llu inflight=%llu",
                  (unsigned long long)tx, (unsigned long long)rx,
                  (unsigned long long)accounted_losses,
                  (unsigned long long)duplicates,
                  (unsigned long long)in_flight);
}

void
Histogram::ensure_sorted() const
{
    if (!sorted_valid_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_valid_ = true;
    }
}

} // namespace fld::sim
