/**
 * @file
 * Simulator-throughput telemetry: how fast the discrete-event engine
 * itself runs, as opposed to what the simulated hardware achieves.
 *
 * A SimPerfSample pairs a wall-clock measurement around eq.run() with
 * the engine's lifetime counters (EventQueue::executed_total) and a
 * caller-supplied packet count, yielding events/sec, packets/sec and
 * the sim-time/wall-time ratio. SimPerfReport serializes samples as
 * JSON (BENCH_SIM_PERF.json) so CI can archive the numbers per commit
 * and regressions in simulator speed show up as a diffable artifact.
 *
 * Wall-clock time never feeds back into the simulation — telemetry is
 * observation only, so traced/golden runs stay bit-identical.
 */
#ifndef FLD_SIM_SIM_PERF_H
#define FLD_SIM_SIM_PERF_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace fld::sim {

struct SimPerfSample
{
    std::string name;      ///< e.g. "fld_echo_remote_256B"
    double wall_sec = 0;   ///< host seconds spent inside the run
    uint64_t events = 0;   ///< engine events executed during the run
    uint64_t packets = 0;  ///< packets delivered during the run
    TimePs sim_time = 0;   ///< simulated time the run advanced
    /** Timing-wheel telemetry for the run: bucket occupancy and
     *  cascade counts. Capture with take_wheel_stats(). */
    EventQueue::WheelStats wheel;

    /** Diff @p eq's lifetime wheel stats against @p start_of_run. */
    void take_wheel_stats(const EventQueue& eq,
                          const EventQueue::WheelStats& start_of_run)
    {
        const EventQueue::WheelStats& end = eq.wheel_stats();
        wheel.bucket_drains =
            end.bucket_drains - start_of_run.bucket_drains;
        wheel.drained_events =
            end.drained_events - start_of_run.drained_events;
        wheel.max_bucket = end.max_bucket;
        wheel.cascades = end.cascades - start_of_run.cascades;
        wheel.cascaded_events =
            end.cascaded_events - start_of_run.cascaded_events;
        wheel.overflow_filed =
            end.overflow_filed - start_of_run.overflow_filed;
        wheel.overflow_refiled =
            end.overflow_refiled - start_of_run.overflow_refiled;
    }

    double events_per_sec() const
    {
        return wall_sec > 0 ? double(events) / wall_sec : 0;
    }
    double packets_per_sec() const
    {
        return wall_sec > 0 ? double(packets) / wall_sec : 0;
    }
    /** Simulated seconds per wall second (>1 = faster than real time). */
    double sim_time_ratio() const
    {
        return wall_sec > 0 ? to_sec(sim_time) / wall_sec : 0;
    }
};

class SimPerfReport
{
  public:
    void add(SimPerfSample s) { samples_.push_back(std::move(s)); }
    const std::vector<SimPerfSample>& samples() const
    {
        return samples_;
    }

    /** The BENCH_SIM_PERF.json schema: {"samples": [{...}, ...]}. */
    std::string to_json() const;
    /** Write to_json() to @p path. Returns false on I/O error. */
    bool write_json(const std::string& path) const;

  private:
    std::vector<SimPerfSample> samples_;
};

} // namespace fld::sim

#endif // FLD_SIM_SIM_PERF_H
