/**
 * @file
 * Parallel seed-sweep executor for the scenario fuzzer.
 *
 * Shards a contiguous seed range of one fuzz dimension (see
 * apps/fuzz_dimension.h) across a worker thread pool. Each worker owns
 * a private FuzzRunner (and thus its own testbeds, RNGs and
 * thread-local Tracer), so workers share nothing but the seed counter
 * and the merged result.
 *
 * Determinism contract: for a fixed seed range, the sweep's verdict is
 * identical for any --jobs value. Each seed's run is a pure function
 * of the seed; workers claim seed indices from an atomic counter and
 * report failures by *lowest index*, which is exactly the seed a
 * serial sweep would have stopped at. Workers stop claiming indices
 * above the lowest failure seen so far, so a parallel sweep does not
 * burn time past the answer. Only wall-clock ordering of progress
 * callbacks varies with jobs; verdicts, transcripts and artifacts do
 * not. Budget-bounded sweeps (budget_sec > 0) are the documented
 * exception: how many seeds fit in the budget is inherently
 * timing-dependent, so only per-seed results (not the count) are
 * stable.
 */
#ifndef FLD_APPS_FUZZ_SWEEP_H
#define FLD_APPS_FUZZ_SWEEP_H

#include <cstdint>
#include <functional>

#include "apps/fuzz_dimension.h"
#include "apps/fuzz_runner.h"
#include "sim/fuzz.h"

namespace fld::apps {

struct SweepOptions
{
    uint64_t seed0 = 1;
    uint64_t seeds = 100;
    /** > 0: stop claiming new seeds after this many wall-clock
     *  seconds instead of after `seeds` (soak mode). */
    double budget_sec = 0;
    /** Worker threads; clamped to at least 1. */
    unsigned jobs = 1;
    /** Per-worker runner configuration (each worker constructs its
     *  own FuzzRunner from this). */
    FuzzRunOptions run;
    /** Called under a mutex after every completed seed, in completion
     *  order (which varies with jobs; seed identity does not).
     *  `done` is the number of seeds completed so far. */
    std::function<void(uint64_t done, uint64_t seed,
                       const sim::FuzzScenario&, const FuzzVerdict&)>
        on_result;
    /** Test seam: when set, used instead of the dimension's run so
     *  merge logic can be exercised with synthetic failures. Must be
     *  thread-safe and a pure function of the scenario. */
    std::function<FuzzVerdict(const sim::FuzzScenario&)> run_override;
};

struct SweepResult
{
    /** Seeds actually run (may exceed the failing index: workers past
     *  it finish their current seed before stopping). */
    uint64_t ran = 0;
    bool found_failure = false;
    /** Lowest failing seed — identical to the seed a serial sweep
     *  stops at. Valid only when found_failure. */
    uint64_t failing_seed = 0;
    sim::FuzzScenario failing_scenario;
    FuzzVerdict failing_verdict;
};

/** Sweep @p dim's seeds. Blocks until all workers have joined. */
SweepResult run_sweep(const SweepOptions& opt,
                      const FuzzDimension& dim = fuzz_dimensions()[0]);

} // namespace fld::apps

#endif // FLD_APPS_FUZZ_SWEEP_H
