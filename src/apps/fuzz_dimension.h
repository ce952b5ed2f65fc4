/**
 * @file
 * The fuzz-dimension table: one row per way fld_fuzz turns a seed into
 * a judged run.
 *
 * A row names the dimension (the `--<name>=N` flag, the progress label
 * and the replay hint `fld_fuzz --<name>=1 --seed0=S`), says how a
 * seed becomes its scenario (the generated scenario plus the row's
 * forcing), which shrink passes apply to a failing scenario, and how
 * the scenario is judged. The CLI, the parallel sweep and the tests
 * drive every dimension through the row alone, so a new dimension is
 * one row.
 */
#ifndef FLD_APPS_FUZZ_DIMENSION_H
#define FLD_APPS_FUZZ_DIMENSION_H

#include <cstdint>
#include <span>
#include <string_view>

#include "apps/churn_harness.h"
#include "apps/fuzz_runner.h"
#include "sim/fuzz.h"

namespace fld::apps {

struct FuzzDimension
{
    /** Flag name, progress label and replay-hint name. */
    const char* name;
    /** One line for the usage text. */
    const char* help;
    /** Forces the dimension onto a generated scenario; null keeps the
     *  generator's natural mix. Every seed carries valid draws for
     *  every dimension, so any seed can be forced. */
    void (*force)(sim::FuzzScenario& s);
    /** Shrink passes for a failing scenario (empty: no shrinking). */
    std::span<const sim::ShrinkPass> (*shrink_passes)(
        const sim::FuzzScenario& s);
    /** Judges one scenario. */
    FuzzVerdict (*run)(FuzzRunner& runner, const sim::FuzzScenario& s);

    /** The scenario for @p seed: generated, then forced. */
    sim::FuzzScenario scenario(uint64_t seed) const;
};

/** Every dimension, the natural mix (`seeds`) first. */
std::span<const FuzzDimension> fuzz_dimensions();

/** The row named @p name, or nullptr. */
const FuzzDimension* find_fuzz_dimension(std::string_view name);

/** The churn dimension's control-plane scenario: geometry, fault mix
 *  and traffic shape all derive from the seed. */
ChurnHarnessConfig churn_scenario(uint64_t seed);

/** Runs @p cfg for four times its target population, as the churn
 *  row does. */
ChurnReport run_churn(const ChurnHarnessConfig& cfg);

} // namespace fld::apps

#endif // FLD_APPS_FUZZ_DIMENSION_H
