/**
 * @file
 * Parallel sweep determinism: a seed range of any fuzz dimension swept
 * with --jobs=8 must produce exactly the per-seed verdicts and
 * transcripts of --jobs=1,
 * and the lowest-failing-seed merge must match what a serial sweep
 * stops at — including when the failure is found out of order.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "apps/fuzz_sweep.h"

namespace fld::apps {
namespace {

/** Sweep [seed0, seed0+n) of the @p dim row collecting per-seed
 *  transcript hashes. */
std::map<uint64_t, uint64_t>
sweep_hashes(unsigned jobs, uint64_t seed0, uint64_t n,
             const char* dim = "seeds")
{
    std::map<uint64_t, uint64_t> hashes;
    SweepOptions opt;
    opt.seed0 = seed0;
    opt.seeds = n;
    opt.jobs = jobs;
    opt.on_result = [&](uint64_t, uint64_t seed,
                        const sim::FuzzScenario&,
                        const FuzzVerdict& v) {
        hashes[seed] = v.transcript_hash;
        EXPECT_TRUE(v.ok) << "seed " << seed << ":\n" << v.transcript;
    };
    SweepResult r = run_sweep(opt, *find_fuzz_dimension(dim));
    EXPECT_FALSE(r.found_failure);
    EXPECT_EQ(r.ran, n);
    return hashes;
}

TEST(ParallelSweep, Jobs8MatchesJobs1PerSeedTranscripts)
{
    // The natural mix plus two forced rows: forcing happens per seed
    // inside the sweep, so it must be --jobs-invariant too.
    for (const char* dim : {"seeds", "conn", "pipeline"}) {
        SCOPED_TRACE(dim);
        auto serial = sweep_hashes(/*jobs=*/1, /*seed0=*/1, /*n=*/12, dim);
        auto parallel =
            sweep_hashes(/*jobs=*/8, /*seed0=*/1, /*n=*/12, dim);
        ASSERT_EQ(serial.size(), 12u);
        EXPECT_EQ(serial, parallel);
        for (const auto& [seed, hash] : serial)
            EXPECT_NE(hash, 0u) << "seed " << seed;
    }
}

TEST(ParallelSweep, RepeatedParallelSweepsAreBitIdentical)
{
    auto a = sweep_hashes(/*jobs=*/8, /*seed0=*/40, /*n=*/8);
    auto b = sweep_hashes(/*jobs=*/8, /*seed0=*/40, /*n=*/8);
    EXPECT_EQ(a, b);
}

/** Synthetic runner: seeds in `bad` fail, everything else passes. */
SweepOptions
synthetic_sweep(unsigned jobs, uint64_t seeds,
                std::vector<uint64_t> bad)
{
    SweepOptions opt;
    opt.seed0 = 1;
    opt.seeds = seeds;
    opt.jobs = jobs;
    opt.run_override =
        [bad = std::move(bad)](const sim::FuzzScenario& s) {
            FuzzVerdict v;
            v.transcript = "seed " + std::to_string(s.seed);
            v.transcript_hash = s.seed * 2654435761u;
            for (uint64_t b : bad)
                if (s.seed == b) {
                    v.ok = false;
                    v.violations = {"synthetic failure"};
                }
            return v;
        };
    return opt;
}

TEST(ParallelSweep, LowestFailingSeedWinsRegardlessOfJobs)
{
    // Several seeds fail; every jobs value must report the lowest one,
    // exactly like a serial sweep stopping at its first failure.
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepResult r =
            run_sweep(synthetic_sweep(jobs, 64, {57, 23, 41}));
        EXPECT_TRUE(r.found_failure) << "jobs=" << jobs;
        EXPECT_EQ(r.failing_seed, 23u) << "jobs=" << jobs;
        EXPECT_EQ(r.failing_scenario.seed, 23u) << "jobs=" << jobs;
        EXPECT_EQ(r.failing_verdict.transcript, "seed 23")
            << "jobs=" << jobs;
    }
}

TEST(ParallelSweep, WorkersStopClaimingPastAFailure)
{
    // With the failure at the very first seed, the sweep must not run
    // anywhere near the full range. Publication of the failure races
    // with other workers claiming seeds, so clean runs are slowed a
    // touch to keep the bound safe under sanitizers' scheduling.
    SweepOptions opt = synthetic_sweep(/*jobs=*/8, 4096, {1});
    auto inner = opt.run_override;
    opt.run_override = [inner](const sim::FuzzScenario& s) {
        FuzzVerdict v = inner(s);
        if (v.ok)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        return v;
    };
    SweepResult r = run_sweep(opt);
    EXPECT_TRUE(r.found_failure);
    EXPECT_EQ(r.failing_seed, 1u);
    EXPECT_LT(r.ran, 512u);
}

TEST(ParallelSweep, CleanRangeRunsEverySeedExactlyOnce)
{
    std::mutex mu;
    std::map<uint64_t, int> runs;
    SweepOptions opt = synthetic_sweep(/*jobs=*/8, 128, {});
    auto inner = opt.run_override;
    opt.run_override = [&](const sim::FuzzScenario& s) {
        {
            std::lock_guard<std::mutex> lock(mu);
            runs[s.seed]++;
        }
        return inner(s);
    };
    SweepResult r = run_sweep(opt);
    EXPECT_FALSE(r.found_failure);
    EXPECT_EQ(r.ran, 128u);
    ASSERT_EQ(runs.size(), 128u);
    for (const auto& [seed, count] : runs)
        EXPECT_EQ(count, 1) << "seed " << seed;
}

} // namespace
} // namespace fld::apps
