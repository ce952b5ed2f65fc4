#include "apps/fuzz_sweep.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace fld::apps {

namespace {

constexpr uint64_t kNoFailure = std::numeric_limits<uint64_t>::max();

struct SweepState
{
    std::atomic<uint64_t> next_index{0};
    /** Lowest failing seed *index* seen so far; kNoFailure if clean.
     *  Workers stop claiming indices at or above this. */
    std::atomic<uint64_t> min_fail_index{kNoFailure};
    std::atomic<uint64_t> ran{0};
    std::mutex mu; ///< guards the three fields below + on_result
    uint64_t done = 0;
    sim::FuzzScenario failing_scenario;
    FuzzVerdict failing_verdict;
};

} // namespace

SweepResult
run_sweep(const SweepOptions& opt, const FuzzDimension& dim)
{
    SweepState st;
    const unsigned jobs = opt.jobs < 1 ? 1 : opt.jobs;
    const auto start = std::chrono::steady_clock::now();
    auto out_of_budget = [&] {
        if (opt.budget_sec <= 0)
            return false;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() >= opt.budget_sec;
    };

    auto worker = [&] {
        // Per-worker runner: private testbeds, RNGs and (thread-local)
        // tracer. Nothing here is shared.
        FuzzRunner runner(opt.run);
        for (;;) {
            uint64_t i =
                st.next_index.fetch_add(1, std::memory_order_relaxed);
            if (opt.budget_sec > 0) {
                if (out_of_budget())
                    return;
            } else if (i >= opt.seeds) {
                return;
            }
            // A lower seed already failed: anything we could find at
            // or above it cannot change the merged verdict.
            if (i >= st.min_fail_index.load(std::memory_order_acquire))
                return;

            uint64_t seed = opt.seed0 + i;
            sim::FuzzScenario s = dim.scenario(seed);
            FuzzVerdict v = opt.run_override ? opt.run_override(s)
                                             : dim.run(runner, s);
            st.ran.fetch_add(1, std::memory_order_relaxed);

            if (!v.ok) {
                // Keep the lowest failing index; ties are impossible
                // (each index is claimed exactly once).
                uint64_t prev = st.min_fail_index.load(
                    std::memory_order_acquire);
                while (i < prev &&
                       !st.min_fail_index.compare_exchange_weak(
                           prev, i, std::memory_order_acq_rel)) {
                }
                if (i < prev || prev == kNoFailure) {
                    std::lock_guard<std::mutex> lock(st.mu);
                    if (i <= st.min_fail_index.load(
                                 std::memory_order_acquire)) {
                        st.failing_scenario = s;
                        st.failing_verdict = v;
                    }
                }
            }
            if (opt.on_result) {
                std::lock_guard<std::mutex> lock(st.mu);
                opt.on_result(++st.done, seed, s, v);
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto& th : pool)
            th.join();
    }

    SweepResult r;
    r.ran = st.ran.load();
    uint64_t fail = st.min_fail_index.load();
    if (fail != kNoFailure) {
        r.found_failure = true;
        r.failing_seed = opt.seed0 + fail;
        r.failing_scenario = st.failing_scenario;
        r.failing_verdict = st.failing_verdict;
    }
    return r;
}

} // namespace fld::apps
