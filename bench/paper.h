/**
 * @file
 * The run functions behind bench_paper's row table: one per table,
 * figure or case study of the paper's evaluation.
 *
 * A run function prints the tables the paper reports, with the paper's
 * value next to the reproduced one wherever the paper gives a number,
 * and adds every simulated or model value it prints to the report as
 * an `exact` row (named relative to the row: `fld.p999_us` under row
 * `table6` reads `table6.fld.p999_us`). Values that move with the
 * source tree rather than the model (Table 4's line counts) are `none`
 * rows. The run functions live in files grouped by what they run.
 */
#ifndef FLD_BENCH_PAPER_H
#define FLD_BENCH_PAPER_H

#include <string>

#include "bench/bench_util.h"

namespace fld::bench::paper {

/** What a row's run function writes to. */
struct Run
{
    Report report;
    /** Worker threads for a row's independent sweep points. */
    unsigned jobs = 1;
    /** Set by a row that could not produce its values or whose oracle
     *  tripped (it says why on stderr); bench_paper then exits 1. */
    bool failed = false;
};

// Model-only rows (paper_model.cc).
void table1(Run& run);
void table2(Run& run);
void table3(Run& run);
void figure4(Run& run);
void table4(Run& run);
void table5(Run& run);
void figure7a(Run& run);

// Ethernet echo rows (paper_echo.cc).
void figure7b(Run& run);
void table6(Run& run);
/** Two short traced exchanges with their causal invariants checked;
 *  the fault-free one is written to @p path as Chrome trace JSON.
 *  Returns the exit code: 1 on a violation or an unwritable file. */
int trace_smoke(const std::string& path);

// FLD-R and ZUC rows (paper_fldr.cc).
/** Achieved rate and latency of one load point. */
struct LoadPoint
{
    double achieved_gbps, median_us, p99_us;
};
/** FLD-R echo of @p msg_bytes messages, measured from 1 ms in to
 *  @p duration: open loop at @p offered_gbps, or with 0, a closed loop
 *  of 64 in flight. */
LoadPoint run_fldr_echo(bool remote, size_t msg_bytes, double offered_gbps,
                        sim::TimePs duration);
void figure7c(Run& run);
void figure8a(Run& run);
void figure8b(Run& run);

// Case studies and extensions (paper_cases.cc).
void defrag(Run& run);
void iot_isolation(Run& run);
void ablation(Run& run);
void scaling(Run& run);

// Extensions beyond the paper's evaluation (paper_ext.cc).
void fastpath(Run& run);
void rpc(Run& run);
void flow_scale(Run& run);
void timer_churn(Run& run);

} // namespace fld::bench::paper

#endif // FLD_BENCH_PAPER_H
