/**
 * @file
 * bench_paper: the paper's evaluation, one row per table, figure or
 * case study, driven by the static row table below.
 *
 * Each row prints the tables the paper reports and adds every
 * simulated or model value it prints to one bench::Report under its
 * row name (`table6.fld.p999_us`); the report is written to
 * BENCH_PAPER.json (--out=PATH), and --baseline=PATH exits 1 naming
 * every `exact` row that differs from bench/baselines/BENCH_PAPER.json.
 * A row that cannot produce its values exits 1 too.
 *
 *   --only=ROW    run one row (an unknown row lists the rows, exit 2)
 *   --jobs=N      worker threads for a row's independent sweep points;
 *                 the output is the same for any N
 *   --trace=PATH  instead of the rows, the packet-lifecycle trace
 *                 smoke: traced exchanges checked for their causal
 *                 invariants, the fault-free one written to PATH as
 *                 Chrome trace JSON
 *
 * Usage: bench_paper [--only=ROW] [--out=PATH] [--baseline=PATH]
 *                    [--jobs=N] [--trace=PATH]
 */
#include <cstdio>

#include "bench/paper.h"

using namespace fld::bench;

namespace {

struct PaperRow
{
    /** `--only` value and report-name prefix. */
    const char* name;
    /** Where the paper reports it. */
    const char* section;
    void (*run)(paper::Run& run);
};

const PaperRow kRows[] = {
    {"table1", "Table 1, §3", paper::table1},
    {"table2", "Table 2, §4.3", paper::table2},
    {"table3", "Table 3, §5.2", paper::table3},
    {"figure4", "Figure 4, §5.2.1", paper::figure4},
    {"table4", "Table 4, §6", paper::table4},
    {"table5", "Table 5, §6", paper::table5},
    {"figure7a", "Figure 7a, §8.1", paper::figure7a},
    {"figure7b", "Figure 7b, §8.1.1-8.1.2", paper::figure7b},
    {"figure7c", "Figure 7c, §8.1.2", paper::figure7c},
    {"table6", "Table 6, §8.1.1", paper::table6},
    {"figure8a", "Figure 8a, §8.2.1", paper::figure8a},
    {"figure8b", "Figure 8b, §8.2.1", paper::figure8b},
    {"defrag", "§8.2.2", paper::defrag},
    {"iot_isolation", "§8.2.3", paper::iot_isolation},
    {"ablation", "design choices (extension)", paper::ablation},
    {"scaling", "§9 (extension)", paper::scaling},
    {"fastpath", "extension", paper::fastpath},
    {"rpc", "extension", paper::rpc},
    {"flow_scale", "extension", paper::flow_scale},
    {"timer_churn", "extension", paper::timer_churn},
};

} // namespace

int
main(int argc, char** argv)
{
    std::string only, out = "BENCH_PAPER.json", baseline, trace;
    uint64_t jobs = 1;
    parse_flags(argc, argv,
                {{"only", only, "ROW"}, {"out", out, "PATH"},
                 {"baseline", baseline, "PATH"}, {"jobs", jobs},
                 {"trace", trace, "PATH"}});
    if (!trace.empty()) {
        if (!only.empty() || !baseline.empty()) {
            std::fprintf(stderr, "--trace runs alone: no --only or "
                                 "--baseline\n");
            return 2;
        }
        return paper::trace_smoke(trace);
    }
    const PaperRow* one = nullptr;
    for (const PaperRow& row : kRows)
        if (only == row.name)
            one = &row;
    if (!only.empty() && !one) {
        std::fprintf(stderr, "unknown row: %s\nrows:\n", only.c_str());
        for (const PaperRow& row : kRows)
            std::fprintf(stderr, "  %-14s %s\n", row.name, row.section);
        return 2;
    }

    paper::Run run;
    run.jobs = unsigned(jobs);
    for (const PaperRow& row : kRows) {
        if (one && one != &row)
            continue;
        run.report.scope(row.name);
        row.run(run);
    }
    int rc = finish(run.report, out, baseline);
    return run.failed ? 1 : rc;
}
