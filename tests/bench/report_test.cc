/** @file bench::Report writer, reader and baseline comparison tests. */
#include "bench/bench_util.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>

namespace fld::bench {
namespace {

std::string
temp_path(const std::string& name)
{
    return ::testing::TempDir() + "report_test_" + name + ".json";
}

/** The rows a report reads back as after finish() wrote it. */
std::vector<Row>
written_rows(const Report& r, const std::string& name)
{
    std::string path = temp_path(name);
    EXPECT_EQ(finish(r, path, ""), 0);
    std::vector<Row> rows;
    EXPECT_TRUE(read_report(path, rows));
    return rows;
}

/** A report with one row of each kind; @p events and @p wall vary. */
Report
sample(uint64_t events = 2849610, double wall = 0.5)
{
    Report r;
    r.count("echo.events", events, "events");
    r.real("echo.sim_sec", 0.004041187, "s");
    r.hash("echo.flow_hash", 0x365683d40b659d05ull);
    r.real("echo.wall_sec", wall, "s", Gate::None);
    return r;
}

bool
mentions(const std::vector<std::string>& lines, const std::string& what)
{
    for (const std::string& l : lines)
        if (l.find(what) != std::string::npos)
            return true;
    return false;
}

TEST(BenchReport, WriteThenComparePasses)
{
    Report r = sample();
    std::vector<Row> rows = written_rows(r, "write_then_compare");
    ASSERT_EQ(rows.size(), r.rows().size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, r.rows()[i].name);
        EXPECT_EQ(rows[i].value, r.rows()[i].value);
        EXPECT_EQ(rows[i].unit, r.rows()[i].unit);
        EXPECT_EQ(rows[i].gate, r.rows()[i].gate);
    }
    Comparison c = compare(r.rows(), rows);
    EXPECT_TRUE(c.failures.empty());
    EXPECT_TRUE(c.not_run.empty());
    EXPECT_EQ(finish(r, temp_path("write_then_compare_run"),
                     temp_path("write_then_compare")),
              0);
}

TEST(BenchReport, ChangedExactValueFailsAndNamesItsRow)
{
    std::vector<Row> base = written_rows(sample(), "changed_exact");
    Report run = sample(2849611);
    Comparison c = compare(run.rows(), base);
    ASSERT_EQ(c.failures.size(), 1u);
    EXPECT_NE(c.failures[0].find("echo.events"), std::string::npos);
    EXPECT_NE(c.failures[0].find("2849611"), std::string::npos);
    EXPECT_NE(c.failures[0].find("2849610"), std::string::npos);
    EXPECT_EQ(finish(run, temp_path("changed_exact_run"),
                     temp_path("changed_exact")),
              1);
}

TEST(BenchReport, ChangedNoneValuePasses)
{
    std::vector<Row> base = written_rows(sample(), "changed_none");
    Report run = sample(2849610, 7.25);
    EXPECT_TRUE(compare(run.rows(), base).failures.empty());
    EXPECT_EQ(finish(run, temp_path("changed_none_run"),
                     temp_path("changed_none")),
              0);
}

TEST(BenchReport, RunRowMissingFromBaselineFails)
{
    std::vector<Row> base = written_rows(sample(), "missing");
    Report run = sample();
    run.count("echo.packets", 89446, "packets");
    Comparison c = compare(run.rows(), base);
    ASSERT_EQ(c.failures.size(), 1u);
    EXPECT_TRUE(mentions(c.failures, "echo.packets"));
}

TEST(BenchReport, RunWithNoExactRowsFails)
{
    Report run;
    run.real("echo.wall_sec", 0.5, "s", Gate::None);
    std::vector<Row> base = written_rows(run, "no_exact");
    Comparison c = compare(run.rows(), base);
    EXPECT_EQ(c.failures.size(), 1u);
    EXPECT_EQ(finish(run, temp_path("no_exact_run"),
                     temp_path("no_exact")),
              1);
    EXPECT_EQ(compare({}, base).failures.size(), 1u);
}

TEST(BenchReport, BaselineRowsNotRunAreReportedNotFailed)
{
    Report full = sample();
    full.count("scale_10k.events", 1492282, "events");
    full.real("scale_10k.wall_sec", 0.4, "s", Gate::None);
    std::vector<Row> base = written_rows(full, "not_run");
    Report smaller = sample(); // an --only style smaller run
    Comparison c = compare(smaller.rows(), base);
    EXPECT_TRUE(c.failures.empty());
    EXPECT_EQ(c.not_run, (std::vector<std::string>{
                             "scale_10k.events", "scale_10k.wall_sec"}));
    // finish() counts them in one line instead of naming each.
    ::testing::internal::CaptureStdout();
    int rc = finish(smaller, temp_path("not_run_run"), temp_path("not_run"));
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("  2 baseline rows not run\n"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("scale_10k"), std::string::npos) << out;
}

TEST(BenchReport, HashAndDoubleRoundTripExactly)
{
    Report r;
    r.hash("h.max", ~0ull);
    r.hash("h.mixed", 0x8000000000000001ull);
    r.real("d.third", 1.0 / 3.0, "ratio");
    std::vector<Row> rows = written_rows(r, "round_trip");
    ASSERT_EQ(rows.size(), 3u);
    uint64_t h = 0;
    ASSERT_TRUE(parse_u64(rows[0].value.c_str(), h));
    EXPECT_EQ(h, ~0ull);
    ASSERT_TRUE(parse_u64(rows[1].value.c_str(), h));
    EXPECT_EQ(h, 0x8000000000000001ull);
    double third = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(rows[2].value.c_str(), nullptr), third);
}

TEST(BenchReport, UnreadableOrMalformedBaselineFails)
{
    std::vector<Row> rows;
    EXPECT_FALSE(read_report(temp_path("does_not_exist"), rows));
    EXPECT_EQ(finish(sample(), temp_path("unreadable_run"),
                     temp_path("does_not_exist")),
              1);
    std::ofstream(temp_path("malformed"))
        << "{\"name\": \"echo.events\", \"value\": \"1\"}\n";
    EXPECT_FALSE(read_report(temp_path("malformed"), rows));
    EXPECT_EQ(finish(sample(), temp_path("malformed_run"),
                     temp_path("malformed")),
              1);
}

} // namespace
} // namespace fld::bench
