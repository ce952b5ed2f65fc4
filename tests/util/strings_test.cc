/** @file String helper tests. */
#include "util/strings.h"

#include <gtest/gtest.h>

namespace fld {
namespace {

TEST(Strings, Strfmt)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 5, "ok"), "x=5 y=ok");
    EXPECT_EQ(strfmt("%.2f", 1.0 / 3.0), "0.33");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Strings, FormatBytes)
{
    EXPECT_EQ(format_bytes(512), "512 B");
    EXPECT_EQ(format_bytes(64.0 * 1024 * 1024), "64 MiB");
    EXPECT_EQ(format_bytes(832.7 * 1024), "832.7 KiB");
    EXPECT_EQ(format_bytes(305 * 1024), "305 KiB");
}

TEST(Strings, FormatGbps)
{
    EXPECT_EQ(format_gbps(25), "25 Gbps");
    EXPECT_EQ(format_gbps(3.2), "3.20 Gbps");
    EXPECT_EQ(format_gbps(100), "100 Gbps");
}

TEST(Strings, FormatRatio)
{
    EXPECT_EQ(format_ratio(105), "x105");
    EXPECT_EQ(format_ratio(28.2), "x28.2");
    EXPECT_EQ(format_ratio(4.27), "x4.3");
}

TEST(Strings, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Hex)
{
    const uint8_t data[] = {0xde, 0xad, 0x00, 0xff};
    EXPECT_EQ(hex(data, 4), "dead00ff");
    EXPECT_EQ(hex(data, 0), "");
}

TEST(Strings, ParseU64AcceptsOnlyAWholeNumber)
{
    uint64_t v = 0;
    EXPECT_TRUE(parse_u64("10000", v));
    EXPECT_EQ(v, 10000u);
    EXPECT_TRUE(parse_u64("0xffffffffffffffff", v));
    EXPECT_EQ(v, ~0ull);
    for (const char* bad : {"", "abc", "1e5", "1O0", "-1", " 1", "12s",
                            "18446744073709551616"})
        EXPECT_FALSE(parse_u64(bad, v)) << bad;
}

} // namespace
} // namespace fld
