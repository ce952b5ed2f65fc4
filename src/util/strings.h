/**
 * @file
 * String formatting and parsing helpers shared by benches, tools and
 * reports.
 */
#ifndef FLD_UTIL_STRINGS_H
#define FLD_UTIL_STRINGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace fld {

/** printf-style std::string formatting. */
std::string strfmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format a byte count using binary units ("64 MiB", "832.7 KiB"). */
std::string format_bytes(double bytes);

/** Format a bit rate ("25 Gbps", "3.2 Gbps"). */
std::string format_gbps(double gbps);

/** Format a ratio for shrink columns ("x105", "x28.2"). */
std::string format_ratio(double ratio);

/** Split @p s on @p sep (no empty-token suppression). */
std::vector<std::string> split(const std::string& s, char sep);

/** Hex dump of a byte range, for debugging and tests. */
std::string hex(const uint8_t* data, size_t len);

/** Parse a whole-string unsigned number (decimal, 0x hex or 0 octal)
 *  into @p out; false on a sign, trailing text or overflow. */
bool parse_u64(const char* v, uint64_t& out);

} // namespace fld

#endif // FLD_UTIL_STRINGS_H
