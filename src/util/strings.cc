#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace fld {

std::string
strfmt(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n, '\0');
    std::vsnprintf(out.data(), n + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
format_bytes(double bytes)
{
    static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int u = 0;
    while (bytes >= 1024.0 && u < 4) {
        bytes /= 1024.0;
        ++u;
    }
    if (bytes == double(int64_t(bytes)))
        return strfmt("%.0f %s", bytes, units[u]);
    if (bytes < 10)
        return strfmt("%.2f %s", bytes, units[u]);
    return strfmt("%.1f %s", bytes, units[u]);
}

std::string
format_gbps(double gbps)
{
    if (gbps >= 100 || gbps == double(int64_t(gbps)))
        return strfmt("%.0f Gbps", gbps);
    return strfmt("%.2f Gbps", gbps);
}

std::string
format_ratio(double ratio)
{
    if (ratio >= 100)
        return strfmt("x%.0f", ratio);
    return strfmt("x%.1f", ratio);
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
hex(const uint8_t* data, size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(len * 2);
    for (size_t i = 0; i < len; ++i) {
        out.push_back(digits[data[i] >> 4]);
        out.push_back(digits[data[i] & 0xf]);
    }
    return out;
}

bool
parse_u64(const char* v, uint64_t& out)
{
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(v, &end, 0);
    return std::isdigit((unsigned char)v[0]) && *end == '\0' &&
           errno == 0;
}

} // namespace fld
