/**
 * @file
 * Arena: a bump allocator over a fixed address range, for carving
 * rings and buffers out of a node's memory. Nothing is ever freed.
 */
#ifndef FLD_UTIL_ARENA_H
#define FLD_UTIL_ARENA_H

#include <cstdint>
#include <string>
#include <utility>

#include "util/bitops.h"
#include "util/logging.h"

namespace fld {

class Arena
{
  public:
    Arena(std::string name, uint64_t base, uint64_t size)
        : name_(std::move(name)), next_(base), end_(base + size)
    {
    }

    /** @p size bytes at the next @p align boundary (a power of two);
     *  fatal when the range is exhausted. */
    uint64_t alloc(uint64_t size, uint64_t align = 64)
    {
        uint64_t addr = align_up(next_, align);
        if (addr + size > end_)
            fatal("%s: arena exhausted", name_.c_str());
        next_ = addr + size;
        return addr;
    }

  private:
    std::string name_;
    uint64_t next_;
    uint64_t end_;
};

} // namespace fld

#endif // FLD_UTIL_ARENA_H
