/**
 * @file
 * Leaf-PC CPU-time sampler and the symbolizer that names its samples.
 *
 * The sampler arms ITIMER_PROF, so samples accrue with the process's
 * CPU time (user + system); each SIGPROF records the interrupted
 * program counter into a preallocated buffer. The kernel delivers at
 * most one signal per scheduler tick, so the sample *count* says little
 * about seconds; callers scale shares by measured CPU time instead.
 */
#ifndef FLD_BENCH_E2E_SAMPLER_H
#define FLD_BENCH_E2E_SAMPLER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fld::e2e {

class Sampler
{
  public:
    Sampler();
    ~Sampler();

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    /** Arm the timer (one Sampler may exist at a time). */
    void start();
    /** Disarm the timer; recorded samples stay. */
    void stop();

    /** Recorded PCs, in arrival order. */
    std::vector<uintptr_t> samples() const;
    /** Samples that arrived after the buffer filled. */
    uint64_t lost() const;

  private:
    /** Samples kept (over an hour at 1 kHz); later ones count as lost. */
    static constexpr size_t kCapacity = size_t(1) << 22;

    std::unique_ptr<uintptr_t[]> buf_;
    bool running_ = false;
};

/** A named program counter. */
struct Symbol
{
    std::string name;        ///< demangled; empty when unresolved
    std::string_view module; ///< module of the defining source file,
                             ///< when the symbol table says which
};

/**
 * Names program counters of this process from the ELF symbol tables
 * of the mapped objects: the executable's .symtab (local symbols too,
 * each with the source file it came from) and each shared library's
 * own tables, read on first use. Inside the executable a PC must fall
 * within a symbol; inside a library without a containing symbol it
 * takes the nearest exported symbol before it, the way the library's
 * unexported internals (allocator, string routines) are laid out.
 */
class Symbolizer
{
  public:
    Symbolizer();
    ~Symbolizer();

    Symbol resolve(uintptr_t pc);

  private:
    struct Object;
    void load(Object& obj, const char* path, uintptr_t bias);

    std::map<const void*, std::unique_ptr<Object>> objects_;
    /** Source file basename -> module, from the build. */
    std::map<std::string, std::string, std::less<>> file_modules_;
};

/** Per-module sample counts for @p pcs (keys are kModules entries). */
std::map<std::string, uint64_t>
samples_by_module(const std::vector<uintptr_t>& pcs, Symbolizer& symbolizer);

} // namespace fld::e2e

#endif // FLD_BENCH_E2E_SAMPLER_H
