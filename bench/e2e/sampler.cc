#include "sampler.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <fstream>
#include <iterator>
#include <link.h>
#include <stdexcept>
#include <sys/time.h>
#include <ucontext.h>
#include <unordered_map>

#include "modules.h"

namespace fld::e2e {

namespace {

// The signal handler's view of the active sampler. Plain loads and
// stores of lock-free atomics are async-signal-safe.
std::atomic<uintptr_t*> g_buf{nullptr};
std::atomic<size_t> g_capacity{0};
std::atomic<size_t> g_count{0};
std::atomic<uint64_t> g_lost{0};

constexpr long kPeriodUs = 1000;

void
on_sigprof(int, siginfo_t*, void* ctx)
{
    const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
    uintptr_t pc = uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    uintptr_t pc = uintptr_t(uc->uc_mcontext.pc);
#else
    uintptr_t pc = 0;
    (void)uc;
#endif
    size_t i = g_count.load(std::memory_order_relaxed);
    uintptr_t* buf = g_buf.load(std::memory_order_relaxed);
    if (buf && i < g_capacity.load(std::memory_order_relaxed)) {
        buf[i] = pc;
        g_count.store(i + 1, std::memory_order_relaxed);
    } else {
        g_lost.fetch_add(1, std::memory_order_relaxed);
    }
}

void
set_timer(long period_us)
{
    itimerval it{};
    it.it_interval.tv_usec = period_us;
    it.it_value.tv_usec = period_us;
    if (setitimer(ITIMER_PROF, &it, nullptr) != 0)
        throw std::runtime_error("setitimer(ITIMER_PROF) failed");
}

std::string
demangle(const char* name)
{
    int status = 0;
    char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
    if (status != 0 || !out)
        return name;
    std::string s(out);
    std::free(out);
    return s;
}

template <typename T>
bool
read_at(const std::vector<char>& file, uint64_t off, T& out)
{
    if (off > file.size() || file.size() - off < sizeof(T))
        return false;
    std::memcpy(&out, file.data() + off, sizeof(T));
    return true;
}

} // namespace

Sampler::Sampler() : buf_(new uintptr_t[kCapacity])
{
    if (g_buf.load() != nullptr)
        throw std::logic_error("only one Sampler may exist at a time");
    g_count = 0;
    g_lost = 0;
    g_capacity = kCapacity;
    g_buf = buf_.get();

    struct sigaction sa{};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        throw std::runtime_error("sigaction(SIGPROF) failed");
}

Sampler::~Sampler()
{
    stop();
    // A signal raised just before the timer stopped may still be
    // pending; ignore it rather than take SIGPROF's default action.
    std::signal(SIGPROF, SIG_IGN);
    g_buf = nullptr;
    g_capacity = 0;
}

void
Sampler::start()
{
    if (!running_)
        set_timer(kPeriodUs);
    running_ = true;
}

void
Sampler::stop()
{
    if (running_)
        set_timer(0);
    running_ = false;
}

std::vector<uintptr_t>
Sampler::samples() const
{
    size_t n = std::min(g_count.load(), kCapacity);
    return std::vector<uintptr_t>(buf_.get(), buf_.get() + n);
}

uint64_t
Sampler::lost() const
{
    return g_lost.load();
}

struct Symbolizer::Object
{
    struct Sym
    {
        uintptr_t start;
        uintptr_t end;
        std::string name;
        std::string_view module;
    };
    std::vector<Sym> syms; ///< sorted by start, load bias applied
    bool exact = true;     ///< a PC must fall inside a symbol
};

Symbolizer::Symbolizer()
{
    // "file.cc=module,..." for every source the build compiled.
    std::string_view list = FLD_E2E_SOURCE_MODULES;
    while (!list.empty()) {
        size_t comma = list.find(',');
        std::string_view entry = list.substr(0, comma);
        if (size_t eq = entry.find('='); eq != std::string_view::npos)
            file_modules_.emplace(std::string(entry.substr(0, eq)),
                                  std::string(entry.substr(eq + 1)));
        list.remove_prefix(comma == std::string_view::npos ? list.size()
                                                           : comma + 1);
    }
}

Symbolizer::~Symbolizer() = default;

Symbol
Symbolizer::resolve(uintptr_t pc)
{
    Dl_info info{};
    link_map* lm = nullptr;
    if (!dladdr1(reinterpret_cast<void*>(pc), &info,
                 reinterpret_cast<void**>(&lm), RTLD_DL_LINKMAP) ||
        !lm)
        return {};
    std::unique_ptr<Object>& obj = objects_[info.dli_fbase];
    if (!obj) {
        obj = std::make_unique<Object>();
        // The executable (first link map entry) has an empty name.
        bool exe = lm->l_name == nullptr || lm->l_name[0] == '\0';
        load(*obj, exe ? "/proc/self/exe" : lm->l_name, lm->l_addr);
    }
    const auto& syms = obj->syms;
    auto it = std::upper_bound(
        syms.begin(), syms.end(), pc,
        [](uintptr_t v, const Object::Sym& s) { return v < s.start; });
    if (it == syms.begin())
        return {};
    --it;
    if (obj->exact && pc >= it->end)
        return {}; // a gap between symbols (PLT stubs, padding)
    return {it->name, it->module};
}

void
Symbolizer::load(Object& obj, const char* path, uintptr_t bias)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    Elf64_Ehdr eh{};
    if (!read_at(file, 0, eh) ||
        std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shentsize != sizeof(Elf64_Shdr))
        return;
    auto section = [&](uint32_t i, Elf64_Shdr& sh) {
        return i < eh.e_shnum &&
               read_at(file, eh.e_shoff + uint64_t(i) * sizeof(sh), sh);
    };
    // The full symbol table when the object kept one, else the
    // exported (dynamic) one, whose gaps are then bridged.
    for (uint32_t want : {SHT_SYMTAB, SHT_DYNSYM}) {
        for (uint32_t i = 0; i < eh.e_shnum; ++i) {
            Elf64_Shdr sh{}, strtab{};
            if (!section(i, sh) || sh.sh_type != want ||
                sh.sh_entsize != sizeof(Elf64_Sym) ||
                !section(sh.sh_link, strtab))
                continue;
            // Local symbols follow the FILE symbol of their source.
            std::string_view file_module;
            for (uint64_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size;
                 off += sizeof(Elf64_Sym)) {
                Elf64_Sym s{};
                if (!read_at(file, sh.sh_offset + off, s) ||
                    s.st_name >= strtab.sh_size)
                    continue;
                const char* name =
                    file.data() + strtab.sh_offset + s.st_name;
                int type = ELF64_ST_TYPE(s.st_info);
                if (type == STT_FILE) {
                    auto m = file_modules_.find(std::string_view(name));
                    file_module = m == file_modules_.end()
                                      ? std::string_view()
                                      : std::string_view(m->second);
                    continue;
                }
                if ((type != STT_FUNC && type != STT_GNU_IFUNC) ||
                    s.st_value == 0)
                    continue;
                bool local = ELF64_ST_BIND(s.st_info) == STB_LOCAL;
                uintptr_t start = bias + s.st_value;
                obj.syms.push_back(
                    {start, start + std::max<uint64_t>(s.st_size, 1),
                     demangle(name),
                     local ? file_module : std::string_view()});
            }
        }
        if (!obj.syms.empty()) {
            obj.exact = want == SHT_SYMTAB;
            break;
        }
    }
    std::sort(obj.syms.begin(), obj.syms.end(),
              [](const Object::Sym& a, const Object::Sym& b) {
                  return a.start < b.start;
              });
}

std::map<std::string, uint64_t>
samples_by_module(const std::vector<uintptr_t>& pcs, Symbolizer& symbolizer)
{
    std::unordered_map<uintptr_t, uint64_t> per_pc;
    for (uintptr_t pc : pcs)
        ++per_pc[pc];
    std::map<std::string, uint64_t> out;
    for (std::string_view m : kModules)
        out[std::string(m)] = 0;
    for (const auto& [pc, n] : per_pc) {
        Symbol sym = symbolizer.resolve(pc);
        out[std::string(module_of(sym.name, sym.module))] += n;
    }
    return out;
}

} // namespace fld::e2e
