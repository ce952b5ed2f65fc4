/**
 * @file
 * Maps a demangled function name to the layer that owns its host time.
 *
 * Layers are the library's src/ modules plus the buckets a leaf-PC
 * profile needs besides them: the traffic generators (loadgen), the
 * allocator (alloc), the C/C++ runtime (stdlib), this benchmark's own
 * code (bench) and PCs no symbol covers (unresolved).
 */
#ifndef FLD_BENCH_E2E_MODULES_H
#define FLD_BENCH_E2E_MODULES_H

#include <array>
#include <string_view>

namespace fld::e2e {

/** Every layer, in report order. */
inline constexpr std::array<std::string_view, 17> kModules = {
    "sim",     "pcie",   "nic",     "fld",    "driver", "net",
    "accel",   "crypto", "apps",    "runtime", "model", "util",
    "loadgen", "alloc",  "stdlib",  "bench",  "unresolved"};

/**
 * Layer of @p demangled. A symbol counts toward the module of its
 * `fld::` namespace (`fld::core` is the fld module, `fld::rpc` lives in
 * net, bare `fld::` is util). A lambda counts toward the function that
 * defines it, and a callable wrapper (sim::MoveFunction, std::function)
 * toward the callable it wraps. A wrapper whose name does not say what
 * it wraps — GCC names MoveFunction's per-callable thunks
 * `MoveFunction<Sig>::{lambda(void*)#N}` — counts toward
 * @p defining_module, the module of the source file the thunk was
 * instantiated in (lambdas are local to their file), when known. The
 * load generators count as loadgen. An empty name is unresolved.
 */
std::string_view module_of(std::string_view demangled,
                           std::string_view defining_module = {});

/**
 * Qualified name of the function @p demangled names, without its
 * return type, parameter list or trailing lambda scopes: for
 * "void ns::f(int)::{lambda()#1}::operator()() const" that is "ns::f".
 */
std::string_view function_scope(std::string_view demangled);

} // namespace fld::e2e

#endif // FLD_BENCH_E2E_MODULES_H
