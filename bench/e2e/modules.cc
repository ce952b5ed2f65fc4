#include "modules.h"

#include <cstring>
#include <string>

namespace fld::e2e {

namespace {

bool
ident_char(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

bool
starts_with(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && s.front() == ' ')
        s.remove_prefix(1);
    while (!s.empty() && s.back() == ' ')
        s.remove_suffix(1);
    return s;
}

/** Length of the operator token starting at @p i ("operator<<",
 *  "operator()", "operator new[]"), so its brackets are not counted
 *  as nesting. 0 when no operator token starts there. */
size_t
operator_token(std::string_view s, size_t i)
{
    constexpr std::string_view kOp = "operator";
    if (s.compare(i, kOp.size(), kOp) != 0 ||
        (i > 0 && ident_char(s[i - 1])))
        return 0;
    size_t j = i + kOp.size();
    if (j < s.size() && s[j] == ' ') {
        ++j;
        while (j < s.size() && (ident_char(s[j]) || s[j] == '[' ||
                                s[j] == ']'))
            ++j;
    } else if (s.compare(j, 2, "()") == 0) {
        j += 2;
    } else {
        while (j < s.size() && std::strchr("<>=!+-*/%^&|~[],", s[j]))
            ++j;
        // "operator< <char>": the space before template arguments is
        // part of the name, not the end of a return type.
        if (s.compare(j, 2, " <") == 0)
            ++j;
    }
    return j - i;
}

/** The last top-level template argument of @p scope, or empty. */
std::string_view
last_template_arg(std::string_view scope)
{
    size_t open = std::string_view::npos, close = 0;
    int depth = 0;
    for (size_t i = 0; i < scope.size(); ++i) {
        if (size_t op = operator_token(scope, i)) {
            i += op - 1;
            continue;
        }
        if (scope[i] == '<') {
            if (depth++ == 0)
                open = i;
        } else if (scope[i] == '>' && depth > 0) {
            if (--depth == 0)
                close = i;
        }
    }
    if (open == std::string_view::npos || close <= open)
        return {};
    std::string_view args = scope.substr(open + 1, close - open - 1);
    size_t last = 0;
    int angle = 0, paren = 0;
    for (size_t i = 0; i < args.size(); ++i) {
        if (size_t op = operator_token(args, i)) {
            i += op - 1;
            continue;
        }
        char c = args[i];
        if (c == '<')
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        else if (c == '(')
            ++paren;
        else if (c == ')' && paren > 0)
            --paren;
        else if (c == ',' && angle == 0 && paren == 0)
            last = i + 1;
    }
    return trim(args.substr(last));
}

bool
is_allocator(std::string_view scope)
{
    static constexpr std::string_view kNames[] = {
        "malloc",       "free",          "calloc",
        "realloc",      "cfree",         "valloc",
        "pvalloc",      "memalign",      "aligned_alloc",
        "posix_memalign", "__posix_memalign", "sysmalloc",
        "malloc_consolidate", "unlink_chunk"};
    for (std::string_view n : kNames)
        if (scope == n)
            return true;
    return starts_with(scope, "operator new") ||
           starts_with(scope, "operator delete") ||
           starts_with(scope, "_int_") || starts_with(scope, "tcache") ||
           starts_with(scope, "__default_morecore") ||
           starts_with(scope, "__libc_malloc") ||
           starts_with(scope, "__libc_free") ||
           starts_with(scope, "__libc_calloc") ||
           starts_with(scope, "__libc_realloc");
}

/** Module of a `fld::` namespace component. */
std::string_view
fld_namespace_module(std::string_view rest)
{
    size_t end = rest.find("::");
    std::string_view ns = rest.substr(0, end);
    if (end == std::string_view::npos || ns.empty() || ns[0] == '(')
        return "util"; // a bare fld:: name (util's namespace)
    if (ns == "core")
        return "fld";
    if (ns == "rpc")
        return "net";
    if (ns == "e2e")
        return "bench";
    for (std::string_view m : kModules)
        if (ns == m)
            return m;
    return "util";
}

/** Callable wrappers: their time belongs to what they wrap. */
std::string_view
wrapper_owner(std::string_view scope)
{
    if (starts_with(scope, "fld::sim::MoveFunction<"))
        return "sim";
    if (starts_with(scope, "std::_Function_handler<"))
        return "stdlib";
    return {};
}

std::string_view
module_of_scope(std::string_view scope, std::string_view defining_module,
                int depth)
{
    if (std::string_view own = wrapper_owner(scope); !own.empty()) {
        std::string_view callable = last_template_arg(scope);
        if (depth < 8 && callable.find("fld::") != std::string_view::npos)
            return module_of_scope(function_scope(callable), {}, depth + 1);
        return defining_module.empty() ? own : defining_module;
    }
    static constexpr std::string_view kLoadgen[] = {
        "fld::apps::PacketGen", "fld::apps::RpcClientPool",
        "fld::apps::AppEmu", "fld::sim::ChurnGen"};
    for (std::string_view g : kLoadgen)
        if (starts_with(scope, g))
            return "loadgen";
    if (starts_with(scope, "fld::"))
        return fld_namespace_module(scope.substr(5));
    if (is_allocator(scope))
        return "alloc";
    return "stdlib";
}

} // namespace

std::string_view
function_scope(std::string_view name)
{
    size_t start = 0;
    int angle = 0, paren = 0;
    for (size_t i = 0; i < name.size(); ++i) {
        if (size_t op = operator_token(name, i)) {
            i += op - 1;
            continue;
        }
        char c = name[i];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
        } else if (c == '(') {
            if (angle == 0 && paren == 0)
                return trim(name.substr(start, i - start));
            ++paren;
        } else if (c == ')') {
            if (paren > 0)
                --paren;
        } else if (c == ' ' && angle == 0 && paren == 0) {
            start = i + 1; // skip a return type
        }
    }
    return trim(name.substr(start));
}

std::string_view
module_of(std::string_view demangled, std::string_view defining_module)
{
    if (demangled.empty())
        return "unresolved";
    return module_of_scope(function_scope(demangled), defining_module, 0);
}

} // namespace fld::e2e
