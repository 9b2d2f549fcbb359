#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace smthill
{
namespace lint
{

namespace
{

/** Token classes the rules distinguish. */
enum class TokKind
{
    Identifier, ///< identifiers and keywords
    Literal,    ///< number, string or character literal; no text
    Punct,      ///< one punctuation character per token
    Directive   ///< full preprocessor line, continuations joined
};

/** One lexed token with its 1-based source line. */
struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 0;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Split one file's bytes into the tokens the rules need, stripping
 * comments, so no rule mistakes a keyword in a comment or a literal
 * for code. Not a compiler front end.
 */
std::vector<Token>
lexFile(const std::string &content)
{
    std::vector<Token> out;
    const std::size_t n = content.size();
    std::size_t i = 0;
    int line = 1;
    bool atLineStart = true;

    // Consume up to (not including) @p end, counting newlines.
    auto skipTo = [&](std::size_t end) {
        for (; i < end && i < n; ++i) {
            if (content[i] == '\n') {
                ++line;
                atLineStart = true;
            }
        }
    };

    while (i < n) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        if (std::isspace(static_cast<unsigned char>(c))) {
            skipTo(i + 1);
            continue;
        }

        // Preprocessor directive: the logical line, backslash
        // continuations joined, as one token.
        if (c == '#' && atLineStart) {
            const int startLine = line;
            std::string text;
            while (i < n && content[i] != '\n') {
                if (content[i] == '\\' && i + 1 < n &&
                    content[i + 1] == '\n') {
                    text.push_back(' ');
                    skipTo(i + 2);
                } else {
                    text.push_back(content[i++]);
                }
            }
            out.push_back({TokKind::Directive, text, startLine});
            continue;
        }
        atLineStart = false;

        if (c == '/' && next == '/') { // line comment
            const std::size_t end = content.find('\n', i);
            i = end == std::string::npos ? n : end;
            continue;
        }
        if (c == '/' && next == '*') { // block comment
            const std::size_t end = content.find("*/", i + 2);
            skipTo(end == std::string::npos ? n : end + 2);
            continue;
        }

        const int startLine = line;
        if (c == 'R' && next == '"') {
            // Raw string literal: R"delim( ... )delim".
            const std::size_t open = content.find('(', i + 2);
            const std::string closer =
                open == std::string::npos
                    ? std::string()
                    : ")" + content.substr(i + 2, open - i - 2) + "\"";
            const std::size_t end = content.find(closer, open);
            skipTo(end == std::string::npos ? n : end + closer.size());
            out.push_back({TokKind::Literal, "", startLine});
            continue;
        }
        if (c == '"' || c == '\'') {
            // String or character literal with backslash escapes.
            std::size_t end = i + 1;
            while (end < n && content[end] != c)
                end += content[end] == '\\' ? 2 : 1;
            skipTo(end + 1);
            out.push_back({TokKind::Literal, "", startLine});
            continue;
        }
        if (isIdentChar(c)) {
            // A leading digit makes a number, whose `.` and `'` digit
            // separators belong to it.
            const bool number = std::isdigit(static_cast<unsigned char>(c));
            const std::size_t start = i;
            while (i < n &&
                   (isIdentChar(content[i]) ||
                    (number && (content[i] == '.' || content[i] == '\''))))
                ++i;
            out.push_back({number ? TokKind::Literal : TokKind::Identifier,
                           number ? "" : content.substr(start, i - start),
                           line});
            continue;
        }
        out.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

/** Split a path into components, normalizing separators. */
std::vector<std::string>
pathComponents(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path + "/") {
        if (c != '/' && c != '\\') {
            cur.push_back(c);
            continue;
        }
        if (!cur.empty() && cur != ".")
            parts.push_back(cur);
        cur.clear();
    }
    return parts;
}

/** @return true if @p s ends with @p suffix. */
bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Directive keyword (`ifndef`, `define`, `include`, ...) + operand. */
void
parseDirective(const std::string &directive, std::string &keyword,
               std::string &operand)
{
    std::istringstream is(directive.substr(directive.find('#') + 1));
    is >> keyword >> operand;
}

/**
 * Canonical include-guard macro for a header path: SMTHILL_ plus the
 * path below `src/` (or from `bench/`, `tools/`, `tests/` on),
 * upper-cased, with every other character an underscore.
 */
std::string
canonicalGuard(const std::vector<std::string> &parts)
{
    static const std::set<std::string> keepRoots = {"bench", "tools",
                                                    "tests"};
    std::size_t begin = parts.empty() ? 0 : parts.size() - 1;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i] == "src" && i + 1 < parts.size()) {
            begin = i + 1;
            break;
        }
        if (keepRoots.count(parts[i])) {
            begin = i;
            break;
        }
    }
    std::string guard = "SMTHILL";
    for (std::size_t i = begin; i < parts.size(); ++i) {
        guard.push_back('_');
        for (char c : parts[i]) {
            const auto u = static_cast<unsigned char>(c);
            guard.push_back(std::isalnum(u)
                                ? static_cast<char>(std::toupper(u))
                                : '_');
        }
    }
    return guard;
}

class FileScanner
{
  public:
    FileScanner(const std::string &file_path, const std::string &content)
        : path(file_path), parts(pathComponents(file_path)),
          tokens(lexFile(content))
    {
    }

    std::vector<Finding>
    run()
    {
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i].kind == TokKind::Directive) {
                checkInclude(tokens[i]);
            } else if (tokens[i].kind == TokKind::Identifier) {
                checkDeterminismIdent(i);
                checkErrorHandlingIdent(i);
                checkCpuCopyIdent(i);
            }
        }
        if (endsWith(path, ".hh"))
            checkIncludeGuard();
        return findings;
    }

  private:
    void
    report(const std::string &rule, int line, const std::string &message)
    {
        findings.push_back({rule, path, line, message});
    }

    bool
    hasPart(const char *dir) const
    {
        return std::find(parts.begin(), parts.end(), dir) != parts.end();
    }

    /** The RNG itself is exempt from the determinism rules. */
    bool
    isRngSource() const
    {
        return endsWith(path, "common/rng.hh") ||
               endsWith(path, "common/rng.cc");
    }

    bool
    isKind(std::size_t i, TokKind kind) const
    {
        return i < tokens.size() && tokens[i].kind == kind;
    }

    bool
    isPunct(std::size_t i, char c) const
    {
        return isKind(i, TokKind::Punct) && tokens[i].text[0] == c;
    }

    void checkInclude(const Token &t);
    void checkIncludeGuard();
    void checkDeterminismIdent(std::size_t i);
    void checkErrorHandlingIdent(std::size_t i);
    void checkCpuCopyIdent(std::size_t i);

    const std::string path;
    const std::vector<std::string> parts;
    const std::vector<Token> tokens;
    std::vector<Finding> findings;
};

void
FileScanner::checkDeterminismIdent(std::size_t i)
{
    if (isRngSource())
        return;
    const Token &t = tokens[i];

    // Wall-clock sources: chrono clock types are banned outright;
    // libc entry points only when called (so a member named `time`
    // does not trip the rule).
    static const std::set<std::string> clockTypes = {
        "steady_clock", "system_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get",
    };
    static const std::set<std::string> clockCalls = {"time", "clock"};
    if (clockTypes.count(t.text) ||
        (clockCalls.count(t.text) && isPunct(i + 1, '('))) {
        // The host profiler is the one component allowed to read a
        // monotonic clock. Its data never flows into sim state; the
        // profiler-off bit-identity tests pin that.
        if (!endsWith(path, "common/profile.cc")) {
            report("no-wall-clock", t.line,
                   "wall-clock source '" + t.text +
                       "' breaks replay determinism; derive timing "
                       "from simulated cycles");
        }
        return;
    }

    // Every stochastic draw must flow through common/rng.hh so
    // checkpoint clones replay bit-identically.
    static const std::set<std::string> randomTypes = {
        "random_device",     "mt19937",
        "mt19937_64",        "minstd_rand",
        "minstd_rand0",      "default_random_engine",
        "knuth_b",           "ranlux24",
        "ranlux48",          "uniform_int_distribution",
        "uniform_real_distribution", "normal_distribution",
        "bernoulli_distribution",    "poisson_distribution",
        "discrete_distribution",     "random_shuffle",
        "shuffle",
    };
    static const std::set<std::string> randomCalls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
        "random",
    };
    if (randomTypes.count(t.text) ||
        (randomCalls.count(t.text) && isPunct(i + 1, '('))) {
        report("no-libc-random", t.line,
               "'" + t.text +
                   "' bypasses common/rng.hh; draw from a seeded Rng "
                   "so replay and checkpoint clones stay identical");
        return;
    }

    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    if (unordered.count(t.text)) {
        report("no-unordered-container", t.line,
               "'" + t.text +
                   "' iteration order varies across libraries and "
                   "runs; use std::map/std::set or a sorted vector");
    }
}

void
FileScanner::checkErrorHandlingIdent(std::size_t i)
{
    const Token &t = tokens[i];
    const bool afterOperator =
        i > 0 && isKind(i - 1, TokKind::Identifier) &&
        tokens[i - 1].text == "operator";

    if (t.text == "new" && !afterOperator) {
        report("error-handling", t.line,
               "naked 'new'; own allocations via std::make_unique, "
               "containers, or value members");
    } else if (t.text == "delete" && !afterOperator &&
               !(i > 0 && isPunct(i - 1, '='))) {
        report("error-handling", t.line,
               "naked 'delete'; lifetimes belong to owners "
               "(unique_ptr, containers), not manual frees");
    }

    static const std::set<std::string> exits = {
        "exit", "_exit", "_Exit", "quick_exit", "abort", "terminate",
    };
    if (exits.count(t.text) && isPunct(i + 1, '(') &&
        !endsWith(path, "common/log.cc")) {
        report("error-handling", t.line,
               "'" + t.text +
                   "' outside common/log.cc; report user errors via "
                   "fatal() and bugs via panic()");
    }
}

void
FileScanner::checkCpuCopyIdent(std::size_t i)
{
    // A whole-machine SmtCpu copy costs tens of microseconds of
    // allocation; trial sweeps restore warm per-worker machines
    // instead (core/machine_arena.hh). The rule guards library and
    // bench code, the paths that run per trial or per iteration.
    // Tests exercise checkpoint value semantics on purpose and are
    // exempt, as is the checkpoint API itself.
    if (tokens[i].text != "SmtCpu" || !(hasPart("src") || hasPart("bench")))
        return;
    if (endsWith(path, "core/machine_arena.cc") ||
        endsWith(path, "core/machine_arena.hh"))
        return;
    // `SmtCpu x = y;` copy-initializes from an lvalue; `SmtCpu x(y);`
    // direct-initializes. A longer initializer (a call, a multi-token
    // argument list) is a constructor call or a function result.
    const bool named = isKind(i + 1, TokKind::Identifier);
    const bool source = isKind(i + 3, TokKind::Identifier);
    const bool copyInit = isPunct(i + 2, '=') && isPunct(i + 4, ';');
    const bool directInit =
        isPunct(i + 2, '(') && isPunct(i + 4, ')') && isPunct(i + 5, ';');
    if (named && source && (copyInit || directInit)) {
        report("cpu-copy-hot-path", tokens[i].line,
               "whole-machine SmtCpu copy; hot paths restore a warm "
               "machine (MachineArena::acquire + SmtCpu::restoreFrom, "
               "core/machine_arena.hh) instead of copy-constructing "
               "per trial");
    }
}

void
FileScanner::checkInclude(const Token &t)
{
    std::string keyword, operand;
    parseDirective(t.text, keyword, operand);
    if (keyword != "include" || operand.size() < 3 ||
        operand.front() != '<' || isRngSource())
        return;
    const std::string target = operand.substr(1, operand.size() - 2);
    if (target == "random") {
        report("no-libc-random", t.line,
               "<random> include; every stochastic draw goes through "
               "common/rng.hh");
    } else if (target == "unordered_map" || target == "unordered_set") {
        report("no-unordered-container", t.line,
               operand + " include; iteration order varies, use "
                         "ordered containers");
    } else if ((target == "ctime" || target == "time.h" ||
                target == "sys/time.h") &&
               !endsWith(path, "common/profile.cc")) {
        report("no-wall-clock", t.line,
               operand + " include; derive timing from simulated "
                         "cycles, not wall clock");
    }
}

void
FileScanner::checkIncludeGuard()
{
    // The first two directives must be `#ifndef G` and `#define G`.
    const std::string want = canonicalGuard(parts);
    std::vector<const Token *> directives;
    for (const Token &t : tokens) {
        if (t.kind == TokKind::Directive && directives.size() < 2)
            directives.push_back(&t);
    }
    std::string keyword, guard, defKeyword, defGuard;
    if (!directives.empty())
        parseDirective(directives[0]->text, keyword, guard);
    if (directives.size() == 2)
        parseDirective(directives[1]->text, defKeyword, defGuard);
    if (keyword != "ifndef" || guard != want || defKeyword != "define" ||
        defGuard != want) {
        report("include-guard", directives.empty() ? 1 : directives[0]->line,
               "header must open with the canonical guard #ifndef " +
                   want + " / #define " + want);
    }
}

/** Stable finding order: file, line, rule, message. */
void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

/** Directories never walked: build output, VCS, fixture trees. */
bool
skipDirectory(const std::string &name)
{
    return name.empty() || name[0] == '.' ||
           name.rfind("build", 0) == 0 || name == "fixtures";
}

/**
 * Collect every `.hh`/`.cc` file under @p paths in deterministic
 * (sorted, deduplicated) order, skipping build outputs,
 * dot-directories and fixture trees. @return false with @p error set
 * on unreadable paths.
 */
bool
collectSourceFiles(const std::vector<std::string> &paths,
                   std::vector<std::string> &files, std::string &error)
{
    namespace fs = std::filesystem;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
            continue;
        }
        if (!fs::is_directory(p, ec)) {
            error = p + ": not a file or directory";
            return false;
        }
        auto it = fs::recursive_directory_iterator(
            p, fs::directory_options::skip_permission_denied, ec);
        for (; !ec && it != fs::end(it); it.increment(ec)) {
            const std::string name = it->path().filename().string();
            if (it->is_directory() && skipDirectory(name))
                it.disable_recursion_pending();
            else if (it->is_regular_file() &&
                     (endsWith(name, ".hh") || endsWith(name, ".cc")))
                files.push_back(it->path().generic_string());
        }
        if (ec) {
            error = p + ": " + ec.message();
            return false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return true;
}

} // namespace

std::vector<std::string>
ruleNames()
{
    return {
        "no-wall-clock",  "no-libc-random",    "no-unordered-container",
        "error-handling", "cpu-copy-hot-path", "include-guard",
    };
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    std::vector<Finding> findings = FileScanner(path, content).run();
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
lintPaths(const std::vector<std::string> &paths, std::string &error)
{
    error.clear();
    std::vector<std::string> files;
    if (!collectSourceFiles(paths, files, error))
        return {};

    std::vector<Finding> findings;
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            error = file + ": cannot read";
            return {};
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::vector<Finding> here = FileScanner(file, buf.str()).run();
        findings.insert(findings.end(), here.begin(), here.end());
    }
    sortFindings(findings);
    return findings;
}

} // namespace lint
} // namespace smthill
