/**
 * @file
 * smthill-lint: project-specific static analysis over the source
 * tree (see DESIGN.md §9 for the rule catalog and rationale).
 *
 * The simulator's headline results rest on properties no runtime
 * check can prove — bit-identical replay at any `--jobs` count,
 * checkpoint-clone determinism — and those properties die silently
 * when someone introduces `rand()`, wall-clock time, or
 * unordered-container iteration into a hot path. (Export schemas and
 * names need no rule: each schema is one field table that drives both
 * its writer and its reader, see JsonField in common/json.hh, and
 * every event and stat name is a row of the typed catalog in
 * common/catalog.hh, so an unknown or malformed one fails to
 * compile.) The rules here catch exactly those regressions at build
 * time, before the differential fuzzer ever has to shrink a seed.
 *
 * Rules (each suppressible per line via
 * `// smthill-lint: allow(<rule>)` on the finding line or the line
 * above):
 *  - no-wall-clock:          no `time()`/`clock()`/chrono clocks
 *                            outside `src/common/rng.*`
 *  - no-libc-random:         no `rand`/`srand`/`<random>` machinery
 *                            outside `src/common/rng.*`
 *  - no-unordered-container: no `std::unordered_{map,set}` anywhere
 *                            (iteration order feeds exported results)
 *  - error-handling:         no naked `new`/`delete`; no
 *                            `exit`/`abort` outside `common/log.cc`
 *                            (the library builds with
 *                            `-fno-exceptions`, so a `throw` there
 *                            does not compile)
 *  - cpu-copy-hot-path:      no `SmtCpu x = y;` copy-construction in
 *                            `src/` or `bench/` outside the
 *                            checkpoint API (`core/machine_arena.*`);
 *                            hot paths restore warm machines via
 *                            `MachineArena::acquire` instead of
 *                            paying the whole-machine copy per trial
 *  - include-guard:          every header opens with the canonical
 *                            `SMTHILL_<PATH>_HH` `#ifndef` guard
 *  - layering:               `src/` modules include only same-or-
 *                            lower-ranked modules (common -> trace/
 *                            branch/memory -> pipeline -> policy/
 *                            workload -> core -> phase -> harness ->
 *                            validate)
 *  - stale-suppression:      an `allow(<rule>)` marker that suppressed
 *                            no finding, or names no rule; not itself
 *                            suppressible
 */

#ifndef SMTHILL_LINT_LINT_HH
#define SMTHILL_LINT_LINT_HH

#include <string>
#include <vector>

namespace smthill
{
namespace lint
{

/** One unsuppressed rule violation. */
struct Finding
{
    std::string rule;    ///< rule name from ruleNames()
    std::string file;    ///< path as passed to the linter
    int line = 0;        ///< 1-based source line
    std::string message; ///< human-readable description

    bool operator==(const Finding &) const = default;
};

/** @return the names of every implemented rule. */
std::vector<std::string> ruleNames();

/**
 * Lint one file given its @p path and @p content. Path-scoped rules
 * (allowlists, module ranks) key off @p path, so tests
 * may lint fixture content under a synthetic path.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/**
 * Lint files and directory trees. Directories are walked
 * recursively for `.hh`/`.h`/`.cc`/`.cpp` files in deterministic
 * (sorted) order, skipping build outputs, dot-directories, and
 * `fixtures` directories (which hold intentionally-failing lint
 * fixtures).
 *
 * @param paths files and/or directories to lint
 * @param error receives a message if a path cannot be read
 * @return all unsuppressed findings, or nothing with @p error set
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &paths,
                               std::string &error);

} // namespace lint
} // namespace smthill

#endif // SMTHILL_LINT_LINT_HH
