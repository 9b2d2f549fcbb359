/**
 * @file
 * smthill-analyze: two-phase, cross-translation-unit analysis over
 * the whole source tree (DESIGN.md §9; driver in
 * tools/smthill_analyze.cc).
 *
 * The per-file linter (lint/lint.hh) pattern-matches one token
 * stream at a time, so it cannot see bugs whose two halves live in
 * different files — a lambda handed to the thread pool that mutates
 * a captured reference without per-index slots, an allocation three
 * calls below the cycle loop. (Export schemas and event/stat names
 * need no pass: one field table drives each schema's writer and
 * reader, see JsonField in common/json.hh, and every event and stat
 * is a row of the typed catalog in common/catalog.hh, so emitter and
 * reader cannot drift.) This analyzer closes that gap:
 *
 *  Phase 1 (buildProjectModel) walks every unit once and builds a
 *  project model: function definitions with a lightweight
 *  name-matched call graph and allocation-shaped body sites; lambda
 *  capture lists at `parallelFor` / `parallelForWorker` / `runGrid`
 *  / `runGridWorker` call sites; and the full suppression-marker
 *  audit from a lint-rule pass over the same bytes.
 *
 *  Phase 2 (runAnalysisPasses) runs three project-wide passes over
 *  the model:
 *   - parallel-capture:      a by-reference capture mutated inside a
 *                            pool lambda without index-/worker-
 *                            disjoint access, atomics, or locks —
 *                            the race shape TSan only catches once
 *                            the schedule cooperates
 *   - hot-path-allocation:   `new` / `make_unique` / container
 *                            growth / `std::function` construction
 *                            in functions reachable from
 *                            `SmtCpu::step` / `runTrialEpoch` in the
 *                            call graph (the reachability
 *                            generalization of the token-level
 *                            cpu-copy-hot-path rule)
 *   - stale-suppression:     an `// smthill-lint: allow(<rule>)`
 *                            marker that no longer suppresses any
 *                            finding of <rule> is itself a finding
 *
 * Findings share the Finding struct, the suppression mechanism
 * (`// smthill-lint: allow(<pass>)`), and the `smthill.lint.v1`
 * JSON export with smthill_lint; analysisToJson additionally stamps
 * the `tool` and `passes` metadata fields.
 */

#ifndef SMTHILL_LINT_ANALYZE_HH
#define SMTHILL_LINT_ANALYZE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/lint.hh"

namespace smthill
{
namespace lint
{

/** @return the names of the analyzer's project-wide passes. */
std::vector<std::string> passNames();

/** One callee reference inside a function body. */
struct CallRef
{
    std::string name; ///< bare callee identifier
    int line = 0;
};

/** One allocation-shaped site inside a function body. */
struct AllocSite
{
    std::string what; ///< "new", "make_unique", "push_back", ...
    int line = 0;
};

/** One function definition and its body-level facts. */
struct FunctionDef
{
    std::string qual; ///< "SmtCpu::step" (== bare when unqualified)
    std::string bare; ///< last path component of the name
    std::string file;
    int line = 0;
    std::vector<CallRef> calls;
    std::vector<AllocSite> allocs;
};

/** One entry of a lambda capture list. */
struct Capture
{
    std::string name;
    bool byRef = false;
};

/** One lambda literal handed to a pool fan-out call. */
struct PoolLambda
{
    std::string callee; ///< parallelFor(Worker) / runGrid(Worker)
    std::string file;
    int line = 0;
    bool byRefDefault = false;  ///< [&...]
    bool byValueDefault = false; ///< [=...]
    std::vector<Capture> captures;
    std::string indexParam;  ///< first parameter name ("" if none)
    std::string workerParam; ///< second parameter name ("" if none)
    std::size_t fileIndex = 0; ///< into ProjectModel::files
    std::size_t bodyBegin = 0; ///< body token range [begin, end)
    std::size_t bodyEnd = 0;
};

/** Phase-1 output: everything the phase-2 passes consume. */
struct ProjectModel
{
    struct File
    {
        std::string path;
        std::vector<std::string> parts; ///< path components
        LexedFile lex;
    };

    std::vector<File> files;
    std::vector<FunctionDef> functions;
    std::vector<PoolLambda> poolLambdas;

    /// Allow markers and their uses, seeded by the phase-1 lint-rule
    /// run and extended by phase-2 pass suppressions.
    SuppressionAudit audit;
};

/** Phase 1: build the project model from in-memory units. */
ProjectModel buildProjectModel(const std::vector<SourceUnit> &units);

/**
 * Phase 2: run the three passes over @p model. Mutates
 * model.audit.used as pass findings consume allow markers, then
 * derives stale-suppression findings from what is left unused.
 * @return all unsuppressed findings in stable (file, line, rule)
 * order.
 */
std::vector<Finding> runAnalysisPasses(ProjectModel &model);

/** Both phases over in-memory units. */
std::vector<Finding> analyzeUnits(const std::vector<SourceUnit> &units);

/**
 * Both phases over files and directory trees (same walk rules as
 * lintPaths). @return findings, or nothing with @p error set.
 */
std::vector<Finding> analyzePaths(const std::vector<std::string> &paths,
                                  std::string &error);

/**
 * Serialize analyzer findings as `smthill.lint.v1` with the
 * analyzer's `tool` / `passes` metadata extensions (readable by
 * findingsFromJson, which ignores the extra fields).
 */
Json analysisToJson(const std::vector<Finding> &findings);

} // namespace lint
} // namespace smthill

#endif // SMTHILL_LINT_ANALYZE_HH
