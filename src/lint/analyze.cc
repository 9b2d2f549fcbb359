#include "lint/analyze.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json.hh"

namespace smthill
{
namespace lint
{

namespace
{

bool
hasComponent(const std::vector<std::string> &parts, const char *name)
{
    return std::find(parts.begin(), parts.end(), name) != parts.end();
}

bool
isPunct(const std::vector<Token> &toks, std::size_t i, char c)
{
    return i < toks.size() && toks[i].kind == TokKind::Punct &&
           toks[i].text.size() == 1 && toks[i].text[0] == c;
}

bool
isIdent(const std::vector<Token> &toks, std::size_t i, const char *text)
{
    return i < toks.size() && toks[i].kind == TokKind::Identifier &&
           toks[i].text == text;
}

bool
isIdentTok(const std::vector<Token> &toks, std::size_t i)
{
    return i < toks.size() && toks[i].kind == TokKind::Identifier;
}

/**
 * @return the index of the close bracket matching the open bracket at
 * @p open (one of `(`, `[`, `{`), or toks.size() when unbalanced.
 */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open)
{
    if (open >= toks.size() || toks[open].kind != TokKind::Punct)
        return toks.size();
    char o = toks[open].text[0];
    char c = o == '(' ? ')' : o == '[' ? ']' : o == '{' ? '}' : '\0';
    if (c == '\0')
        return toks.size();
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks, i, o))
            ++depth;
        else if (isPunct(toks, i, c) && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Keywords that look like calls but are not callees. */
bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if",        "for",       "while",    "switch",
        "return",    "catch",     "sizeof",   "alignof",
        "decltype",  "static_cast", "dynamic_cast", "reinterpret_cast",
        "const_cast", "new",      "delete",   "throw",
        "case",      "do",        "else",     "goto",
        "typeid",    "alignas",   "noexcept", "not",
        "and",       "or",        "defined",  "assert",
        "static_assert",
    };
    return kw.count(t) != 0;
}

/** Container methods that may allocate (hot-path pass). */
bool
isAllocMethod(const std::string &t)
{
    static const std::set<std::string> m = {
        "push_back", "emplace_back", "insert", "emplace",
        "resize",    "reserve",      "assign", "append",
        "push",
    };
    return m.count(t) != 0;
}

/** Methods that mutate the receiver (parallel-capture pass). */
bool
isMutatorMethod(const std::string &t)
{
    static const std::set<std::string> m = {
        "push_back", "emplace_back", "pop_back", "insert",
        "emplace",   "erase",        "clear",    "resize",
        "reserve",   "assign",       "append",   "push",
        "add",       "inc",          "set",      "record",
        "reset",
    };
    return m.count(t) != 0;
}

/** Stable finding order: file, line, rule, message. */
void
sortAnalysisFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

// ---------------------------------------------------------------------
// Phase 1: model extraction
// ---------------------------------------------------------------------

/**
 * Scan a token range for callee references and allocation-shaped
 * sites, appending to @p fn. Nested lambdas are attributed to the
 * enclosing function (they run on its behalf).
 */
void
scanBodyFacts(const std::vector<Token> &toks, std::size_t begin,
              std::size_t end, FunctionDef &fn)
{
    for (std::size_t m = begin; m < end && m < toks.size(); ++m) {
        const Token &t = toks[m];
        if (t.kind == TokKind::Identifier) {
            if (!isKeyword(t.text) && isPunct(toks, m + 1, '('))
                fn.calls.push_back({t.text, t.line});
            if (t.text == "new" && !(m > 0 && isIdent(toks, m - 1,
                                                      "operator")))
                fn.allocs.push_back({"new", t.line});
            if (t.text == "make_unique" || t.text == "make_shared")
                fn.allocs.push_back({t.text, t.line});
            if (t.text == "function" && m >= 3 &&
                isPunct(toks, m - 1, ':') && isPunct(toks, m - 2, ':') &&
                isIdent(toks, m - 3, "std"))
                fn.allocs.push_back({"std::function", t.line});
            continue;
        }
        bool dot = isPunct(toks, m, '.');
        bool arrow = isPunct(toks, m, '-') && isPunct(toks, m + 1, '>');
        std::size_t nameIdx = dot ? m + 1 : arrow ? m + 2 : toks.size();
        if (nameIdx < toks.size() && isIdentTok(toks, nameIdx) &&
            isAllocMethod(toks[nameIdx].text) &&
            isPunct(toks, nameIdx + 1, '('))
            fn.allocs.push_back(
                {toks[nameIdx].text, toks[nameIdx].line});
    }
}

/**
 * Recognize function definitions by token shape — `name(args)` plus
 * optional trailing specifiers / return arrow / constructor init
 * list, ending at `{`. Scans skip recognized bodies so statements
 * inside one function are never mistaken for nested definitions;
 * class and namespace braces are scanned through.
 */
void
extractFunctions(const ProjectModel::File &f,
                 std::vector<FunctionDef> &out)
{
    const std::vector<Token> &toks = f.lex.tokens;
    std::size_t i = 0;
    while (i < toks.size()) {
        if (!isIdentTok(toks, i) || isKeyword(toks[i].text) ||
            !isPunct(toks, i + 1, '(') ||
            (i > 0 && isPunct(toks, i - 1, '.')) ||
            (i > 1 && isPunct(toks, i - 2, '-') &&
             isPunct(toks, i - 1, '>'))) {
            ++i;
            continue;
        }
        std::size_t close = matchForward(toks, i + 1);
        if (close >= toks.size()) {
            ++i;
            continue;
        }

        std::size_t k = close + 1;
        bool isDef = false;
        std::size_t bodyOpen = 0;
        std::size_t initBegin = 0; // ctor init list, if any

        if (isPunct(toks, k, ':') && !isPunct(toks, k + 1, ':')) {
            // Constructor initializer list: runs to `{` at paren
            // depth zero, or it was something else entirely.
            initBegin = k + 1;
            int pd = 0;
            for (std::size_t m = k + 1; m < toks.size(); ++m) {
                if (isPunct(toks, m, '('))
                    ++pd;
                else if (isPunct(toks, m, ')'))
                    --pd;
                else if (pd == 0 && isPunct(toks, m, '{')) {
                    isDef = true;
                    bodyOpen = m;
                    break;
                } else if (pd == 0 && (isPunct(toks, m, ';') ||
                                       isPunct(toks, m, '}'))) {
                    break;
                }
            }
        } else {
            // Trailing `const noexcept override -> Type` before `{`;
            // anything else (`;`, `=`, an operator) is a declaration
            // or expression, not a definition.
            std::size_t m = k;
            int guard = 0;
            while (m < toks.size() && guard++ < 64) {
                const Token &t = toks[m];
                if (t.kind == TokKind::Identifier) {
                    ++m;
                    continue;
                }
                if (t.kind != TokKind::Punct)
                    break;
                char c = t.text[0];
                if (c == '{') {
                    isDef = true;
                    bodyOpen = m;
                    break;
                }
                if (c == '(') {
                    std::size_t e = matchForward(toks, m);
                    if (e >= toks.size())
                        break;
                    m = e + 1;
                    continue;
                }
                if (c == ':' || c == '<' || c == '>' || c == ',' ||
                    c == '&' || c == '*' || c == '-' || c == '[' ||
                    c == ']') {
                    ++m;
                    continue;
                }
                break;
            }
        }

        if (!isDef) {
            ++i;
            continue;
        }
        std::size_t bodyClose = matchForward(toks, bodyOpen);
        if (bodyClose >= toks.size()) {
            ++i;
            continue;
        }

        FunctionDef fn;
        fn.bare = toks[i].text;
        fn.qual = fn.bare;
        fn.file = f.path;
        fn.line = toks[i].line;
        std::size_t p = i;
        if (p > 0 && isPunct(toks, p - 1, '~'))
            --p; // destructor tilde; keep the class name
        while (p >= 3 && isPunct(toks, p - 1, ':') &&
               isPunct(toks, p - 2, ':') && isIdentTok(toks, p - 3)) {
            fn.qual = toks[p - 3].text + "::" + fn.qual;
            p -= 3;
        }
        if (initBegin != 0)
            scanBodyFacts(toks, initBegin, bodyOpen, fn);
        scanBodyFacts(toks, bodyOpen + 1, bodyClose, fn);
        out.push_back(std::move(fn));
        i = bodyClose + 1;
    }
}

/** Parse one lambda literal starting at its `[` token. */
bool
parseLambda(const std::vector<Token> &toks, std::size_t intro,
            PoolLambda &lam)
{
    std::size_t capClose = matchForward(toks, intro);
    if (capClose >= toks.size())
        return false;

    // Capture entries, split on top-level commas.
    std::vector<std::vector<std::size_t>> entries(1);
    int depth = 0;
    for (std::size_t m = intro + 1; m < capClose; ++m) {
        if (isPunct(toks, m, '(') || isPunct(toks, m, '{'))
            ++depth;
        else if (isPunct(toks, m, ')') || isPunct(toks, m, '}'))
            --depth;
        else if (depth == 0 && isPunct(toks, m, ',')) {
            entries.emplace_back();
            continue;
        }
        entries.back().push_back(m);
    }
    for (const std::vector<std::size_t> &e : entries) {
        if (e.empty())
            continue;
        if (e.size() == 1 && isPunct(toks, e[0], '&')) {
            lam.byRefDefault = true;
        } else if (e.size() == 1 && isPunct(toks, e[0], '=')) {
            lam.byValueDefault = true;
        } else if (isPunct(toks, e[0], '&') && isIdentTok(toks, e[1])) {
            lam.captures.push_back({toks[e[1]].text, true});
        } else if (isIdentTok(toks, e[0]) &&
                   toks[e[0]].text != "this") {
            lam.captures.push_back({toks[e[0]].text, false});
        } // `this` / `*this` capture the object, not a variable
    }

    // Parameter list: remember the first two names so the passes can
    // recognize index- and worker-disjoint accesses.
    std::size_t after = capClose + 1;
    if (isPunct(toks, after, '(')) {
        std::size_t pClose = matchForward(toks, after);
        if (pClose >= toks.size())
            return false;
        std::vector<std::string> names(1);
        depth = 0;
        for (std::size_t m = after + 1; m < pClose; ++m) {
            if (isPunct(toks, m, '(') || isPunct(toks, m, '<'))
                ++depth;
            else if (isPunct(toks, m, ')') || isPunct(toks, m, '>'))
                --depth;
            else if (depth == 0 && isPunct(toks, m, ','))
                names.emplace_back();
            else if (depth == 0 && isIdentTok(toks, m))
                names.back() = toks[m].text;
        }
        if (!names.empty())
            lam.indexParam = names[0];
        if (names.size() > 1)
            lam.workerParam = names[1];
        after = pClose + 1;
    }

    // Skip `mutable noexcept -> Type` to the body.
    int guard = 0;
    while (after < toks.size() && guard++ < 32 &&
           !isPunct(toks, after, '{')) {
        if (isPunct(toks, after, '(')) {
            std::size_t e = matchForward(toks, after);
            if (e >= toks.size())
                return false;
            after = e + 1;
        } else {
            ++after;
        }
    }
    if (!isPunct(toks, after, '{'))
        return false;
    std::size_t bodyClose = matchForward(toks, after);
    if (bodyClose >= toks.size())
        return false;
    lam.bodyBegin = after + 1;
    lam.bodyEnd = bodyClose;
    return true;
}

/** Lambda literals handed to pool fan-out entry points. */
void
extractPoolLambdas(const ProjectModel::File &f, std::size_t file_index,
                   std::vector<PoolLambda> &out)
{
    static const std::set<std::string> callees = {
        "parallelFor", "runGrid", "parallelForWorker", "runGridWorker",
    };
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdentTok(toks, i) || !callees.count(toks[i].text) ||
            !isPunct(toks, i + 1, '('))
            continue;
        std::size_t argClose = matchForward(toks, i + 1);
        if (argClose >= toks.size())
            continue;
        for (std::size_t m = i + 2; m < argClose; ++m) {
            if (!isPunct(toks, m, '[') ||
                !(isPunct(toks, m - 1, '(') || isPunct(toks, m - 1, ',')))
                continue;
            PoolLambda lam;
            lam.callee = toks[i].text;
            lam.file = f.path;
            lam.line = toks[m].line;
            lam.fileIndex = file_index;
            if (parseLambda(toks, m, lam))
                out.push_back(std::move(lam));
            break; // one lambda per call site
        }
    }
}

// ---------------------------------------------------------------------
// Phase 2: passes
// ---------------------------------------------------------------------

/** Routes pass findings through the suppression machinery. */
class PassReporter
{
  public:
    PassReporter(ProjectModel &project_model,
                 std::vector<Finding> &findings_out)
        : model(project_model), findings(findings_out)
    {
        for (std::size_t i = 0; i < model.files.size(); ++i)
            index[model.files[i].path] = i;
    }

    void
    report(const std::string &pass, const std::string &file, int line,
           const std::string &message)
    {
        auto it = index.find(file);
        if (it != index.end()) {
            const LexedFile &lex = model.files[it->second].lex;
            int allowLine = lex.allowLineFor(pass, line);
            if (allowLine != 0) {
                model.audit.recordUse(file, allowLine, pass);
                return;
            }
        }
        findings.push_back({pass, file, line, message});
    }

  private:
    ProjectModel &model;
    std::map<std::string, std::size_t> index;
    std::vector<Finding> &findings;
};

/**
 * parallel-capture: a by-reference capture mutated inside a pool
 * lambda races across workers unless every access is disjoint by the
 * index/worker parameter, the target is atomic (or a StatCounter /
 * StatGauge, which are atomic by construction), or the body takes a
 * lock.
 */
void
passParallelCapture(ProjectModel &model, PassReporter &rep)
{
    for (const PoolLambda &lam : model.poolLambdas) {
        const std::vector<Token> &toks =
            model.files[lam.fileIndex].lex.tokens;

        bool locked = false;
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (isIdent(toks, m, "lock_guard") ||
                isIdent(toks, m, "unique_lock") ||
                isIdent(toks, m, "scoped_lock"))
                locked = true;
        }
        if (locked)
            continue;

        // Locals declared in the body shadow or replace captures.
        std::set<std::string> locals;
        if (!lam.indexParam.empty())
            locals.insert(lam.indexParam);
        if (!lam.workerParam.empty())
            locals.insert(lam.workerParam);
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (!isIdentTok(toks, m) || isKeyword(toks[m].text))
                continue;
            bool prevOK =
                m > 0 && (isIdentTok(toks, m - 1) ||
                          isPunct(toks, m - 1, '&') ||
                          isPunct(toks, m - 1, '*') ||
                          isPunct(toks, m - 1, '>'));
            bool nextOK = isPunct(toks, m + 1, '=') ||
                          isPunct(toks, m + 1, ';') ||
                          isPunct(toks, m + 1, '{') ||
                          isPunct(toks, m + 1, ':') ||
                          (isPunct(toks, m + 1, '(') &&
                           isIdentTok(toks, m - 1));
            if (prevOK && nextOK)
                locals.insert(toks[m].text);
        }

        // Declaration-proximity atomics: `std::atomic<int> hits`,
        // `StatCounter &c`. Checked against the whole file so the
        // declaration may sit outside the lambda.
        std::map<std::string, bool> atomicMemo;
        auto isAtomicName = [&](const std::string &v) {
            auto memo = atomicMemo.find(v);
            if (memo != atomicMemo.end())
                return memo->second;
            bool found = false;
            for (std::size_t m = 0; m < toks.size() && !found; ++m) {
                if (!isIdentTok(toks, m) || toks[m].text != v)
                    continue;
                std::size_t lo = m >= 8 ? m - 8 : 0;
                for (std::size_t r = lo; r < m; ++r) {
                    if (isIdentTok(toks, r) &&
                        (toks[r].text.rfind("atomic", 0) == 0 ||
                         toks[r].text == "StatCounter" ||
                         toks[r].text == "StatGauge")) {
                        found = true;
                        break;
                    }
                }
            }
            atomicMemo[v] = found;
            return found;
        };

        std::set<std::string> flagged;
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (!isIdentTok(toks, m) || isKeyword(toks[m].text))
                continue;
            // `row.field = x` mutates through `row`; the field name
            // is not a variable of its own.
            if (m > 0 && (isPunct(toks, m - 1, '.') ||
                          (m > 1 && isPunct(toks, m - 2, '-') &&
                           isPunct(toks, m - 1, '>'))))
                continue;
            const std::string &v = toks[m].text;
            if (locals.count(v) || flagged.count(v))
                continue;
            bool byRef = lam.byRefDefault;
            for (const Capture &cap : lam.captures) {
                if (cap.name == v) {
                    byRef = cap.byRef;
                    break;
                }
            }
            if (!byRef)
                continue;

            bool mutation = false;
            bool disjoint = false;
            std::string how = "assignment";
            // Prefix increment/decrement.
            if (m >= 2 && ((isPunct(toks, m - 2, '+') &&
                            isPunct(toks, m - 1, '+')) ||
                           (isPunct(toks, m - 2, '-') &&
                            isPunct(toks, m - 1, '-')))) {
                mutation = true;
                how = "increment";
            }
            // Walk the access chain: subscripts, member accesses.
            std::size_t q = m + 1;
            bool viaPointer = false;
            while (!mutation && q < lam.bodyEnd) {
                if (isPunct(toks, q, '[')) {
                    std::size_t e = matchForward(toks, q);
                    if (e >= toks.size())
                        break;
                    for (std::size_t r = q + 1; r < e; ++r) {
                        if (isIdentTok(toks, r) &&
                            ((!lam.indexParam.empty() &&
                              toks[r].text == lam.indexParam) ||
                             (!lam.workerParam.empty() &&
                              toks[r].text == lam.workerParam)))
                            disjoint = true;
                    }
                    q = e + 1;
                    continue;
                }
                if (isPunct(toks, q, '.') && isIdentTok(toks, q + 1)) {
                    if (isMutatorMethod(toks[q + 1].text) &&
                        isPunct(toks, q + 2, '(')) {
                        mutation = true;
                        how = "." + toks[q + 1].text + "()";
                        break;
                    }
                    q += 2;
                    continue;
                }
                if (isPunct(toks, q, '-') && isPunct(toks, q + 1, '>')) {
                    viaPointer = true; // pointee, not the capture
                    break;
                }
                break;
            }
            if (viaPointer)
                continue;
            if (!mutation && q < lam.bodyEnd) {
                if (isPunct(toks, q, '=') && !isPunct(toks, q + 1, '=')) {
                    mutation = true;
                } else if ((isPunct(toks, q, '+') ||
                            isPunct(toks, q, '-')) &&
                           toks[q].text == toks[q + 1].text) {
                    mutation = true; // postfix ++/--
                    how = "increment";
                } else {
                    static const std::string ops = "+-*/%&|^";
                    if (toks[q].kind == TokKind::Punct &&
                        ops.find(toks[q].text[0]) != std::string::npos &&
                        isPunct(toks, q + 1, '=') &&
                        !isPunct(toks, q + 2, '=')) {
                        mutation = true;
                        how = "compound assignment";
                    } else if ((isPunct(toks, q, '<') ||
                                isPunct(toks, q, '>')) &&
                               toks[q].text == toks[q + 1].text &&
                               isPunct(toks, q + 2, '=')) {
                        mutation = true;
                        how = "shift assignment";
                    }
                }
            }
            if (!mutation || disjoint || isAtomicName(v))
                continue;
            flagged.insert(v);
            rep.report(
                "parallel-capture", lam.file, toks[m].line,
                "'" + v + "' is captured by reference and mutated (" +
                    how + ") inside a " + lam.callee +
                    " lambda without index-disjoint access, atomics, "
                    "or a lock; concurrent workers race on it");
        }
    }
}

/**
 * hot-path-allocation: walk the name-matched call graph from the
 * per-cycle/per-trial roots and flag allocation-shaped sites in
 * reachable functions. The domain is library code minus the
 * offline/tooling modules (lint, validate, harness) and minus the
 * logging/trace/stat/JSON plumbing, whose costs are init-time or
 * gated off the measured path.
 */
void
passHotPathAllocation(ProjectModel &model, PassReporter &rep)
{
    auto inDomain = [](const FunctionDef &fn) {
        std::vector<std::string> parts = pathComponents(fn.file);
        if (!hasComponent(parts, "src"))
            return false;
        std::string mod = srcModule(parts);
        if (mod == "lint" || mod == "validate" || mod == "harness")
            return false;
        static const std::vector<std::string> plumbing = {
            "common/json.hh",          "common/json.cc",
            "common/log.hh",           "common/log.cc",
            "common/event_trace.hh",   "common/event_trace.cc",
            "common/stat_registry.hh", "common/stat_registry.cc",
            "common/profile.hh",       "common/profile.cc",
            "common/stat_snapshot.hh", "common/stat_snapshot.cc",
        };
        for (const std::string &suffix : plumbing) {
            if (endsWith(fn.file, suffix))
                return false;
        }
        return true;
    };

    std::map<std::string, std::vector<std::size_t>> byBare;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
        if (inDomain(model.functions[i]))
            byBare[model.functions[i].bare].push_back(i);
    }

    std::vector<std::size_t> queue;
    std::map<std::size_t, std::size_t> parent; // child -> caller
    std::set<std::size_t> visited;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
        const FunctionDef &fn = model.functions[i];
        if (!inDomain(fn))
            continue;
        if (fn.qual == "SmtCpu::step" || fn.qual == "SmtCpu::run" ||
            fn.bare == "runTrialEpoch") {
            queue.push_back(i);
            visited.insert(i);
        }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        std::size_t cur = queue[head];
        const std::string &callerFile = model.functions[cur].file;
        for (const CallRef &call : model.functions[cur].calls) {
            auto targets = byBare.find(call.name);
            if (targets == byBare.end())
                continue;
            // A bare name defined in several files is ambiguous
            // (generic method names like `run`); following every
            // candidate would mark half the library reachable. Such
            // calls resolve only within the caller's own file; a
            // project-unique name resolves anywhere.
            std::set<std::string> defFiles;
            for (std::size_t t : targets->second)
                defFiles.insert(model.functions[t].file);
            bool ambiguous = defFiles.size() > 1;
            for (std::size_t t : targets->second) {
                if (visited.count(t))
                    continue;
                if (ambiguous &&
                    model.functions[t].file != callerFile)
                    continue;
                visited.insert(t);
                parent[t] = cur;
                queue.push_back(t);
            }
        }
    }

    for (std::size_t i : queue) {
        const FunctionDef &fn = model.functions[i];
        if (fn.allocs.empty())
            continue;
        // Root -> ... -> fn chain for the message.
        std::vector<std::string> chain{fn.qual};
        std::size_t cur = i;
        int guard = 0;
        while (parent.count(cur) && guard++ < 32) {
            cur = parent.at(cur);
            chain.push_back(model.functions[cur].qual);
        }
        std::reverse(chain.begin(), chain.end());
        std::string via;
        for (std::size_t c = 0; c < chain.size(); ++c)
            via += (c == 0 ? "" : " -> ") + chain[c];
        for (const AllocSite &alloc : fn.allocs) {
            rep.report("hot-path-allocation", fn.file, alloc.line,
                       "'" + alloc.what + "' in " + fn.qual +
                           " allocates or grows on the per-cycle/"
                           "per-trial path (" + via +
                           "); preallocate, reserve, or hoist out of "
                           "the loop");
        }
    }
}

/**
 * stale-suppression: an allow marker that suppressed nothing across
 * the lint rules and the analyzer passes is dead weight — usually a
 * leftover from code that moved — and hides future regressions on
 * its line. Must run after every other pass has recorded its uses.
 */
void
passStaleSuppression(ProjectModel &model, PassReporter &rep)
{
    for (const auto &[file, lines] : model.audit.allows) {
        auto usedIt = model.audit.used.find(file);
        static const std::set<std::pair<int, std::string>> kNoUses;
        const auto &used =
            usedIt == model.audit.used.end() ? kNoUses : usedIt->second;
        for (const auto &[line, rules] : lines) {
            for (const std::string &rule : rules) {
                if (used.count({line, rule}))
                    continue;
                rep.report("stale-suppression", file, line,
                           "allow(" + rule +
                               ") suppresses no " + rule +
                               " finding on this or the next line; "
                               "delete the stale marker");
            }
        }
    }
}

} // namespace

std::vector<std::string>
passNames()
{
    return {
        "parallel-capture",
        "hot-path-allocation",
        "stale-suppression",
    };
}

ProjectModel
buildProjectModel(const std::vector<SourceUnit> &units)
{
    ProjectModel model;
    // The lint-rule run seeds the suppression audit: which markers
    // exist, and which already earn their keep against lint rules.
    lintUnits(units, &model.audit);

    model.files.reserve(units.size());
    for (const auto &[path, content] : units)
        model.files.push_back(
            {path, pathComponents(path), lexFile(content)});

    for (std::size_t i = 0; i < model.files.size(); ++i) {
        const ProjectModel::File &f = model.files[i];
        extractFunctions(f, model.functions);
        extractPoolLambdas(f, i, model.poolLambdas);
    }
    return model;
}

std::vector<Finding>
runAnalysisPasses(ProjectModel &model)
{
    std::vector<Finding> findings;
    PassReporter rep(model, findings);
    passParallelCapture(model, rep);
    passHotPathAllocation(model, rep);
    passStaleSuppression(model, rep); // last: consumes remaining uses
    sortAnalysisFindings(findings);
    return findings;
}

std::vector<Finding>
analyzeUnits(const std::vector<SourceUnit> &units)
{
    ProjectModel model = buildProjectModel(units);
    return runAnalysisPasses(model);
}

std::vector<Finding>
analyzePaths(const std::vector<std::string> &paths, std::string &error)
{
    std::vector<std::string> files;
    if (!collectSourceFiles(paths, files, error))
        return {};

    std::vector<SourceUnit> units;
    units.reserve(files.size());
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            error = file + ": cannot read";
            return {};
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        units.emplace_back(file, buf.str());
    }
    return analyzeUnits(units);
}

Json
analysisToJson(const std::vector<Finding> &findings)
{
    Json root = findingsToJson(findings);
    root.set("tool", Json("smthill_analyze"));
    Json passes = Json::array();
    for (const std::string &p : passNames())
        passes.push(Json(p));
    root.set("passes", std::move(passes));
    return root;
}

} // namespace lint
} // namespace smthill
