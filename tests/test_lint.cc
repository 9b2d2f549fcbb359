/**
 * @file
 * Tests for the project linter (lint/lint.hh): every rule has a
 * must-flag and a must-pass fixture under tests/lint/fixtures/, and
 * each path carve-out exempts only its own files.
 *
 * Fixtures are linted under *synthetic* paths: path-scoped rules
 * (carve-outs, guard canonicalization) key off the
 * path handed to lintFile(), so fixture content can exercise any
 * rule from one on-disk directory — which the tree walker skips, so
 * the intentionally-failing files never dirty the `Lint` ctest run.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hh"

using namespace smthill;
using lint::Finding;

namespace
{

std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(SMTHILL_LINT_FIXTURES) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Lint fixture @p name under synthetic @p path. */
std::vector<Finding>
lintFixture(const std::string &name, const std::string &path)
{
    return lint::lintFile(path, fixture(name));
}

/** Expect >= 1 finding, every one of @p rule. */
void
expectFlagged(const std::string &name, const std::string &path,
              const std::string &rule)
{
    std::vector<Finding> findings = lintFixture(name, path);
    EXPECT_FALSE(findings.empty())
        << name << " must produce a " << rule << " finding";
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, rule)
            << name << " raised an unexpected rule at line " << f.line
            << ": " << f.message;
        EXPECT_EQ(f.file, path);
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
}

void
expectClean(const std::string &name, const std::string &path)
{
    std::vector<Finding> findings = lintFixture(name, path);
    EXPECT_TRUE(findings.empty())
        << name << " must lint clean; first: "
        << (findings.empty() ? "" : findings[0].message);
}

} // namespace

TEST(Lint, RuleCatalog)
{
    std::vector<std::string> rules = lint::ruleNames();
    EXPECT_EQ(rules.size(), 6u);
    for (const char *rule : {"no-wall-clock", "no-libc-random",
                             "no-unordered-container", "error-handling",
                             "cpu-copy-hot-path", "include-guard"}) {
        EXPECT_NE(std::find(rules.begin(), rules.end(), rule),
                  rules.end())
            << rule;
    }
}

TEST(Lint, NoWallClockFixtures)
{
    expectFlagged("no_wall_clock_flag.cc",
                  "src/fixture/no_wall_clock_flag.cc", "no-wall-clock");
    expectClean("no_wall_clock_pass.cc",
                "src/fixture/no_wall_clock_pass.cc");
}

TEST(Lint, ProfilerSourceIsExemptFromWallClockRule)
{
    // The host profiler is the one sanctioned steady-clock user: the
    // same clock-reading content lints clean under its own path and
    // keeps flagging everywhere else.
    std::vector<Finding> carved = lint::lintFile(
        "src/common/profile.cc", fixture("no_wall_clock_carveout.cc"));
    EXPECT_TRUE(carved.empty());

    expectFlagged("no_wall_clock_carveout.cc",
                  "src/fixture/no_wall_clock_carveout.cc",
                  "no-wall-clock");
}

TEST(Lint, NoLibcRandomFixtures)
{
    expectFlagged("no_libc_random_flag.cc",
                  "src/fixture/no_libc_random_flag.cc",
                  "no-libc-random");
    expectClean("no_libc_random_pass.cc",
                "src/fixture/no_libc_random_pass.cc");
}

TEST(Lint, RngSourceIsExemptFromDeterminismRules)
{
    // The same flagged content lints clean under the RNG's own path.
    std::vector<Finding> findings = lint::lintFile(
        "src/common/rng.cc", fixture("no_libc_random_flag.cc"));
    EXPECT_TRUE(findings.empty());
}

TEST(Lint, NoUnorderedContainerFixtures)
{
    expectFlagged("no_unordered_container_flag.cc",
                  "src/fixture/no_unordered_container_flag.cc",
                  "no-unordered-container");
    expectClean("no_unordered_container_pass.cc",
                "src/fixture/no_unordered_container_pass.cc");
}

TEST(Lint, ErrorHandlingFixtures)
{
    expectFlagged("error_handling_flag.cc",
                  "src/fixture/error_handling_flag.cc",
                  "error-handling");
    expectClean("error_handling_pass.cc",
                "src/fixture/error_handling_pass.cc");

    // new / delete[] / exit: three distinct findings. A `throw` is no
    // finding: the library builds with -fno-exceptions, so one there
    // does not compile.
    EXPECT_EQ(lintFixture("error_handling_flag.cc",
                          "src/fixture/error_handling_flag.cc")
                  .size(),
              3u);
    EXPECT_TRUE(lint::lintFile("src/fixture/throw.cc",
                               "void f() { throw 1; }\n")
                    .empty());
}

TEST(Lint, CpuCopyHotPathFixtures)
{
    expectFlagged("cpu_copy_hot_path_flag.cc",
                  "src/fixture/cpu_copy_hot_path_flag.cc",
                  "cpu-copy-hot-path");
    expectClean("cpu_copy_hot_path_pass.cc",
                "src/fixture/cpu_copy_hot_path_pass.cc");

    // Copy-init and direct-init both surface.
    EXPECT_EQ(lintFixture("cpu_copy_hot_path_flag.cc",
                          "src/fixture/cpu_copy_hot_path_flag.cc")
                  .size(),
              2u);

    // Bench loops are hot paths too; tests keep checkpoint value
    // semantics on purpose and are exempt, as is the arena itself.
    expectFlagged("cpu_copy_hot_path_flag.cc",
                  "bench/cpu_copy_hot_path_flag.cc",
                  "cpu-copy-hot-path");
    EXPECT_TRUE(lintFixture("cpu_copy_hot_path_flag.cc",
                            "tests/cpu_copy_hot_path_flag.cc")
                    .empty());
    EXPECT_TRUE(lintFixture("cpu_copy_hot_path_flag.cc",
                            "src/core/machine_arena.cc")
                    .empty());
}

TEST(Lint, IncludeGuardFixtures)
{
    expectFlagged("include_guard_flag.hh",
                  "src/fixture/include_guard_flag.hh", "include-guard");
    expectClean("include_guard_pass.hh",
                "src/fixture/include_guard_pass.hh");

    // #pragma once violates the house #ifndef convention.
    std::vector<Finding> pragma = lint::lintFile(
        "src/fixture/p.hh", "#pragma once\nstruct P {};\n");
    ASSERT_EQ(pragma.size(), 1u);
    EXPECT_EQ(pragma[0].rule, "include-guard");

    // The guard macro is path-canonical, so the passing content
    // flags when linted under a different path.
    std::vector<Finding> moved = lint::lintFile(
        "src/fixture/renamed.hh", fixture("include_guard_pass.hh"));
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0].rule, "include-guard");
}

TEST(Lint, LiteralsAndCommentsHideCode)
{
    // Banned names inside comments and literals (a raw string holding
    // a quote, an escaped quote, a digit-separated number) are not
    // code; lexing resumes after each, so the call on the last line
    // is found on its own line.
    std::vector<Finding> findings = lint::lintFile(
        "src/fixture/literals.cc",
        "// rand()\n"
        "/* srand(1);\n   time(0); */\n"
        "const char *a = R\"x(rand() \")x\";\n"
        "const char *b = \"\\\" rand()\";\n"
        "long c = 1'000'000; char d = '\\'';\n"
        "int e = rand();\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-libc-random");
    EXPECT_EQ(findings[0].line, 7);

    // Unterminated comments and literals end the file, not the lexer.
    for (const char *cut : {"/* rand()", "\"rand()", "R\"x(rand()"})
        EXPECT_TRUE(lint::lintFile("src/fixture/cut.cc", cut).empty());
}

TEST(Lint, LintPathsWalksAndReportsErrors)
{
    // The fixture directory lints clean when reached through the
    // walker: directories named `fixtures` are skipped, which is
    // what keeps the tree-wide Lint ctest green.
    std::string error;
    std::vector<Finding> viaParent = lint::lintPaths(
        {std::string(SMTHILL_LINT_FIXTURES) + "/.."}, error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(viaParent.empty());

    // Passing the fixture directory explicitly lints its contents.
    std::vector<Finding> direct =
        lint::lintPaths({SMTHILL_LINT_FIXTURES}, error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(direct.empty());

    // Unknown paths surface as errors, not findings.
    std::vector<Finding> missing =
        lint::lintPaths({"/nonexistent/smthill"}, error);
    EXPECT_TRUE(missing.empty());
    EXPECT_FALSE(error.empty());
}
