/**
 * @file
 * Tests for the cross-TU analyzer (lint/analyze.hh): the phase-1
 * project model (call-graph edges, pool-lambda capture extraction),
 * each phase-2 pass against its must-flag / must-pass fixture pair
 * under tests/lint/fixtures/, and the smthill.lint.v1 JSON
 * round-trip of analyzer findings.
 *
 * Fixtures are analyzed under *synthetic* paths, exactly like
 * test_lint.cc: the hot-path domain keys off the path handed to
 * analyzeUnits, so fixture content can stand in for any module from
 * one on-disk directory (which the tree walker skips, keeping the
 * Analyze ctest run clean).
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "lint/analyze.hh"

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

lint::SourceUnit
unit(const std::string &path, const std::string &fixtureName)
{
    return {path, fixture(fixtureName)};
}

/** Every finding must carry @p rule (and nothing else may fire). */
void
expectOnlyRule(const std::vector<Finding> &findings,
               const std::string &rule)
{
    EXPECT_FALSE(findings.empty()) << "expected a " << rule << " finding";
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << ": "
                                << f.message;
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
}

TEST(Analyze, PassNamesAreTheThreeDocumentedPasses)
{
    std::vector<std::string> names = lint::passNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_NE(std::find(names.begin(), names.end(), "parallel-capture"),
              names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "hot-path-allocation"),
        names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "stale-suppression"),
        names.end());
}

// ---------------------------------------------------------------
// Phase 1: project model
// ---------------------------------------------------------------

TEST(AnalyzeModel, CallGraphRecordsDefinitionsAndEdges)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/core/graph.cc",
          "void alpha() { beta(); }\n"
          "void beta() { gamma(1); gamma(2); }\n"
          "int gamma(int x) { return x; }\n"}});

    auto find = [&](const std::string &bare) -> const lint::FunctionDef * {
        for (const lint::FunctionDef &f : m.functions)
            if (f.bare == bare)
                return &f;
        return nullptr;
    };
    const lint::FunctionDef *alpha = find("alpha");
    const lint::FunctionDef *beta = find("beta");
    const lint::FunctionDef *gamma = find("gamma");
    ASSERT_NE(alpha, nullptr);
    ASSERT_NE(beta, nullptr);
    ASSERT_NE(gamma, nullptr);

    ASSERT_EQ(alpha->calls.size(), 1u);
    EXPECT_EQ(alpha->calls[0].name, "beta");
    ASSERT_EQ(beta->calls.size(), 2u);
    EXPECT_EQ(beta->calls[0].name, "gamma");
    EXPECT_EQ(beta->calls[1].name, "gamma");
    EXPECT_TRUE(gamma->calls.empty());
    EXPECT_EQ(alpha->file, "src/core/graph.cc");
}

TEST(AnalyzeModel, QualifiedDefinitionKeepsBothNames)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/pipeline/fake.cc",
          "void SmtCpu::step() { tick(); }\n"}});
    bool found = false;
    for (const lint::FunctionDef &f : m.functions) {
        if (f.qual != "SmtCpu::step")
            continue;
        found = true;
        EXPECT_EQ(f.bare, "step");
    }
    EXPECT_TRUE(found) << "qualified definition missing from model";
}

TEST(AnalyzeModel, PoolLambdaCapturesAndParamsExtracted)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/core/fanout.cc",
          "void f(ThreadPool &pool, int x, int y) {\n"
          "    pool.parallelForWorker(8,\n"
          "        [&x, y](std::size_t i, int w) { use(x, y, i, w); });\n"
          "}\n"}});
    ASSERT_EQ(m.poolLambdas.size(), 1u);
    const lint::PoolLambda &pl = m.poolLambdas[0];
    EXPECT_EQ(pl.callee, "parallelForWorker");
    EXPECT_FALSE(pl.byRefDefault);
    ASSERT_EQ(pl.captures.size(), 2u);
    EXPECT_EQ(pl.captures[0].name, "x");
    EXPECT_TRUE(pl.captures[0].byRef);
    EXPECT_EQ(pl.captures[1].name, "y");
    EXPECT_FALSE(pl.captures[1].byRef);
    EXPECT_EQ(pl.indexParam, "i");
    EXPECT_EQ(pl.workerParam, "w");
}

// ---------------------------------------------------------------
// Phase 2: fire/pass fixture pairs
// ---------------------------------------------------------------

TEST(AnalyzePasses, ParallelCaptureFlagAndPass)
{
    std::vector<Finding> fire = lint::analyzeUnits(
        {unit("src/core/racy.cc", "parallel_capture_flag.cc")});
    expectOnlyRule(fire, "parallel-capture");
    // Both the reduction ('sum') and the growth ('rows') must fire.
    EXPECT_EQ(fire.size(), 2u);

    EXPECT_TRUE(lint::analyzeUnits({unit("src/core/tidy.cc",
                                         "parallel_capture_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, HotPathAllocationFlagAndPass)
{
    std::vector<Finding> fire = lint::analyzeUnits(
        {unit("src/pipeline/fetch_q.cc", "hot_path_alloc_flag.cc")});
    expectOnlyRule(fire, "hot-path-allocation");
    ASSERT_EQ(fire.size(), 1u);
    // The finding names the reachability chain from the root.
    EXPECT_NE(fire[0].message.find("SmtCpu::step"), std::string::npos)
        << fire[0].message;
    EXPECT_NE(fire[0].message.find("refill"), std::string::npos);

    EXPECT_TRUE(lint::analyzeUnits({unit("src/pipeline/fetch_q.cc",
                                         "hot_path_alloc_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, HotPathDomainExcludesTestsAndValidate)
{
    // The same growth shape outside the hot-path domain stays clean:
    // tests are not simulation inner loops, and validate/ is
    // explicitly carved out of the domain.
    EXPECT_TRUE(lint::analyzeUnits({unit("tests/test_fetch_q.cc",
                                         "hot_path_alloc_flag.cc")})
                    .empty());
    EXPECT_TRUE(lint::analyzeUnits({unit("src/validate/fetch_q.cc",
                                         "hot_path_alloc_flag.cc")})
                    .empty());
}

TEST(AnalyzePasses, StaleSuppressionFlagAndPass)
{
    std::vector<Finding> fire = lint::analyzeUnits(
        {unit("src/core/stale.cc", "stale_suppression_flag.cc")});
    expectOnlyRule(fire, "stale-suppression");
    ASSERT_EQ(fire.size(), 1u);
    EXPECT_NE(fire[0].message.find("parallel-capture"),
              std::string::npos);

    EXPECT_TRUE(lint::analyzeUnits({unit("src/core/live.cc",
                                         "stale_suppression_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, SuppressionOnlyCoversTheNamedPass)
{
    // An allow(hot-path-allocation) marker does not silence a
    // parallel-capture finding on the same line.
    std::vector<Finding> fire = lint::analyzeUnits(
        {{"src/core/racy.cc",
          "void f(ThreadPool &pool) {\n"
          "    int n = 0;\n"
          "    pool.parallelFor(4, [&](std::size_t) { n++; }); "
          "// smthill-lint: allow(hot-path-allocation)\n"
          "}\n"}});
    ASSERT_EQ(fire.size(), 2u);
    // The race still fires, and the marker itself goes stale.
    EXPECT_EQ(fire[0].rule, "parallel-capture");
    EXPECT_EQ(fire[1].rule, "stale-suppression");
}

// ---------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------

TEST(AnalyzeJson, FindingsRoundTripThroughLintV1)
{
    std::vector<Finding> fire = lint::analyzeUnits(
        {unit("src/core/racy.cc", "parallel_capture_flag.cc"),
         unit("src/pipeline/fetch_q.cc", "hot_path_alloc_flag.cc")});
    ASSERT_FALSE(fire.empty());

    Json doc = lint::analysisToJson(fire);
    EXPECT_EQ(doc.at("schema").asString(), "smthill.lint.v1");
    EXPECT_EQ(doc.at("tool").asString(), "smthill_analyze");
    EXPECT_EQ(doc.at("passes").size(), lint::passNames().size());

    // The analyzer extensions must not break the shared reader.
    std::string error;
    std::vector<Finding> back;
    ASSERT_TRUE(lint::findingsFromJson(doc, back, error)) << error;
    ASSERT_EQ(back.size(), fire.size());
    for (std::size_t i = 0; i < fire.size(); ++i) {
        EXPECT_EQ(back[i].file, fire[i].file);
        EXPECT_EQ(back[i].line, fire[i].line);
        EXPECT_EQ(back[i].rule, fire[i].rule);
        EXPECT_EQ(back[i].message, fire[i].message);
    }

    // Serialization survives a text round-trip too.
    Json reparsed;
    ASSERT_TRUE(Json::parse(doc.dump(2), reparsed, error)) << error;
    std::vector<Finding> again;
    ASSERT_TRUE(lint::findingsFromJson(reparsed, again, error)) << error;
    EXPECT_EQ(again.size(), fire.size());
}

} // namespace
