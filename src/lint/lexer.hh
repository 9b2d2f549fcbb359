/**
 * @file
 * Lightweight C++ lexer for the project linter (lint/lint.hh).
 *
 * This is not a compiler front end: it splits a source file into the
 * token classes the lint rules need — identifiers, literals,
 * punctuation, and whole preprocessor directives — while stripping
 * comments and recording `// smthill-lint: allow(<rule>)` suppression
 * markers with their line spans. Rules then pattern-match over the
 * token stream without ever confusing a keyword in a comment or a
 * string literal for real code.
 */

#ifndef SMTHILL_LINT_LEXER_HH
#define SMTHILL_LINT_LEXER_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace smthill
{
namespace lint
{

/** Token classes the rules distinguish. */
enum class TokKind
{
    Identifier, ///< identifiers and keywords
    Number,     ///< preprocessing numbers
    String,     ///< string literal; text is the raw inner bytes
    CharLit,    ///< character literal; text is the raw inner bytes
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

/** A lexed file: token stream plus suppression markers. */
struct LexedFile
{
    std::vector<Token> tokens;

    /**
     * Lines carrying `smthill-lint: allow(<rule>[, <rule>...])`
     * comments, mapped to the rule names they allow. A block comment
     * marks every line it spans.
     */
    std::map<int, std::set<std::string>> allows;

    /**
     * @return the line of the allow marker that suppresses a finding
     * of @p rule on @p line (the line itself or the line above), or
     * 0 when no marker applies. The stale-suppression rule uses this
     * to credit the exact marker a finding consumed.
     */
    int allowLineFor(const std::string &rule, int line) const;
};

/** Lex @p content (one file's bytes) into tokens and markers. */
LexedFile lexFile(const std::string &content);

} // namespace lint
} // namespace smthill

#endif // SMTHILL_LINT_LEXER_HH
