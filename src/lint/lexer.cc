#include "lint/lexer.hh"

#include <cctype>

namespace smthill
{
namespace lint
{

namespace
{

/**
 * Scan @p comment for `smthill-lint: allow(a, b)` and record the
 * allowed rule names for every line in [first_line, last_line].
 *
 * The marker must open the comment (only comment punctuation and
 * whitespace may precede it), so prose that merely *mentions* the
 * suppression syntax — doc comments quoting
 * `smthill-lint: allow(<rule>)` mid-sentence — never registers a
 * suppression. Without this, every documentation mention would be a
 * dead allow for the stale-suppression rule to flag.
 */
void
recordAllows(const std::string &comment, int first_line, int last_line,
             std::map<int, std::set<std::string>> &allows)
{
    const std::string marker = "smthill-lint:";
    std::size_t pos = comment.find(marker);
    if (pos == std::string::npos)
        return;
    for (std::size_t i = 0; i < pos; ++i) {
        char c = comment[i];
        if (c != '/' && c != '*' && c != '!' &&
            !std::isspace(static_cast<unsigned char>(c)))
            return; // marker quoted mid-comment, not a suppression
    }
    pos = comment.find("allow", pos + marker.size());
    if (pos == std::string::npos)
        return;
    std::size_t open = comment.find('(', pos);
    if (open == std::string::npos)
        return;
    std::size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return;

    std::set<std::string> rules;
    std::string name;
    for (std::size_t i = open + 1; i <= close; ++i) {
        char c = comment[i];
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_') {
            name.push_back(c);
        } else if (!name.empty()) {
            rules.insert(name);
            name.clear();
        }
    }
    for (int line = first_line; line <= last_line; ++line)
        allows[line].insert(rules.begin(), rules.end());
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

int
LexedFile::allowLineFor(const std::string &rule, int line) const
{
    for (int l : {line, line - 1}) {
        auto it = allows.find(l);
        if (it != allows.end() && it->second.count(rule))
            return l;
    }
    return 0;
}

LexedFile
lexFile(const std::string &content)
{
    LexedFile out;
    const std::size_t n = content.size();
    std::size_t i = 0;
    int line = 1;
    bool atLineStart = true;

    auto advance = [&](char c) {
        if (c == '\n') {
            ++line;
            atLineStart = true;
        }
    };

    while (i < n) {
        char c = content[i];

        if (c == '\n') {
            advance(c);
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Preprocessor directive: consume the logical line, joining
        // backslash continuations, and emit one Directive token.
        if (c == '#' && atLineStart) {
            int startLine = line;
            std::string text;
            while (i < n) {
                char d = content[i];
                if (d == '\\' && i + 1 < n && content[i + 1] == '\n') {
                    text.push_back(' ');
                    advance('\n');
                    i += 2;
                    continue;
                }
                if (d == '\n')
                    break;
                text.push_back(d);
                ++i;
            }
            out.tokens.push_back({TokKind::Directive, text, startLine});
            continue;
        }
        atLineStart = false;

        // Line comment; may carry a suppression marker.
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
            std::size_t end = content.find('\n', i);
            if (end == std::string::npos)
                end = n;
            recordAllows(content.substr(i, end - i), line, line,
                         out.allows);
            i = end;
            continue;
        }

        // Block comment; marks every spanned line.
        if (c == '/' && i + 1 < n && content[i + 1] == '*') {
            int startLine = line;
            std::size_t end = content.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            std::string body = content.substr(i, end - i);
            for (char d : body)
                advance(d);
            recordAllows(body, startLine, line, out.allows);
            i = end;
            continue;
        }

        // Raw string literal (plain R"( ... )" delimiters only).
        if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
            std::size_t open = content.find('(', i + 2);
            std::string delim =
                open == std::string::npos
                    ? std::string()
                    : content.substr(i + 2, open - (i + 2));
            std::string closer = ")" + delim + "\"";
            std::size_t end = open == std::string::npos
                                  ? std::string::npos
                                  : content.find(closer, open + 1);
            int startLine = line;
            if (end == std::string::npos) {
                end = n;
            } else {
                end += closer.size();
            }
            std::string inner;
            if (open != std::string::npos && end <= n &&
                end >= closer.size() && open + 1 <= end - closer.size())
                inner = content.substr(open + 1,
                                       end - closer.size() - (open + 1));
            for (std::size_t k = i; k < end; ++k)
                advance(content[k]);
            out.tokens.push_back({TokKind::String, inner, startLine});
            i = end;
            continue;
        }

        // String / char literal with backslash escapes.
        if (c == '"' || c == '\'') {
            char quote = c;
            int startLine = line;
            std::string inner;
            ++i;
            while (i < n) {
                char d = content[i];
                if (d == '\\' && i + 1 < n) {
                    inner.push_back(d);
                    inner.push_back(content[i + 1]);
                    advance(content[i + 1]);
                    i += 2;
                    continue;
                }
                if (d == quote) {
                    ++i;
                    break;
                }
                inner.push_back(d);
                advance(d);
                ++i;
            }
            out.tokens.push_back({quote == '"' ? TokKind::String
                                               : TokKind::CharLit,
                                  inner, startLine});
            continue;
        }

        if (isIdentStart(c)) {
            std::size_t start = i;
            while (i < n && isIdentChar(content[i]))
                ++i;
            out.tokens.push_back({TokKind::Identifier,
                                  content.substr(start, i - start), line});
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c))) {
            // Preprocessing number: digits, idents, quotes-as-digit
            // separators, and exponent signs.
            std::size_t start = i;
            while (i < n) {
                char d = content[i];
                if (isIdentChar(d) || d == '.' || d == '\'') {
                    ++i;
                } else if ((d == '+' || d == '-') && i > start &&
                           (content[i - 1] == 'e' ||
                            content[i - 1] == 'E' ||
                            content[i - 1] == 'p' ||
                            content[i - 1] == 'P')) {
                    ++i;
                } else {
                    break;
                }
            }
            out.tokens.push_back({TokKind::Number,
                                  content.substr(start, i - start), line});
            continue;
        }

        out.tokens.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }

    return out;
}

} // namespace lint
} // namespace smthill
