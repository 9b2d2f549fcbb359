#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/log.hh"

namespace smthill
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::Array)
        fatal("Json: items() on a non-array value");
    return arr;
}

Json &
Json::push(Json v)
{
    if (kind_ != Kind::Array)
        fatal("Json: push() on a non-array value");
    arr.push_back(std::move(v));
    return *this;
}

const Json &
Json::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        fatal(msg("Json: at('", key, "') on a non-object value"));
    for (const auto &[k, v] : obj)
        if (k == key)
            return v;
    fatal(msg("Json: missing key '", key, "'"));
}

bool
Json::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

Json &
Json::set(const std::string &key, Json v)
{
    if (kind_ != Kind::Object)
        fatal("Json: set() on a non-object value");
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (kind_ != Kind::Object)
        fatal("Json: members() on a non-object value");
    return obj;
}

std::size_t
Json::size() const
{
    switch (kind_) {
      case Kind::Array:
        return arr.size();
      case Kind::Object:
        return obj.size();
      case Kind::String:
        return strVal.size();
      default:
        return 0;
    }
}

bool
Json::operator==(const Json &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return boolVal == other.boolVal;
      case Kind::Number:
        return numVal == other.numVal;
      case Kind::String:
        return strVal == other.strVal;
      case Kind::Array:
        return arr == other.arr;
      case Kind::Object:
        return obj == other.obj;
    }
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

/** Shortest decimal that round-trips the double exactly. */
std::string
numberToString(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf; null is the lossless-ish out
    // Range first: converting a double past INT64_MAX is undefined.
    if (std::fabs(v) < 1e15 &&
        v == static_cast<double>(static_cast<std::int64_t>(v))) {
        return std::to_string(static_cast<std::int64_t>(v));
    }
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc{})
        return "0";
    return std::string(buf, ptr);
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolVal ? "true" : "false";
        break;
      case Kind::Number:
        out += numberToString(numVal);
        break;
      case Kind::String:
        out += '"';
        out += jsonEscape(strVal);
        out += '"';
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json &v : arr) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr.empty())
            newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            out += '"';
            out += jsonEscape(k);
            out += "\":";
            if (indent > 0)
                out += ' ';
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj.empty())
            newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// --------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        error = msg("JSON parse error at offset ", pos, ": ", what);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string::traits_type::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail(msg("expected '", word, "'"));
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text[pos] != '"')
            return fail("expected '\"'");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos];
            if (c == '\\') {
                if (pos + 1 >= text.size())
                    return fail("dangling escape");
                char e = text[++pos];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                      if (pos + 4 >= text.size())
                          return fail("truncated \\u escape");
                      unsigned code = 0;
                      for (int i = 0; i < 4; ++i) {
                          char h = text[pos + 1 + i];
                          code <<= 4;
                          if (h >= '0' && h <= '9')
                              code |= static_cast<unsigned>(h - '0');
                          else if (h >= 'a' && h <= 'f')
                              code |= static_cast<unsigned>(h - 'a' + 10);
                          else if (h >= 'A' && h <= 'F')
                              code |= static_cast<unsigned>(h - 'A' + 10);
                          else
                              return fail("bad \\u escape digit");
                      }
                      pos += 4;
                      // Encode as UTF-8 (surrogates unsupported;
                      // exports only emit control-char escapes).
                      if (code < 0x80) {
                          out += static_cast<char>(code);
                      } else if (code < 0x800) {
                          out += static_cast<char>(0xC0 | (code >> 6));
                          out += static_cast<char>(0x80 | (code & 0x3F));
                      } else {
                          out += static_cast<char>(0xE0 | (code >> 12));
                          out += static_cast<char>(0x80 |
                                                   ((code >> 6) & 0x3F));
                          out += static_cast<char>(0x80 | (code & 0x3F));
                      }
                      break;
                  }
                  default:
                      return fail("unknown escape");
                }
                ++pos;
            } else {
                out += c;
                ++pos;
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = Json();
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = Json(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = Json(false);
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos;
            out = Json::array();
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                Json v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated array");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos;
            out = Json::object();
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (pos >= text.size() || !parseString(key))
                    return fail("expected object key");
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                Json v;
                if (!parseValue(v))
                    return false;
                out.set(key, std::move(v));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated object");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        // Number.
        {
            const char *begin = text.data() + pos;
            const char *end = text.data() + text.size();
            double v = 0.0;
            auto [ptr, ec] = std::from_chars(begin, end, v);
            if (ec != std::errc{} || ptr == begin)
                return fail("expected a value");
            pos += static_cast<std::size_t>(ptr - begin);
            out = Json(v);
            return true;
        }
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        error = msg("JSON parse error: trailing data at offset ", p.pos);
        return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Field tables
// --------------------------------------------------------------------

namespace detail
{

bool
expected(const char *what, std::string &error)
{
    error = msg("expected ", what);
    return false;
}

bool
readJson(const Json &v, bool &out, std::string &error)
{
    if (!v.isBool())
        return expected("a bool", error);
    out = v.asBool();
    return true;
}

bool
readJson(const Json &v, double &out, std::string &error)
{
    if (v.isNull()) {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    if (!v.isNumber())
        return expected("a number", error);
    out = v.asDouble();
    return true;
}

bool
readJson(const Json &v, std::string &out, std::string &error)
{
    if (!v.isString())
        return expected("a string", error);
    out = v.asString();
    return true;
}

bool
readInteger(const Json &v, double lo, double hi, double &out,
            std::string &error)
{
    double d = v.isNumber() ? v.asDouble() : 0.5;
    if (std::trunc(d) != d || d < lo || d >= hi)
        return expected("an integer in range", error);
    out = d;
    return true;
}

bool
missingKey(const char *key, std::string &error)
{
    error = msg("missing key '", key, "'");
    return false;
}

bool
badKey(const char *key, std::string &error)
{
    error = msg("key '", key, "': ", error);
    return false;
}

bool
badItem(std::size_t index, std::string &error)
{
    error = msg("item ", index, ": ", error);
    return false;
}

bool
badConstant(const Json &v, const char *want, std::string &error)
{
    error = msg("expected \"", want, "\", found ", v.dump());
    return false;
}

} // namespace detail

} // namespace smthill
