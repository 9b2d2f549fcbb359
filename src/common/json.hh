/**
 * @file
 * Minimal JSON value type with a writer and a parser.
 *
 * The observability layer exports machine-readable artifacts — stat
 * registry dumps, derived reports, per-epoch hill-climbing traces —
 * and the test suite round-trips them (export -> parse -> compare),
 * so both directions live here. The dialect is strict JSON except
 * that the writer emits non-finite doubles as null (JSON has no
 * representation for them) and the parser accepts no extensions.
 */

#ifndef SMTHILL_COMMON_JSON_HH
#define SMTHILL_COMMON_JSON_HH

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace smthill
{

/** One JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool v) : kind_(Kind::Bool), boolVal(v) {}
    Json(double v) : kind_(Kind::Number), numVal(v) {}
    Json(int v) : kind_(Kind::Number), numVal(v) {}
    Json(std::int64_t v)
        : kind_(Kind::Number), numVal(static_cast<double>(v))
    {
    }
    Json(std::uint64_t v)
        : kind_(Kind::Number), numVal(static_cast<double>(v))
    {
    }
    Json(const char *v) : kind_(Kind::String), strVal(v) {}
    Json(std::string v) : kind_(Kind::String), strVal(std::move(v)) {}

    /** @return an empty array value. */
    static Json array();

    /** @return an empty object value. */
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return boolVal; }
    double asDouble() const { return numVal; }
    std::int64_t asInt() const { return static_cast<std::int64_t>(numVal); }
    const std::string &asString() const { return strVal; }

    /** Array access; fatal if not an array. */
    const std::vector<Json> &items() const;

    /** Append to an array value (fatal if not an array). */
    Json &push(Json v);

    /** Object member access; fatal if absent or not an object. */
    const Json &at(const std::string &key) const;

    /** @return true if this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** @return the member @p key, or nullptr if absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Set an object member (fatal if not an object). */
    Json &set(const std::string &key, Json v);

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    std::size_t size() const;

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /**
     * Parse strict JSON from @p text.
     * @param error receives a message with offset on failure
     * @return the parsed value, or nullopt-like Null with error set
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

    bool operator==(const Json &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool boolVal = false;
    double numVal = 0.0;
    std::string strVal;
    std::vector<Json> arr;
    /** Insertion-ordered object members (stable export layout). */
    std::vector<std::pair<std::string, Json>> obj;
};

/** Escape @p s for embedding in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

// --------------------------------------------------------------------
// Field tables
// --------------------------------------------------------------------

/**
 * One row of a schema's field table: a JSON key and how that field
 * moves between a record of type @p R and Json. A versioned export
 * declares its fields once, as a constexpr array of rows in its
 * module, and its writer and reader are writeFields() and
 * readFields() over that array. So a key is spelled once, no field
 * is written without being read back, and a reader given a document
 * from disk rejects a missing or wrong-typed key by name instead of
 * reading a default.
 *
 * Rows come from jsonField (a scalar member), jsonRecord (a nested
 * object), jsonRecords (an array of nested objects), jsonConstant (a
 * fixed string such as a clock domain) and jsonSchema (the version
 * tag); a custom row supplies its own write and read.
 */
template <typename R>
struct JsonField
{
    const char *key;
    /** Store the field in @p value; false leaves the key out. */
    bool (*write)(const R &rec, Json &value);
    /** Load the field from @p value; false with @p error set. */
    bool (*read)(const Json &value, R &rec, std::string &error);
    /** An absent key leaves the record's default (else an error). */
    bool optional = false;
};

namespace detail
{

template <typename M>
struct MemberOf;

template <typename R, typename T>
struct MemberOf<T R::*>
{
    using Record = R;
    using Value = T;
};

template <auto Member>
using RecordOf = typename MemberOf<decltype(Member)>::Record;

template <auto Member>
using ValueOf = typename MemberOf<decltype(Member)>::Value;

bool readJson(const Json &v, bool &out, std::string &error);
bool readJson(const Json &v, double &out, std::string &error);
bool readJson(const Json &v, std::string &out, std::string &error);

/** Integral @p v within [lo, hi); false with @p error set otherwise. */
bool readInteger(const Json &v, double lo, double hi, double &out,
                 std::string &error);

/** "missing key" / "key: ..." wording shared by every reader. */
bool missingKey(const char *key, std::string &error);
bool badKey(const char *key, std::string &error);
bool badItem(std::size_t index, std::string &error);
bool badConstant(const Json &v, const char *want, std::string &error);
bool expected(const char *what, std::string &error);

} // namespace detail

/** A scalar as Json (integers of any width, double, bool, string). */
template <typename T>
Json
scalarToJson(const T &v)
{
    if constexpr (std::is_same_v<T, bool> ||
                  std::is_same_v<T, std::string>)
        return Json(v);
    else if constexpr (std::is_floating_point_v<T>)
        return Json(static_cast<double>(v));
    else if constexpr (std::is_signed_v<T>)
        return Json(static_cast<std::int64_t>(v));
    else
        return Json(static_cast<std::uint64_t>(v));
}

/**
 * Read a scalar of @p v's kind into @p out. Integers must be whole
 * numbers in the range of @p T; doubles also accept null, which the
 * writer emits for non-finite values, as NaN.
 */
template <typename T>
bool
scalarFromJson(const Json &v, T &out, std::string &error)
{
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        // max() + 1 rounds to the exact power of two above the range.
        using Lim = std::numeric_limits<T>;
        double d = 0.0;
        if (!detail::readInteger(v, static_cast<double>(Lim::min()),
                                 static_cast<double>(Lim::max()) + 1.0,
                                 d, error))
            return false;
        out = static_cast<T>(d);
        return true;
    } else {
        return detail::readJson(v, out, error);
    }
}

/** Serialize @p rec as one object member per row, in row order. */
template <typename R, typename Rows>
Json
writeFields(const Rows &rows, const R &rec)
{
    Json j = Json::object();
    for (const JsonField<R> &f : rows) {
        Json v;
        if (f.write(rec, v))
            j.set(f.key, std::move(v));
    }
    return j;
}

/**
 * Rebuild @p out from object @p j, row by row.
 * @return false with @p error naming the first missing or
 * wrong-typed key
 */
template <typename R, typename Rows>
bool
readFields(const Rows &rows, const Json &j, R &out, std::string &error)
{
    out = R{};
    if (!j.isObject())
        return detail::expected("an object", error);
    for (const JsonField<R> &f : rows) {
        const Json *v = j.find(f.key);
        if (!v) {
            if (f.optional)
                continue;
            return detail::missingKey(f.key, error);
        }
        if (!f.read(*v, out, error))
            return detail::badKey(f.key, error);
    }
    return true;
}

/** Row for a scalar member (number, bool or string). */
template <auto Member>
constexpr JsonField<detail::RecordOf<Member>>
jsonField(const char *key)
{
    using R = detail::RecordOf<Member>;
    return {key,
            [](const R &r, Json &v) {
                v = scalarToJson(r.*Member);
                return true;
            },
            [](const Json &v, R &r, std::string &error) {
                return scalarFromJson(v, r.*Member, error);
            }};
}

/** Row for a nested object member described by table @p Rows. */
template <auto Member, const auto &Rows>
constexpr JsonField<detail::RecordOf<Member>>
jsonRecord(const char *key)
{
    using R = detail::RecordOf<Member>;
    return {key,
            [](const R &r, Json &v) {
                v = writeFields(Rows, r.*Member);
                return true;
            },
            [](const Json &v, R &r, std::string &error) {
                return readFields(Rows, v, r.*Member, error);
            }};
}

/** Row for a vector member, one object per element, table @p Rows. */
template <auto Member, const auto &Rows>
constexpr JsonField<detail::RecordOf<Member>>
jsonRecords(const char *key)
{
    using R = detail::RecordOf<Member>;
    using Elem = typename detail::ValueOf<Member>::value_type;
    return {key,
            [](const R &r, Json &v) {
                v = Json::array();
                for (const Elem &e : r.*Member)
                    v.push(writeFields(Rows, e));
                return true;
            },
            [](const Json &v, R &r, std::string &error) {
                if (!v.isArray())
                    return detail::expected("an array", error);
                for (std::size_t i = 0; i < v.items().size(); ++i) {
                    Elem e;
                    if (!readFields(Rows, v.items()[i], e, error))
                        return detail::badItem(i, error);
                    (r.*Member).push_back(std::move(e));
                }
                return true;
            }};
}

/**
 * Row for a constant string: the writer emits @p Value, the reader
 * rejects any other value.
 */
template <typename R, const char *Value>
constexpr JsonField<R>
jsonConstant(const char *key)
{
    return {key,
            [](const R &, Json &v) {
                v = Json(Value);
                return true;
            },
            [](const Json &v, R &, std::string &error) {
                return v.isString() && v.asString() == Value
                           ? true
                           : detail::badConstant(v, Value, error);
            }};
}

/** The `"schema": Version` row that opens a versioned document. */
template <typename R, const char *Version>
constexpr JsonField<R>
jsonSchema()
{
    return jsonConstant<R, Version>("schema");
}

} // namespace smthill

#endif // SMTHILL_COMMON_JSON_HH
