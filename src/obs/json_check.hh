/**
 * @file
 * Minimal JSON parser for validity checks and round-trip tests.
 *
 * This is deliberately not a general-purpose JSON library: it exists so
 * tests can prove that everything the simulator *writes* (JsonReport
 * bench records, the Chrome trace exporter) is well-formed and parses
 * back to the expected values, without adding a dependency. It accepts
 * strict RFC 8259 JSON (objects, arrays, strings with escapes including
 * \uXXXX, numbers, true/false/null) and rejects trailing garbage.
 *
 * The serving front ends decode untrusted wire lines with it too, so
 * container nesting is capped at kMaxJsonDepth: deeper input fails
 * like any other syntax error instead of exhausting the stack.
 */

#ifndef GMOMS_OBS_JSON_CHECK_HH
#define GMOMS_OBS_JSON_CHECK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gmoms
{

/** Deepest container nesting parseJson accepts. */
inline constexpr int kMaxJsonDepth = 64;

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** Exact source lexeme of a Number — `number` is a double, which
     *  silently rounds integers above 2^53 (values_checksum is a full
     *  uint64), so bit-exact consumers re-parse this instead. */
    std::string raw;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** First member named @p key; null when absent or not an object. */
    const JsonValue* find(const std::string& key) const;

    /** The value as an exact uint64, read from the raw lexeme; nullopt
     *  unless the lexeme is a non-negative integer (no sign, fraction
     *  or exponent) no larger than 2^64-1. */
    std::optional<std::uint64_t> exactUint64() const;

    /** exactUint64(), or @p fallback when it is nullopt. */
    std::uint64_t
    asUint64(std::uint64_t fallback = 0) const
    {
        return exactUint64().value_or(fallback);
    }
};

/**
 * Parse @p text as a single JSON value. Returns nullopt on any syntax
 * error (including trailing non-whitespace and nesting deeper than
 * kMaxJsonDepth); when @p error is non-null it receives a short
 * description with the byte offset.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error = nullptr);

} // namespace gmoms

#endif // GMOMS_OBS_JSON_CHECK_HH
