/**
 * @file
 * Minimal JSON value model and recursive-descent parser.
 *
 * The serving stack emits JSON in several places (stats snapshots,
 * flight-recorder dumps, Chrome traces); the tools that read them back
 * (tools/dac_top, the trace parse-back tests) need a parser, and the
 * container has no third-party JSON library. This one covers the full
 * JSON grammar the project writes: objects, arrays, strings with the
 * standard escapes, numbers, booleans, null. The documents it reads
 * may come off the wire (dac_top parses the server's Stats and
 * FlightDump bodies), so it treats its input as untrusted: every
 * defect, including nesting deeper than 64 levels, throws JsonError
 * with the byte offset. There is no streaming mode.
 */

#ifndef DAC_SUPPORT_JSON_H
#define DAC_SUPPORT_JSON_H

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dac {

/** A document that is not valid JSON (offset says where). */
struct JsonError : std::runtime_error
{
    explicit JsonError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/**
 * One parsed JSON value; a tagged union over the seven JSON kinds.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    /** Insertion order is not preserved; the project's documents never
     *  rely on key order. */
    std::map<std::string, JsonValue> fields;

    [[nodiscard]] bool isObject() const { return kind == Kind::Object; }
    [[nodiscard]] bool isArray() const { return kind == Kind::Array; }
    [[nodiscard]] bool isNumber() const { return kind == Kind::Number; }
    [[nodiscard]] bool isString() const { return kind == Kind::String; }

    /** True when this object has `key`. */
    [[nodiscard]] bool has(const std::string &key) const;

    /** Field lookup; throws JsonError on missing key or non-object. */
    [[nodiscard]] const JsonValue &at(const std::string &key) const;

    /** Number value of field `key`, or `fallback` when absent. */
    [[nodiscard]] double numberAt(const std::string &key,
                                  double fallback = 0.0) const;

    /** String value of field `key`, or `fallback` when absent. */
    [[nodiscard]] std::string
    stringAt(const std::string &key,
             const std::string &fallback = "") const;
};

/** Parse one JSON document (throws JsonError on any defect, including
 *  trailing non-whitespace). */
[[nodiscard]] JsonValue parseJson(const std::string &text);

/** JSON string escaping (quotes not included). */
[[nodiscard]] std::string jsonEscape(const std::string &text);

} // namespace dac

#endif // DAC_SUPPORT_JSON_H
