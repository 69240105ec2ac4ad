#include "support/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dac {

namespace {

/**
 * Deepest array/object nesting parseJson accepts. The parser recurses
 * once per level, and the documents it reads can arrive over the wire
 * (dac_top's Stats and FlightDump bodies, up to the 1-MiB frame
 * ceiling), so without a cap a run of '[' overflows the stack. The
 * project's own documents nest a few levels deep.
 */
constexpr int kMaxJsonDepth = 64;

/** Cursor over the document; every helper advances `at`. */
struct Parser
{
    const std::string &text;
    size_t at = 0;
    int depth = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError(what + " at offset " + std::to_string(at));
    }

    void
    skipWs()
    {
        while (at < text.size() &&
               (text[at] == ' ' || text[at] == '\t' || text[at] == '\n' ||
                text[at] == '\r'))
            ++at;
    }

    char
    peek() const
    {
        if (at >= text.size())
            fail("unexpected end of document");
        return text[at];
    }

    void
    expect(char c)
    {
        if (at >= text.size() || text[at] != c)
            fail(std::string("expected '") + c + "'");
        ++at;
    }

    bool
    consume(const std::string &word)
    {
        if (text.compare(at, word.size(), word) != 0)
            return false;
        at += word.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        const char c = peek();
        switch (c) {
        case '{':
        case '[': {
            if (++depth > kMaxJsonDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth));
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth;
            return v;
        }
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.text = parseString();
            return v;
        }
        case 't':
        case 'f': {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            if (consume("true"))
                v.boolean = true;
            else if (consume("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
        }
        case 'n': {
            if (!consume("null"))
                fail("bad literal");
            return JsonValue{};
        }
        default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++at;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.fields[std::move(key)] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++at;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++at;
            return v;
        }
        for (;;) {
            v.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++at;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (at >= text.size())
                fail("unterminated string");
            const char c = text[at++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at >= text.size())
                fail("unterminated escape");
            const char esc = text[at++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                if (at + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[at++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The project writes ASCII; fold BMP code points to
                // UTF-8 so foreign documents still parse.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out +=
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const size_t start = at;
        if (at < text.size() && text[at] == '-')
            ++at;
        while (at < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[at])) != 0 ||
                text[at] == '.' || text[at] == 'e' || text[at] == 'E' ||
                text[at] == '+' || text[at] == '-'))
            ++at;
        if (at == start)
            fail("expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        char *end = nullptr;
        const std::string token = text.substr(start, at - start);
        v.number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("bad number '" + token + "'");
        return v;
    }
};

} // namespace

bool
JsonValue::has(const std::string &key) const
{
    return kind == Kind::Object && fields.find(key) != fields.end();
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (kind != Kind::Object)
        throw JsonError("at(\"" + key + "\") on a non-object");
    const auto it = fields.find(key);
    if (it == fields.end())
        throw JsonError("missing key \"" + key + "\"");
    return it->second;
}

double
JsonValue::numberAt(const std::string &key, double fallback) const
{
    if (!has(key))
        return fallback;
    const JsonValue &v = at(key);
    return v.isNumber() ? v.number : fallback;
}

std::string
JsonValue::stringAt(const std::string &key,
                    const std::string &fallback) const
{
    if (!has(key))
        return fallback;
    const JsonValue &v = at(key);
    return v.isString() ? v.text : fallback;
}

JsonValue
parseJson(const std::string &text)
{
    Parser parser{text};
    JsonValue v = parser.parseValue();
    parser.skipWs();
    if (parser.at != text.size())
        parser.fail("trailing bytes after document");
    return v;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
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
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace dac
