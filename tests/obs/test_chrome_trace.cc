/** @file Tests for the Chrome trace_event exporter: the emitted JSON
 *  must parse back (checked with a minimal in-test parser) and carry
 *  every span, instant, and lane. */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"

namespace dac::obs {
namespace {

/**
 * A minimal recursive-descent JSON reader — just enough to verify the
 * exporter's output is well-formed without pulling in a dependency.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue missing;
        const auto it = fields.find(key);
        return it == fields.end() ? missing : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : text(text)
    {
    }

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing data");
        return value;
    }

    bool
    failed() const
    {
        return !error.empty();
    }

    std::string error;

  private:
    void
    fail(const std::string &why)
    {
        if (error.empty())
            error = why + " at offset " + std::to_string(pos);
        // Jump to the end so parsing unwinds quickly.
        pos = text.size();
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        if (pos >= text.size()) {
            fail("unexpected end");
            return {};
        }
        const char c = text[pos];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        JsonValue out;
        out.kind = JsonValue::Kind::Object;
        consume('{');
        if (consume('}'))
            return out;
        do {
            const JsonValue key = parseString();
            if (!consume(':'))
                fail("expected ':'");
            out.fields[key.text] = parseValue();
        } while (consume(','));
        if (!consume('}'))
            fail("expected '}'");
        return out;
    }

    JsonValue
    parseArray()
    {
        JsonValue out;
        out.kind = JsonValue::Kind::Array;
        consume('[');
        if (consume(']'))
            return out;
        do {
            out.items.push_back(parseValue());
        } while (consume(','));
        if (!consume(']'))
            fail("expected ']'");
        return out;
    }

    JsonValue
    parseString()
    {
        JsonValue out;
        out.kind = JsonValue::Kind::String;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out.text.push_back(c);
                continue;
            }
            if (pos >= text.size()) {
                fail("bad escape");
                return out;
            }
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.text.push_back('"'); break;
              case '\\': out.text.push_back('\\'); break;
              case '/': out.text.push_back('/'); break;
              case 'b': out.text.push_back('\b'); break;
              case 'f': out.text.push_back('\f'); break;
              case 'n': out.text.push_back('\n'); break;
              case 'r': out.text.push_back('\r'); break;
              case 't': out.text.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > text.size()) {
                    fail("bad \\u escape");
                    return out;
                }
                const int code =
                    std::stoi(text.substr(pos, 4), nullptr, 16);
                pos += 4;
                // The exporter only emits \u for control chars.
                out.text.push_back(static_cast<char>(code));
                break;
              }
              default: fail("unknown escape"); return out;
            }
        }
        if (pos >= text.size()) {
            fail("unterminated string");
            return out;
        }
        ++pos; // closing quote
        return out;
    }

    JsonValue
    parseBool()
    {
        JsonValue out;
        out.kind = JsonValue::Kind::Bool;
        if (text.compare(pos, 4, "true") == 0) {
            out.boolean = true;
            pos += 4;
        } else if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
        } else {
            fail("expected bool");
        }
        return out;
    }

    JsonValue
    parseNumber()
    {
        JsonValue out;
        out.kind = JsonValue::Kind::Number;
        size_t end = pos;
        while (end < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '-' || text[end] == '+' ||
                text[end] == '.' || text[end] == 'e' ||
                text[end] == 'E'))
            ++end;
        if (end == pos) {
            fail("expected number");
            return out;
        }
        out.number = std::stod(text.substr(pos, end - pos));
        pos = end;
        return out;
    }

    const std::string &text;
    size_t pos = 0;
};

TraceLog
sampleLog()
{
    TraceLog log;
    log.lanes.push_back({0, "main"});
    log.lanes.push_back({1, "pool-0"});

    TraceEvent root;
    root.name = "request";
    root.id = 1;
    root.startSec = 0.001;
    root.durSec = 0.5;
    root.attrs = {{"workload", "TS"}};
    log.events.push_back(root);

    TraceEvent child;
    child.name = "phase.collect";
    child.id = 2;
    child.parent = 1;
    child.lane = 1;
    child.startSec = 0.002;
    child.durSec = 0.25;
    log.events.push_back(child);

    TraceEvent marker;
    marker.name = "cache.miss";
    marker.isSpan = false;
    marker.id = 3;
    marker.parent = 1;
    marker.startSec = 0.0015;
    marker.attrs = {{"key", "TS|cluster|5"}};
    log.events.push_back(marker);
    return log;
}

TEST(ChromeTrace, ExportParsesBackWithEveryEvent)
{
    const std::string json = toChromeTraceJson(sampleLog());
    JsonParser parser(json);
    const JsonValue doc = parser.parse();
    ASSERT_FALSE(parser.failed()) << parser.error;

    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const auto &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);
    // 2 lane-name metadata + 2 spans/instants + 1 instant.
    ASSERT_EQ(events.items.size(), 5u);

    size_t metadata = 0, complete = 0, instants = 0;
    for (const auto &event : events.items) {
        const std::string ph = event.at("ph").text;
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(event.at("name").text, "thread_name");
        } else if (ph == "X") {
            ++complete;
            EXPECT_GE(event.at("dur").number, 0.0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(event.at("s").text, "t");
        }
    }
    EXPECT_EQ(metadata, 2u);
    EXPECT_EQ(complete, 2u);
    EXPECT_EQ(instants, 1u);
}

TEST(ChromeTrace, SpanFieldsSurviveTheRoundTrip)
{
    const std::string json = toChromeTraceJson(sampleLog());
    JsonParser parser(json);
    const JsonValue doc = parser.parse();
    ASSERT_FALSE(parser.failed()) << parser.error;

    const JsonValue *request = nullptr;
    for (const auto &event : doc.at("traceEvents").items) {
        if (event.at("name").text == "request")
            request = &event;
    }
    ASSERT_NE(request, nullptr);
    // ts/dur are microseconds.
    EXPECT_NEAR(request->at("ts").number, 1000.0, 0.01);
    EXPECT_NEAR(request->at("dur").number, 500000.0, 0.01);
    EXPECT_EQ(request->at("args").at("workload").text, "TS");
    EXPECT_NEAR(request->at("args").at("span_id").number, 1.0, 0.0);
}

TEST(ChromeTrace, HostileStringsAreEscaped)
{
    TraceLog log;
    log.lanes.push_back({0, "lane \"zero\"\n"});
    TraceEvent span;
    span.name = "weird \\ name\twith\ncontrol\x01chars";
    span.id = 1;
    span.attrs = {{"quote\"key", "value with \"quotes\" and \\slashes"}};
    log.events.push_back(span);

    const std::string json = toChromeTraceJson(log);
    JsonParser parser(json);
    const JsonValue doc = parser.parse();
    ASSERT_FALSE(parser.failed()) << parser.error;

    const JsonValue *found = nullptr;
    for (const auto &event : doc.at("traceEvents").items) {
        if (event.at("ph").text == "X")
            found = &event;
    }
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->at("name").text, span.name);
    EXPECT_EQ(found->at("args").at("quote\"key").text,
              span.attrs[0].second);
}

} // namespace
} // namespace dac::obs
