/** @file Tests for the minimal JSON parser the tooling reads with. */

#include <gtest/gtest.h>

#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/json.h"

namespace dac {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_EQ(parseJson("null").kind, JsonValue::Kind::Null);
    EXPECT_TRUE(parseJson("true").boolean);
    EXPECT_FALSE(parseJson("false").boolean);
    EXPECT_DOUBLE_EQ(parseJson("42").number, 42.0);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e3").number, -1500.0);
    EXPECT_EQ(parseJson("\"hi\"").text, "hi");
}

TEST(Json, ParsesNestedDocument)
{
    const JsonValue doc = parseJson(
        "{\"counters\": {\"requests.served\": 7},"
        " \"histograms\": {\"phase.search\":"
        " {\"count\": 3, \"p99\": 0.125}},"
        " \"records\": [1, 2, 3]}");
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(
        doc.at("counters").numberAt("requests.served"), 7.0);
    EXPECT_DOUBLE_EQ(
        doc.at("histograms").at("phase.search").numberAt("p99"), 0.125);
    ASSERT_TRUE(doc.at("records").isArray());
    ASSERT_EQ(doc.at("records").items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("records").items[2].number, 3.0);
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(parseJson("\"a\\\"b\\\\c\\n\\t\"").text, "a\"b\\c\n\t");
    EXPECT_EQ(parseJson("\"\\u0041\"").text, "A");
}

TEST(Json, EscapeAndParseRoundTrip)
{
    const std::string nasty = "quote\" slash\\ newline\n tab\t";
    std::string quoted = "\"";
    quoted += jsonEscape(nasty);
    quoted += '"';
    const JsonValue back = parseJson(quoted);
    EXPECT_EQ(back.text, nasty);
}

TEST(Json, EscapeHandlesControlCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
    // Backspace and form feed take the \u form, which parses back to
    // the same byte as the short \b and \f escapes do.
    EXPECT_EQ(jsonEscape("a\bb"), "a\\u0008b");
    EXPECT_EQ(jsonEscape("a\fb"), "a\\u000cb");
    for (const std::string text : {"a\bb", "a\fb"}) {
        std::string literal(1, '"');
        literal += jsonEscape(text);
        literal += '"';
        EXPECT_EQ(parseJson(literal).text, text);
    }
    EXPECT_EQ(parseJson("\"a\\bb\\fc\"").text, "a\bb\fc");
}

TEST(Json, LookupHelpersFallBack)
{
    const JsonValue doc = parseJson("{\"a\": 1, \"s\": \"x\"}");
    EXPECT_TRUE(doc.has("a"));
    EXPECT_FALSE(doc.has("missing"));
    EXPECT_DOUBLE_EQ(doc.numberAt("missing", 9.0), 9.0);
    EXPECT_EQ(doc.stringAt("missing", "d"), "d");
    EXPECT_EQ(doc.stringAt("s"), "x");
    EXPECT_THROW((void)doc.at("missing"), JsonError);
}

TEST(Json, RejectsMalformedDocuments)
{
    EXPECT_THROW((void)parseJson(""), JsonError);
    EXPECT_THROW((void)parseJson("{"), JsonError);
    EXPECT_THROW((void)parseJson("[1,]"), JsonError);
    EXPECT_THROW((void)parseJson("{\"a\" 1}"), JsonError);
    EXPECT_THROW((void)parseJson("\"unterminated"), JsonError);
    EXPECT_THROW((void)parseJson("1 trailing"), JsonError);
    EXPECT_THROW((void)parseJson("nul"), JsonError);
}

TEST(Json, NestingPastTheCapIsAnErrorWithItsOffset)
{
    // The parser recurses once per level. 100,000 '[' (100 KB, inside
    // the 1-MiB frame ceiling dac_top reads under) used to overflow
    // the stack; past 64 levels it is a JsonError at the 65th opener.
    const auto arrays = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    const auto objects = [](size_t depth) {
        std::string doc;
        for (size_t i = 0; i < depth; ++i)
            doc += "{\"k\": ";
        return doc + "0" + std::string(depth, '}');
    };
    EXPECT_NO_THROW((void)parseJson(arrays(64)));
    EXPECT_NO_THROW((void)parseJson(objects(64)));
    for (const size_t depth : {size_t{65}, size_t{100000}}) {
        for (const std::string &doc : {arrays(depth), objects(depth)}) {
            try {
                (void)parseJson(doc);
                ADD_FAILURE() << "accepted depth " << depth;
            } catch (const JsonError &e) {
                const size_t opener = doc[0] == '[' ? 64 : 64 * 6;
                EXPECT_NE(std::string(e.what()).find(
                              "at offset " + std::to_string(opener)),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

/** Every truncation of `doc`, and `doc` with each byte set to 0x00 and
 *  to 0xff: each must parse or throw JsonError, nothing else. */
void
expectValueOrJsonError(const std::string &doc, const char *what)
{
    ASSERT_NO_THROW((void)parseJson(doc)) << what;
    const auto parse = [](const std::string &text) {
        try {
            (void)parseJson(text);
        } catch (const JsonError &) {
        }
    };
    for (size_t len = 0; len < doc.size(); ++len)
        ASSERT_NO_THROW(parse(doc.substr(0, len)))
            << what << " truncated to " << len;
    std::string mutated = doc;
    for (size_t at = 0; at < doc.size(); ++at) {
        for (const char value : {'\x00', '\xff'}) {
            mutated[at] = value;
            ASSERT_NO_THROW(parse(mutated))
                << what << " byte " << at << " = "
                << static_cast<int>(static_cast<unsigned char>(value));
        }
        mutated[at] = doc[at];
    }
}

TEST(Json, MutatedStatsAndFlightBodiesParseOrThrowJsonError)
{
    obs::MetricsRegistry registry;
    registry.counter("requests.served").increment(41);
    registry.counter("model_cache.hits").increment(7);
    for (int i = 1; i <= 20; ++i) {
        registry.histogram("latency.request").observe(0.001 * i);
        registry.histogram("phase.search").observe(0.0005 * i);
    }
    registry.setGauge("queue.depth", 3);
    registry.setGauge("model_cache.size", 12);
    expectValueOrJsonError(registry.renderJson(), "stats body");

    auto &recorder = obs::FlightRecorder::instance();
    recorder.setEnabled(true);
    for (uint64_t id = 1; id <= 4; ++id) {
        obs::FlightRecorder::record(id, obs::FlightPhase::QueueEnter);
        obs::FlightRecorder::record(id, obs::FlightPhase::ModelBuild,
                                    0.25);
    }
    obs::FlightRecorder::record(5, obs::FlightPhase::Degraded, 0.0,
                                obs::FlightReason::SearchTruncated);
    expectValueOrJsonError(recorder.dumpJson(60.0, 16), "flight body");
}

} // namespace
} // namespace dac
