/** @file Tests for the minimal JSON parser the tooling reads with. */

#include <gtest/gtest.h>

#include <string>

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

} // namespace
} // namespace dac
