/**
 * @file
 * tools/flags.h: a numeric flag takes one whole number of its type.
 * A sign an unsigned flag cannot take, a character before or after
 * the number, or a value out of the type's range fails the parse and
 * leaves the flag's target unchanged.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flags.h"

namespace dac::tools {
namespace {

/** The three numeric bindings, each preset to a sentinel. */
struct NumericFlags
{
    size_t jobs = 3;
    uint16_t port = 7;
    double interval = 2.5;
    FlagParser parser;

    NumericFlags()
    {
        parser.bind("jobs", &jobs);
        parser.bind("port", &port);
        parser.bind("interval", &interval);
    }

    bool
    parse(std::string arg)
    {
        std::string tool = "tool";
        std::vector<char *> argv = {tool.data(), arg.data()};
        return parser.parse(static_cast<int>(argv.size()), argv.data());
    }
};

TEST(FlagParser, RejectsMalformedNumbersAndKeepsTheTarget)
{
    for (const std::string arg :
         {"--jobs=-1", "--jobs=4x", "--jobs= 7", "--port=8080abc",
          "--interval=1.5s", "--port=65536", "--jobs=",
          "--jobs=18446744073709551616"}) {
        NumericFlags flags;
        EXPECT_FALSE(flags.parse(arg)) << arg;
        EXPECT_EQ(flags.parser.badArgument(), arg);
        EXPECT_EQ(flags.jobs, 3u) << arg;
        EXPECT_EQ(flags.port, 7u) << arg;
        EXPECT_EQ(flags.interval, 2.5) << arg;
    }
}

TEST(FlagParser, AcceptsWholeNumbersUpToTheirBounds)
{
    NumericFlags flags;
    EXPECT_TRUE(flags.parse("--jobs=0"));
    EXPECT_TRUE(flags.parse("--port=65535"));
    EXPECT_TRUE(flags.parse("--interval=0.5"));
    EXPECT_EQ(flags.jobs, 0u);
    EXPECT_EQ(flags.port, 65535u);
    EXPECT_EQ(flags.interval, 0.5);
    EXPECT_TRUE(flags.parser.badArgument().empty());
}

} // namespace
} // namespace dac::tools
