/**
 * @file
 * tools/flags.h: a numeric flag takes one whole number of its type.
 * A sign an unsigned flag cannot take, a character before or after
 * the number, or a value out of the type's range fails the parse and
 * leaves the flag's target unchanged. A mutation battery holds every
 * binding kind to that contract for hostile command lines.
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

/** One binding of each kind plus a switch, each preset to a
 *  sentinel. */
struct EveryKindOfFlag
{
    std::string name = "keep";
    size_t jobs = 3;
    uint16_t port = 7;
    double interval = 2.5;
    bool verbose = false;
    FlagParser parser;

    EveryKindOfFlag()
    {
        parser.bind("name", &name);
        parser.bind("jobs", &jobs);
        parser.bind("port", &port);
        parser.bind("interval", &interval);
        parser.defineSwitch("verbose", &verbose);
    }

    [[nodiscard]] bool
    untouched() const
    {
        return name == "keep" && jobs == 3 && port == 7 &&
               interval == 2.5 && !verbose;
    }
};

/**
 * Every truncation of a one-argument command line for each binding
 * kind, and every byte of it set to 0x00, 0xff, '=', '-' or a space:
 * each parses to true or false without throwing, and a false parse
 * leaves every target at its sentinel and names the argument as the
 * program received it (a 0x00 byte ends a C string, so argv sees
 * the bytes before it).
 */
TEST(FlagParser, MutatedCommandLinesParseOrFailCleanly)
{
    const std::vector<std::string> lines = {
        "--name=report.json", "--jobs=12", "--port=8080",
        "--interval=0.25", "--verbose"};
    std::vector<std::string> mutants;
    for (const std::string &line : lines) {
        for (size_t len = 0; len < line.size(); ++len)
            mutants.push_back(line.substr(0, len));
        for (size_t at = 0; at < line.size(); ++at) {
            for (const char byte : {'\0', '\xff', '=', '-', ' '}) {
                std::string mutant = line;
                mutant[at] = byte;
                mutants.push_back(mutant);
            }
        }
    }

    size_t accepted = 0;
    size_t rejected = 0;
    for (std::string &mutant : mutants) {
        EveryKindOfFlag flags;
        std::string tool = "tool";
        std::vector<char *> argv = {tool.data(), mutant.data()};
        bool ok = false;
        EXPECT_NO_THROW(ok = flags.parser.parse(
                            static_cast<int>(argv.size()), argv.data()))
            << mutant;
        if (ok) {
            ++accepted;
            EXPECT_TRUE(flags.parser.badArgument().empty()) << mutant;
            continue;
        }
        ++rejected;
        EXPECT_TRUE(flags.untouched()) << mutant;
        EXPECT_EQ(flags.parser.badArgument(), std::string(argv[1]));
    }
    // Both outcomes occur, so neither branch above is vacuous.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace dac::tools
