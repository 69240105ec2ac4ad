/**
 * @file
 * Shared `--name=value` flag parsing for the command-line tools
 * (dac_lint, dac_top, dac_request, dac_snap) and the tuning_server
 * example. Each tool binds its flags to locals, calls parse(), and
 * prints its own usage on failure — the parser deliberately knows
 * nothing about any specific tool.
 *
 * Grammar: `--name=VALUE` for value flags, `--name` for switches,
 * everything else is a positional argument. Unknown flags and values
 * a binding rejects fail the parse. A numeric value must be a number
 * and nothing else: `--jobs=4x`, `--jobs= 7`, `--jobs=-1` (a sign on
 * an unsigned flag) and `--port=65536` (out of range) are rejected,
 * and a rejected value leaves its target unchanged.
 */

#ifndef DAC_TOOLS_FLAGS_H
#define DAC_TOOLS_FLAGS_H

#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <vector>

namespace dac::tools {

/**
 * Declarative argv parser shared by the dac_* tools.
 */
class FlagParser
{
  public:
    /** Value flag `--name=V`; the handler returns false to reject V. */
    void
    define(const std::string &name,
           std::function<bool(const std::string &)> handler)
    {
        values[name] = std::move(handler);
    }

    /** Switch flag `--name` (no value); sets *target to true. */
    void
    defineSwitch(const std::string &name, bool *target)
    {
        switches[name] = target;
    }

    /** `--name=V` stored verbatim. */
    void
    bind(const std::string &name, std::string *target)
    {
        define(name, [target](const std::string &v) {
            *target = v;
            return true;
        });
    }

    /** Repeatable `--name=V`, appended in argv order. */
    void
    bind(const std::string &name, std::vector<std::string> *target)
    {
        define(name, [target](const std::string &v) {
            target->push_back(v);
            return true;
        });
    }

    /** `--name=N` as a non-negative integer. */
    void
    bind(const std::string &name, size_t *target)
    {
        define(name, [target](const std::string &v) {
            return parseNumber(v, *target);
        });
    }

    /** `--name=N` as a port-sized integer. */
    void
    bind(const std::string &name, uint16_t *target)
    {
        define(name, [target](const std::string &v) {
            return parseNumber(v, *target);
        });
    }

    /** `--name=X` as a floating-point value. */
    void
    bind(const std::string &name, double *target)
    {
        define(name, [target](const std::string &v) {
            return parseNumber(v, *target);
        });
    }

    /**
     * Parse argv. Returns false on an unknown flag or a rejected
     * value; the offending argument is left in badArgument().
     */
    [[nodiscard]] bool
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.size() < 2 || arg.compare(0, 2, "--") != 0) {
                positional.push_back(arg);
                continue;
            }
            const size_t eq = arg.find('=');
            if (eq == std::string::npos) {
                const auto sw = switches.find(arg.substr(2));
                if (sw == switches.end()) {
                    bad = arg;
                    return false;
                }
                *sw->second = true;
                continue;
            }
            const auto handler = values.find(arg.substr(2, eq - 2));
            if (handler == values.end() ||
                !handler->second(arg.substr(eq + 1))) {
                bad = arg;
                return false;
            }
        }
        return true;
    }

    /** Non-flag arguments, in argv order. */
    [[nodiscard]] const std::vector<std::string> &
    positionals() const
    {
        return positional;
    }

    /** The argument that failed the last parse() (empty if none). */
    [[nodiscard]] const std::string &
    badArgument() const
    {
        return bad;
    }

    /** Store `text` in *target when all of it is one number of type
     *  T; otherwise return false and leave *target alone. An
     *  unsigned T takes no sign, and no T takes surrounding space.
     *  The numeric bindings use it; so may a define() handler or a
     *  tool reading a positional number. */
    template <typename T>
    static bool
    parseNumber(const std::string &text, T &target)
    {
        T value{};
        const char *end = text.data() + text.size();
        const auto [stop, error] = std::from_chars(text.data(), end, value);
        if (error != std::errc() || stop != end)
            return false;
        target = value;
        return true;
    }

  private:
    std::map<std::string, std::function<bool(const std::string &)>> values;
    std::map<std::string, bool *> switches;
    std::vector<std::string> positional;
    std::string bad;
};

} // namespace dac::tools

#endif // DAC_TOOLS_FLAGS_H
