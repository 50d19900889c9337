// Table-driven command lines for the CLIs.  A tool declares one Command
// row per subcommand path ("run", "shard plan", ...) with its positional
// arguments, its handler and one Flag row per accepted flag.  Parsing,
// value validation, usage errors (exit 2) and `--help` all read that one
// table, so a flag cannot be accepted without being documented.
//
// Numbers go through std::from_chars and must consume the whole token: a
// malformed, trailing-garbage, negative-unsigned, overflowing or
// out-of-range value is a usage error naming the flag and its domain,
//   drowsy_sweep run: --threads: "abc" is not an integer in [0, ...]
#pragma once

#include <charconv>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace drowsy::util::flags {

/// A malformed command line; the message carries no tool prefix.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One accepted flag, bound to a caller-owned options field.  Build rows
/// with the five kind factories below rather than by hand.
struct Flag {
  enum class Kind { String, Strings, Switch, Integer, Real };
  std::string name;     ///< "--threads"
  std::string metavar;  ///< "N"; empty for a switch
  std::string help;     ///< one line for --help
  Kind kind = Kind::String;
  std::string domain;  ///< what a rejected value is not: "an integer in [1, 10]"
  bool required = false;
  /// Store a token (empty for a switch) in the bound field; false when
  /// the token is outside `domain`.
  std::function<bool(std::string_view)> set;
};

/// A string value; the last occurrence wins.
Flag string(std::string name, std::string metavar, std::string help, std::string& out);
/// A repeatable string value, accumulated in command-line order.
Flag strings(std::string name, std::string metavar, std::string help,
             std::vector<std::string>& out);
/// A valueless switch that stores `value`.
Flag toggle(std::string name, std::string help, bool& out, bool value = true);
/// An integer of `out`'s type, at least `min`.
template <class T>
Flag integer(std::string name, std::string metavar, std::string help, T& out,
             std::type_identity_t<T> min = 0) {
  std::string domain = "an integer in [" + std::to_string(min) + ", " +
                       std::to_string(std::numeric_limits<T>::max()) + "]";
  return {std::move(name), std::move(metavar), std::move(help), Flag::Kind::Integer,
          std::move(domain), false, [&out, min](std::string_view token) {
            T value{};
            const char* end = token.data() + token.size();
            const auto [stop, ec] = std::from_chars(token.data(), end, value);
            if (ec != std::errc{} || stop != end || value < min) return false;
            out = value;
            return true;
          }};
}

/// A real flag's accepted interval; `open` excludes both ends.  NaN is
/// never accepted.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open = false;
};
/// A real value inside `range`.
Flag real(std::string name, std::string metavar, std::string help, double& out,
          Range range = {});

/// `flag`, which the command line must now supply at least once.
Flag required(Flag flag);

/// One positional argument: exactly one token, or with a vector target
/// every remaining positional token (zero or more).
struct Arg {
  Arg(std::string metavar, std::string& out) : metavar(std::move(metavar)), one(&out) {}
  Arg(std::string metavar, std::vector<std::string>& out)
      : metavar(std::move(metavar)), rest(&out) {}
  std::string metavar;  ///< "<sweep.json>", "[<scenario>...]"
  std::string* one = nullptr;
  std::vector<std::string>* rest = nullptr;
};

/// One subcommand row.
struct Command {
  std::string path;     ///< "shard plan"; empty for a tool without subcommands
  std::string summary;  ///< one line for --help
  std::vector<Arg> args;
  std::function<int()> run;  ///< the handler, called after a clean parse
  std::vector<Flag> flags;
};

/// The command whose path is the longest prefix of `args`, or nullptr;
/// `consumed` receives the number of path words matched.
const Command* find(const std::vector<Command>& commands,
                    const std::vector<std::string>& args, std::size_t& consumed);

/// Apply the tokens after the command path to its positionals and flags.
/// Tokens starting with '-' are flags, others positionals, in any order.
/// Throws UsageError on an unknown flag, a missing or rejected value, a
/// missing or surplus positional, or a missing required flag.
void parse(const Command& command, const std::vector<std::string>& tokens);

/// Every command's synopsis, wrapped at 80 columns; with `detail`, each
/// followed by its summary and one help line per flag.
std::string usage(const std::string& tool, const std::vector<Command>& commands,
                  bool detail);

/// The whole front end.  `--help`, `-h` or `help` prints the detailed
/// usage to stdout (exit 0); a usage error prints "<tool> <command>:
/// <message>" and the synopsis to stderr (exit 2); otherwise the handler
/// runs, and an exception it throws prints "<tool> <command>: <what>"
/// (exit 1).
int dispatch(const std::string& tool, const std::vector<Command>& commands, int argc,
             char** argv);

}  // namespace drowsy::util::flags
