#include "util/flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

namespace drowsy::util::flags {

namespace {

constexpr std::size_t kUsageWidth = 80;
constexpr std::size_t kHelpColumn = 24;

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// "--name M", or "--name" for a switch.
std::string label(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
}

/// "--name M", "[--name M]", "--name M...", "[--name]".
std::string flag_synopsis(const Flag& flag) {
  std::string text = label(flag);
  if (flag.kind == Flag::Kind::Strings) text += "...";
  return flag.required ? text : "[" + text + "]";
}

/// "<tool> <path> <args> <flags>", wrapped under the path.
std::string synopsis(const std::string& tool, const Command& command) {
  const std::string head = command.path.empty() ? tool : tool + " " + command.path;
  std::vector<std::string> items;
  for (const Arg& arg : command.args) items.push_back(arg.metavar);
  for (const Flag& flag : command.flags) items.push_back(flag_synopsis(flag));
  std::string out = head;
  std::size_t column = head.size();
  for (const std::string& item : items) {
    if (column > head.size() && column + 1 + item.size() > kUsageWidth) {
      out += "\n" + std::string(head.size(), ' ');
      column = head.size();
    }
    out += " " + item;
    column += 1 + item.size();
  }
  return out + "\n";
}

}  // namespace

Flag string(std::string name, std::string metavar, std::string help, std::string& out) {
  return {std::move(name), std::move(metavar), std::move(help), Flag::Kind::String, "",
          false, [&out](std::string_view token) {
            out = token;
            return true;
          }};
}

Flag strings(std::string name, std::string metavar, std::string help,
             std::vector<std::string>& out) {
  return {std::move(name), std::move(metavar), std::move(help), Flag::Kind::Strings, "",
          false, [&out](std::string_view token) {
            out.emplace_back(token);
            return true;
          }};
}

Flag toggle(std::string name, std::string help, bool& out, bool value) {
  return {std::move(name), "", std::move(help), Flag::Kind::Switch, "", false,
          [&out, value](std::string_view) {
            out = value;
            return true;
          }};
}

Flag real(std::string name, std::string metavar, std::string help, double& out,
          Range range) {
  std::string domain = "a number";
  if (std::isfinite(range.hi)) {
    domain += std::string(range.open ? " in (" : " in [") + number(range.lo) + ", " +
              number(range.hi) + (range.open ? ")" : "]");
  } else if (std::isfinite(range.lo)) {
    domain += (range.open ? " > " : " >= ") + number(range.lo);
  }
  return {std::move(name), std::move(metavar), std::move(help), Flag::Kind::Real,
          std::move(domain), false, [&out, range](std::string_view token) {
            double value = 0.0;
            const char* end = token.data() + token.size();
            const auto [stop, ec] = std::from_chars(token.data(), end, value);
            // NaN compares false both ways, so it is never inside.
            const bool inside = range.open ? range.lo < value && value < range.hi
                                           : range.lo <= value && value <= range.hi;
            if (ec != std::errc{} || stop != end || !inside) return false;
            out = value;
            return true;
          }};
}

Flag required(Flag flag) {
  flag.required = true;
  return flag;
}

const Command* find(const std::vector<Command>& commands,
                    const std::vector<std::string>& args, std::size_t& consumed) {
  const Command* best = nullptr;
  consumed = 0;
  std::string prefix;  // the first n args, space-joined
  for (std::size_t n = 0; n <= args.size(); ++n) {
    if (n > 0) {
      if (args[n - 1].find(' ') != std::string::npos) break;
      prefix += (n > 1 ? " " : "") + args[n - 1];
    }
    for (const Command& command : commands) {
      if (command.path == prefix) {
        best = &command;
        consumed = n;
      }
    }
  }
  return best;
}

void parse(const Command& command, const std::vector<std::string>& tokens) {
  std::vector<bool> seen(command.flags.size(), false);
  std::size_t positional = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty() || token[0] != '-') {
      if (positional == command.args.size()) {
        throw UsageError("unexpected argument \"" + token + "\"");
      }
      const Arg& arg = command.args[positional];
      if (arg.rest != nullptr) {
        arg.rest->push_back(token);
      } else {
        *arg.one = token;
        ++positional;
      }
      continue;
    }
    const auto flag = std::find_if(command.flags.begin(), command.flags.end(),
                                   [&](const Flag& f) { return f.name == token; });
    if (flag == command.flags.end()) throw UsageError("unknown flag " + token);
    seen[static_cast<std::size_t>(flag - command.flags.begin())] = true;
    if (flag->kind == Flag::Kind::Switch) {
      flag->set({});
      continue;
    }
    if (i + 1 == tokens.size()) throw UsageError(token + " requires a value");
    const std::string& value = tokens[++i];
    if (!flag->set(value)) {
      throw UsageError(token + ": \"" + value + "\" is not " + flag->domain);
    }
  }
  for (std::size_t k = positional; k < command.args.size(); ++k) {
    if (command.args[k].one != nullptr) {
      throw UsageError("missing " + command.args[k].metavar);
    }
  }
  for (std::size_t k = 0; k < command.flags.size(); ++k) {
    if (command.flags[k].required && !seen[k]) {
      throw UsageError("missing " + flag_synopsis(command.flags[k]));
    }
  }
}

std::string usage(const std::string& tool, const std::vector<Command>& commands,
                  bool detail) {
  std::string out;
  for (const Command& command : commands) {
    if (detail && !out.empty()) out += "\n";
    out += synopsis(tool, command);
    if (!detail) continue;
    out += "  " + command.summary + "\n";
    for (const Flag& flag : command.flags) {
      std::string left = label(flag);
      left.resize(std::max(left.size() + 1, kHelpColumn), ' ');
      out += "    " + left + flag.help + "\n";
    }
  }
  return out;
}

int dispatch(const std::string& tool, const std::vector<Command>& commands, int argc,
             char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h" || args[0] == "help")) {
    std::fputs(usage(tool, commands, /*detail=*/true).c_str(), stdout);
    return 0;
  }
  std::size_t consumed = 0;
  const Command* command = find(commands, args, consumed);
  const bool named = command != nullptr && !command->path.empty();
  const std::string name = named ? tool + " " + command->path : tool;
  try {
    if (command == nullptr) {
      throw UsageError(args.empty() ? "missing command"
                                    : "unknown command \"" + args[0] + "\"");
    }
    parse(*command, {args.begin() + static_cast<std::ptrdiff_t>(consumed), args.end()});
  } catch (const UsageError& e) {
    const std::string help = command == nullptr ? usage(tool, commands, /*detail=*/false)
                                                : synopsis(tool, *command);
    std::fprintf(stderr, "%s: %s\n%s", name.c_str(), e.what(), help.c_str());
    return 2;
  }
  try {
    return command->run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return 1;
  }
}

}  // namespace drowsy::util::flags
