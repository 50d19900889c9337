#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fl = drowsy::util::flags;

namespace {

/// One row of every kind, bound to public fields the tests inspect.
struct Fixture {
  std::string path;
  std::string name = "default";
  std::vector<std::string> journals;
  bool json = false;
  bool reap = true;
  std::size_t threads = 0;
  int vms = 6;
  std::uint64_t seed = 7;
  double alpha = 0.05;
  double idle = 60.0;
  std::string out;

  fl::Command command() {
    return {"shard plan",
            "Plan shards.",
            {{"<sweep.json>", path}},
            [] { return 0; },
            {fl::string("--name", "W", "a name", name),
             fl::strings("--journal", "F", "a journal", journals),
             fl::toggle("--json", "JSON output", json),
             fl::toggle("--no-reap", "never reap", reap, false),
             fl::integer("--threads", "N", "worker threads", threads),
             fl::integer("--vms", "N", "population", vms, 1),
             fl::integer("--seed", "X", "seed", seed),
             fl::real("--alpha", "A", "significance", alpha, {0.0, 1.0, /*open=*/true}),
             fl::real("--max-idle-s", "S", "idle limit", idle),
             fl::required(fl::string("--out", "F", "output", out))}};
  }

  /// Parse `tokens` (with `--out o` appended so the required flag is met).
  void parse(std::vector<std::string> tokens) {
    tokens.insert(tokens.end(), {"--out", "o"});
    fl::parse(command(), tokens);
  }
};

std::string usage_error(Fixture& f, const std::vector<std::string>& tokens) {
  try {
    f.parse(tokens);
  } catch (const fl::UsageError& e) {
    return e.what();
  }
  return "(accepted)";
}

}  // namespace

TEST(Flags, EveryKindAcceptsItsValues) {
  Fixture f;
  f.parse({"s.json", "--name", "w1", "--json", "--no-reap", "--threads", "0", "--vms",
           "1", "--seed", "18446744073709551615", "--alpha", "0.01", "--max-idle-s",
           "-2.5"});
  EXPECT_EQ(f.path, "s.json");
  EXPECT_EQ(f.name, "w1");
  EXPECT_TRUE(f.json);
  EXPECT_FALSE(f.reap);
  EXPECT_EQ(f.threads, 0u);
  EXPECT_EQ(f.vms, 1);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_DOUBLE_EQ(f.alpha, 0.01);
  EXPECT_DOUBLE_EQ(f.idle, -2.5);
  EXPECT_EQ(f.out, "o");

  f.parse({"--threads", "64", "--max-idle-s", "1e3", "s.json", "--name", ""});
  EXPECT_EQ(f.threads, 64u);
  EXPECT_DOUBLE_EQ(f.idle, 1000.0);
  EXPECT_EQ(f.name, "");  // an empty string value is still a value
}

TEST(Flags, RepeatableFlagsAccumulateInOrder) {
  Fixture f;
  f.parse({"--journal", "b", "s.json", "--journal", "a", "--journal", "b"});
  EXPECT_EQ(f.journals, (std::vector<std::string>{"b", "a", "b"}));
}

TEST(Flags, MalformedNumbersAreUsageErrorsNamingFlagAndDomain) {
  Fixture f;
  EXPECT_EQ(usage_error(f, {"s.json", "--threads", "2x"}),
            "--threads: \"2x\" is not an integer in [0, 18446744073709551615]");
  EXPECT_EQ(usage_error(f, {"s.json", "--vms", "abc"}),
            "--vms: \"abc\" is not an integer in [1, 2147483647]");
  EXPECT_EQ(usage_error(f, {"s.json", "--alpha", "1"}),
            "--alpha: \"1\" is not a number in (0, 1)");
  for (const std::string bad :
       {"2x", "abc", "", "-1", "99999999999999999999", " 3", "+3"}) {
    EXPECT_NE(usage_error(f, {"s.json", "--threads", bad}), "(accepted)") << bad;
    EXPECT_NE(usage_error(f, {"s.json", "--seed", bad}), "(accepted)") << bad;
  }
  EXPECT_NE(usage_error(f, {"s.json", "--vms", "0"}), "(accepted)");
  EXPECT_NE(usage_error(f, {"s.json", "--vms", "-1"}), "(accepted)");
  EXPECT_NE(usage_error(f, {"s.json", "--vms", "99999999999"}), "(accepted)");
  for (const std::string bad : {"0", "1", "-0.5", "1.5", "nan", "0.5x", "", "1e999"}) {
    EXPECT_NE(usage_error(f, {"s.json", "--alpha", bad}), "(accepted)") << bad;
  }
  EXPECT_NE(usage_error(f, {"s.json", "--max-idle-s", "nan"}), "(accepted)");
  // A rejected value leaves the bound field untouched.
  EXPECT_EQ(f.threads, 0u);
  EXPECT_DOUBLE_EQ(f.alpha, 0.05);
}

TEST(Flags, MalformedCommandLinesAreUsageErrors) {
  Fixture f;
  try {
    fl::parse(f.command(), {"s.json", "--out", "o", "--threads"});
    ADD_FAILURE() << "a flag without its value was accepted";
  } catch (const fl::UsageError& e) {
    EXPECT_STREQ(e.what(), "--threads requires a value");
  }
  EXPECT_EQ(usage_error(f, {"s.json", "--bogus"}), "unknown flag --bogus");
  EXPECT_EQ(usage_error(f, {"s.json", "t.json"}), "unexpected argument \"t.json\"");
  EXPECT_EQ(usage_error(f, {}), "missing <sweep.json>");
  EXPECT_THROW(fl::parse(f.command(), {"s.json"}), fl::UsageError);  // no --out
  // A switch takes no value: the next token is a positional again.
  EXPECT_EQ(usage_error(f, {"s.json", "--json", "x"}), "unexpected argument \"x\"");
}

TEST(Flags, TrailingArgCollectsEveryRemainingPositional) {
  std::vector<std::string> names;
  const fl::Command dump{
      "dump", "Dump.", {{"[<scenario>...]", names}}, [] { return 0; }, {}};
  fl::parse(dump, {});
  EXPECT_TRUE(names.empty());
  fl::parse(dump, {"a", "b", "c"});
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_THROW(fl::parse(dump, {"--x"}), fl::UsageError);
}

TEST(Flags, FindPicksTheLongestCommandPath) {
  Fixture f;
  const std::vector<fl::Command> commands = {
      {"list", "List.", {}, [] { return 0; }, {}},
      f.command(),
      {"shard run", "Run.", {}, [] { return 0; }, {}},
  };
  std::size_t consumed = 0;
  EXPECT_EQ(fl::find(commands, {"shard", "plan", "s.json"}, consumed), &commands[1]);
  EXPECT_EQ(consumed, 2u);
  EXPECT_EQ(fl::find(commands, {"list"}, consumed), &commands[0]);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(fl::find(commands, {"shard"}, consumed), nullptr);
  EXPECT_EQ(fl::find(commands, {"shard", "frob"}, consumed), nullptr);
  EXPECT_EQ(fl::find(commands, {}, consumed), nullptr);
}

TEST(Flags, UsageListsEveryRowsFlagAndMetavar) {
  Fixture f;
  const std::vector<fl::Command> commands = {f.command()};
  const std::string brief = fl::usage("tool", commands, /*detail=*/false);
  const std::string full = fl::usage("tool", commands, /*detail=*/true);
  EXPECT_EQ(brief.rfind("tool shard plan <sweep.json> ", 0), 0u) << brief;
  for (const fl::Flag& flag : commands[0].flags) {
    const std::string row =
        flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
    EXPECT_NE(brief.find(row), std::string::npos) << row;
    EXPECT_NE(full.find(row), std::string::npos) << row;
    EXPECT_NE(full.find(flag.help), std::string::npos) << flag.help;
  }
  EXPECT_EQ(brief.find("[--out"), std::string::npos);  // required: no brackets
  EXPECT_NE(brief.find("[--journal F...]"), std::string::npos);
  EXPECT_NE(brief.find("[--json]"), std::string::npos);
  EXPECT_NE(full.find("Plan shards."), std::string::npos);
  std::istringstream lines(brief);
  for (std::string line; std::getline(lines, line);) EXPECT_LE(line.size(), 80u) << line;
}

TEST(Flags, DispatchMapsOutcomesToExitCodes) {
  int seen = 0;
  std::size_t threads = 0;
  const std::vector<fl::Command> commands = {
      {"ok", "Succeed.", {}, [&] { return seen = 7; },
       {fl::integer("--threads", "N", "t", threads)}},
      {"fail", "Throw.", {}, []() -> int { throw std::runtime_error("boom"); }, {}},
  };
  const auto dispatch = [&](std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return fl::dispatch("tool", commands, static_cast<int>(argv.size()), argv.data());
  };
  testing::internal::CaptureStdout();
  EXPECT_EQ(dispatch({"--help"}), 0);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("tool ok [--threads N]"),
            std::string::npos);
  EXPECT_EQ(dispatch({"ok", "--threads", "3"}), 7);
  EXPECT_EQ(threads, 3u);
  // Subcommand help: that command's detailed usage, exit 0, no handler run.
  seen = 0;
  for (const std::vector<std::string>& help :
       {std::vector<std::string>{"ok", "--help"}, {"ok", "-h"}, {"ok", "--threads", "2", "-h"},
        {"fail", "--help"}}) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(dispatch(help), 0) << help.back();
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("tool " + help.front()), 0u) << out;
    EXPECT_EQ(out.find(help.front() == "ok" ? "tool fail" : "tool ok"), std::string::npos)
        << "only the named command: " << out;
  }
  testing::internal::CaptureStdout();
  EXPECT_EQ(dispatch({"ok", "--help"}), 0);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("    --threads N             t\n"),
            std::string::npos);
  EXPECT_EQ(seen, 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(dispatch({"ok", "--threads", "3x"}), 2);
  EXPECT_EQ(dispatch({"nope"}), 2);
  EXPECT_EQ(dispatch({}), 2);
  EXPECT_EQ(dispatch({"fail"}), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tool ok: --threads: \"3x\" is not an integer"), std::string::npos)
      << err;
  EXPECT_NE(err.find("tool: unknown command \"nope\""), std::string::npos) << err;
  EXPECT_NE(err.find("tool fail: boom"), std::string::npos) << err;
}

TEST(Flags, GroupHelpListsTheGroupsCommands) {
  const std::vector<fl::Command> commands = {
      {"list", "List.", {}, [] { return 0; }, {}},
      {"shard plan", "Plan.", {}, [] { return 0; }, {}},
      {"shard run", "Run.", {}, [] { return 0; }, {}},
      {"study run", "Study.", {}, [] { return 0; }, {}},
  };
  const auto dispatch = [&](std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return fl::dispatch("tool", commands, static_cast<int>(argv.size()), argv.data());
  };
  for (const std::string help : {"--help", "-h"}) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(dispatch({"shard", help}), 0) << help;
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("tool shard plan\n  Plan.\n"), 0u) << out;
    EXPECT_NE(out.find("tool shard run\n  Run.\n"), std::string::npos) << out;
    EXPECT_EQ(out.find("tool study run"), std::string::npos) << "only the group: " << out;
    EXPECT_EQ(out.find("tool list"), std::string::npos) << "only the group: " << out;
  }
  // Not a group, a group without a help flag, or a help flag that does not
  // follow the group word directly: still usage errors.
  testing::internal::CaptureStderr();
  EXPECT_EQ(dispatch({"nope", "--help"}), 2);
  EXPECT_EQ(dispatch({"shard"}), 2);
  EXPECT_EQ(dispatch({"shard", "--x", "--help"}), 2);
  EXPECT_EQ(dispatch({"shar", "--help"}), 2) << "a group is whole words";
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tool: unknown command \"nope\""), std::string::npos) << err;
}
