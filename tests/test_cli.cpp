#include "cli.h"

#include <gtest/gtest.h>

#include <csignal>
#include <stdexcept>

namespace mcr::cli {
namespace {

TEST(Cli, PositionalOnly) {
  const Options o = parse({"file.dimacs", "other"});
  ASSERT_EQ(o.positional.size(), 2u);
  EXPECT_EQ(o.positional[0], "file.dimacs");
  EXPECT_TRUE(o.named.empty());
}

TEST(Cli, KeyValuePairs) {
  const Options o = parse({"--n", "512", "--m=1024"});
  EXPECT_EQ(o.get("n"), "512");
  EXPECT_EQ(o.get("m"), "1024");
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  const Options o = parse({"--verify", "--algo", "karp"});
  EXPECT_TRUE(o.has("verify"));
  EXPECT_EQ(o.get("verify"), "");
  EXPECT_EQ(o.get("algo"), "karp");
}

TEST(Cli, FlagConsumesFollowingBareToken) {
  // Documented behavior: "--key value" binds; use --key= for bare flags
  // followed by positionals.
  const Options o = parse({"--algo", "howard", "input.dimacs"});
  EXPECT_EQ(o.get("algo"), "howard");
  ASSERT_EQ(o.positional.size(), 1u);
  EXPECT_EQ(o.positional[0], "input.dimacs");
}

TEST(Cli, EqualsFormDoesNotConsume) {
  const Options o = parse({"--verify=", "input.dimacs"});
  EXPECT_TRUE(o.has("verify"));
  ASSERT_EQ(o.positional.size(), 1u);
}

TEST(Cli, GetFallbacks) {
  const Options o = parse({});
  EXPECT_EQ(o.get("missing", "dflt"), "dflt");
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Cli, GetIntParses) {
  const Options o = parse({"--n", "123", "--neg", "-7"});
  EXPECT_EQ(o.get_int("n", 0), 123);
  EXPECT_EQ(o.get_int("neg", 0), -7);
}

TEST(Cli, GetIntRejectsGarbage) {
  const Options o = parse({"--n", "12x"});
  EXPECT_THROW((void)o.get_int("n", 0), std::invalid_argument);
  const Options o2 = parse({"--n", "abc"});
  EXPECT_THROW((void)o2.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, MalformedOptionsThrow) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
  EXPECT_THROW(parse({"---x"}), std::invalid_argument);
}

TEST(Cli, ArgcArgvOverloadSkipsProgramName) {
  const char* argv[] = {"prog", "--n", "5", "pos"};
  const Options o = parse(4, argv);
  EXPECT_EQ(o.get_int("n", 0), 5);
  ASSERT_EQ(o.positional.size(), 1u);
}

TEST(Cli, LastOccurrenceWins) {
  const Options o = parse({"--n", "1", "--n", "2"});
  EXPECT_EQ(o.get("n"), "2");
}

TEST(Cli, GetAllPreservesEveryOccurrenceInOrder) {
  // Repeatable flags (mcr_router --worker, mcr_load --target): get()
  // stays last-wins, get_all() sees every occurrence in argv order.
  const Options o = parse({"--worker", "unix:/tmp/a.sock", "--replicas", "2",
                           "--worker", "9301", "--worker=unix:/tmp/b.sock"});
  const std::vector<std::string> workers = o.get_all("worker");
  ASSERT_EQ(workers.size(), 3u);
  EXPECT_EQ(workers[0], "unix:/tmp/a.sock");
  EXPECT_EQ(workers[1], "9301");
  EXPECT_EQ(workers[2], "unix:/tmp/b.sock");
  EXPECT_EQ(o.get("worker"), "unix:/tmp/b.sock");  // last-wins unchanged
  ASSERT_EQ(o.get_all("replicas").size(), 1u);
}

TEST(Cli, GetAllOfMissingKeyIsEmpty) {
  const Options o = parse({"--n", "1"});
  EXPECT_TRUE(o.get_all("missing").empty());
}

TEST(Cli, SignalPipeDeliversHangupsThenReturnsOnShutdown) {
  install_signal_pipe(/*hangup=*/true);
  // Signals raised before anyone waits are not lost: the self-pipe
  // buffers them, as when SIGTERM lands during a daemon's startup.
  ASSERT_EQ(std::raise(SIGHUP), 0);
  ASSERT_EQ(std::raise(SIGHUP), 0);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  int hangups = 0;
  wait_for_shutdown([&] { ++hangups; });
  EXPECT_EQ(hangups, 2);
}

}  // namespace
}  // namespace mcr::cli
