// End-to-end tests of the essns_cli BINARY (fork/exec, not in-process):
// flag handling across all three modes, serve over a real socket, and the
// SIGINT drain path. ESSNS_CLI_PATH is stamped by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <utility>
#include <unistd.h>
#include <vector>

#include "serve/client.hpp"

namespace {

using namespace essns;

constexpr const char* kCliPath = ESSNS_CLI_PATH;

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

void exec_cli(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(kCliPath));
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(kCliPath, argv.data());
  std::perror("execv");
  ::_exit(127);
}

std::string drain_fd(int fd) {
  std::string text;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
    text.append(buffer, static_cast<std::size_t>(n));
  return text;
}

/// Run the CLI to completion, capturing stdout/stderr and the exit code.
RunResult run_cli(const std::vector<std::string>& args) {
  int out_pipe[2];
  int err_pipe[2];
  if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) ADD_FAILURE();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    // A run that should exit but hangs (a server that starts listening,
    // say) dies by SIGALRM and fails its test instead of stalling the suite.
    ::alarm(120);
    exec_cli(args);
  }
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  RunResult result;
  result.out = drain_fd(out_pipe[0]);
  result.err = drain_fd(err_pipe[0]);
  ::close(out_pipe[0]);
  ::close(err_pipe[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Start the CLI detached (output to /dev/null); caller signals and reaps.
pid_t spawn_cli(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    exec_cli(args);
  }
  return pid;
}

/// Reap with a deadline; SIGKILL on expiry so a hung child fails the test
/// instead of the whole suite.
int wait_exit(pid_t pid, double timeout_seconds) {
  const int polls = static_cast<int>(timeout_seconds * 100.0);
  for (int i = 0; i < polls; ++i) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return -2;  // timed out
}

/// Poll the --port-file until the server publishes its ephemeral port.
int wait_port(const std::string& port_file, double timeout_seconds) {
  const int polls = static_cast<int>(timeout_seconds * 100.0);
  for (int i = 0; i < polls; ++i) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

TEST(CliFlags, UnknownFlagFailsWithClearMessageInEveryMode) {
  const RunResult single = run_cli({"--frobnicate"});
  EXPECT_EQ(single.exit_code, 1);
  EXPECT_NE(single.err.find("unknown flag '--frobnicate'"),
            std::string::npos)
      << single.err;

  const RunResult campaign = run_cli({"campaign", "--frobnicate"});
  EXPECT_EQ(campaign.exit_code, 1);
  EXPECT_NE(campaign.err.find("unknown flag '--frobnicate'"),
            std::string::npos)
      << campaign.err;

  const RunResult serve = run_cli({"serve", "--frobnicate"});
  EXPECT_EQ(serve.exit_code, 1);
  EXPECT_NE(serve.err.find("unknown flag '--frobnicate'"), std::string::npos)
      << serve.err;

  const RunResult shards = run_cli({"campaign", "--shards", "2"});
  EXPECT_EQ(shards.exit_code, 1);
  EXPECT_NE(shards.err.find("unknown flag '--shards'"), std::string::npos)
      << shards.err;

  const RunResult shard_worker = run_cli({"--shard-worker"});
  EXPECT_EQ(shard_worker.exit_code, 1);
  EXPECT_NE(shard_worker.err.find("unknown flag '--shard-worker'"),
            std::string::npos)
      << shard_worker.err;

  // The retired sweep-backend, NUMA-placement and relax-kernel knobs are
  // unknown flags in every mode, not silently accepted.
  for (const std::string retired : {"--backend", "--numa", "--simd"}) {
    for (const std::vector<std::string>& prefix :
         {std::vector<std::string>{}, std::vector<std::string>{"campaign"},
          std::vector<std::string>{"serve"}}) {
      std::vector<std::string> args = prefix;
      args.push_back(retired);
      args.push_back(retired == "--numa" ? "auto" : "scalar");
      const RunResult result = run_cli(args);
      EXPECT_EQ(result.exit_code, 1) << retired;
      EXPECT_NE(result.err.find("unknown flag '" + retired + "'"),
                std::string::npos)
          << result.err;
    }
  }
}

TEST(CliFlags, ValuedFlagWithoutValueFails) {
  const RunResult campaign = run_cli({"campaign", "--jobs"});
  EXPECT_EQ(campaign.exit_code, 1);
  EXPECT_NE(campaign.err.find("--jobs expects a value"), std::string::npos)
      << campaign.err;

  const RunResult serve = run_cli({"serve", "--port"});
  EXPECT_EQ(serve.exit_code, 1);
  EXPECT_NE(serve.err.find("--port expects a value"), std::string::npos)
      << serve.err;
}

TEST(CliFlags, NonFiniteNumbersAreRejected) {
  // Single run: the key=value arguments go through parse_run_spec.
  const RunResult single = run_cli({"fitness_threshold=nan"});
  EXPECT_EQ(single.exit_code, 1);
  EXPECT_NE(single.err.find("fitness_threshold"), std::string::npos)
      << single.err;

  const RunResult campaign = run_cli({"campaign", "fitness_threshold=nan"});
  EXPECT_EQ(campaign.exit_code, 1);
  EXPECT_NE(campaign.err.find("fitness_threshold expects a finite number"),
            std::string::npos)
      << campaign.err;

  for (const auto& [key, value] :
       {std::pair{"fitness_threshold", "-inf"}, std::pair{"step_minutes", "inf"},
        std::pair{"noise", "nan"}}) {
    const RunResult serve =
        run_cli({"serve", std::string(key) + "=" + value});
    EXPECT_EQ(serve.exit_code, 1) << key;
    EXPECT_NE(serve.err.find(std::string(key) + " expects a finite number"),
              std::string::npos)
        << serve.err;
  }
}

TEST(CliFlags, CampaignRejectsOutOfBoundsSearchKeysBeforeAnyJob) {
  // An out-of-bounds search key is a usage error reported before any job.
  const RunResult campaign =
      run_cli({"campaign", "sizes=16", "population=1", "jsonl=none",
               "summary=none"});
  EXPECT_EQ(campaign.exit_code, 1);
  EXPECT_NE(campaign.err.find("population expects an integer >= 2, got '1'"),
            std::string::npos)
      << campaign.err;
  EXPECT_EQ(campaign.out.find("job "), std::string::npos) << campaign.out;
}

TEST(CliFlags, SharedRunFlagsParseAlikeInCampaignAndServe) {
  for (const auto& [flag, value] :
       {std::pair{"--jobs", "0"}, std::pair{"--workers", "x"},
        std::pair{"--cache-mem", "0"}}) {
    const RunResult campaign = run_cli({"campaign", flag, value});
    const RunResult serve = run_cli({"serve", flag, value});
    EXPECT_EQ(campaign.exit_code, 1) << flag;
    EXPECT_EQ(serve.exit_code, 1) << flag;
    EXPECT_NE(campaign.err.find(std::string(flag) +
                                " expects a positive integer, got '" +
                                value + "'"),
              std::string::npos)
        << campaign.err;
    EXPECT_EQ(campaign.err, serve.err) << flag;
  }
}

TEST(CliFlags, ServeRefusesADefaultFireBeforeListening) {
  const RunResult serve = run_cli({"serve", "steps=1"});
  EXPECT_EQ(serve.exit_code, 1);
  EXPECT_NE(serve.err.find("workload steps >= 2"), std::string::npos)
      << serve.err;
  EXPECT_EQ(serve.out.find("serving on port"), std::string::npos)
      << serve.out;
}

TEST(CliFlags, HelpCoversEveryMode) {
  const RunResult help = run_cli({"--help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  EXPECT_NE(help.out.find("campaign"), std::string::npos);
  EXPECT_NE(help.out.find("serve"), std::string::npos);
  EXPECT_NE(help.out.find("--cache-load"), std::string::npos);
}

TEST(CliFlags, CachePersistenceRequiresSharedPolicy) {
  const RunResult result =
      run_cli({"campaign", "--cache-save", "x.bin", "sizes=16"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--cache shared"), std::string::npos)
      << result.err;
}

TEST(CliServe, ServesPredictionsOverTheWire) {
  const std::string port_file = "cli_serve_port.txt";
  std::remove(port_file.c_str());

  const pid_t pid = spawn_cli({"serve", "--port-file", port_file, "size=16",
                               "steps=3", "generations=2", "population=8",
                               "offspring=8"});
  ASSERT_GT(pid, 0);
  const int port = wait_port(port_file, 30.0);
  ASSERT_GT(port, 0) << "server never published its port";

  {
    serve::LineClient client("127.0.0.1", port);
    EXPECT_EQ(client.request("ping"), "ok pong");
    const std::string response = client.request("predict id=cli1");
    EXPECT_EQ(response.rfind("ok id=cli1 ", 0), 0u) << response;
    const std::string metrics = client.request("metrics");
    EXPECT_EQ(metrics.rfind("ok {", 0), 0u) << metrics;
    EXPECT_EQ(client.request("shutdown"), "ok draining");
  }
  EXPECT_EQ(wait_exit(pid, 30.0), 0);
  std::remove(port_file.c_str());
}

TEST(CliServe, SigtermDrainsTheServer) {
  const std::string port_file = "cli_serve_sigterm_port.txt";
  std::remove(port_file.c_str());

  const pid_t pid = spawn_cli({"serve", "--port-file", port_file, "size=16",
                               "steps=3", "generations=2"});
  ASSERT_GT(pid, 0);
  ASSERT_GT(wait_port(port_file, 30.0), 0);

  ::kill(pid, SIGTERM);
  EXPECT_EQ(wait_exit(pid, 30.0), 0)
      << "SIGTERM must drain and exit cleanly, not kill the process";
  std::remove(port_file.c_str());
}

TEST(CliCampaign, SigintStillWritesReports) {
  const std::string summary = "cli_sigint_summary.json";
  const std::string jsonl = "cli_sigint_jobs.jsonl";
  std::remove(summary.c_str());
  std::remove(jsonl.c_str());

  const pid_t pid = spawn_cli({"campaign", "sizes=16", "steps=3",
                               "generations=3", "population=8",
                               "offspring=8", "jsonl=" + jsonl,
                               "summary=" + summary});
  ASSERT_GT(pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(pid, SIGINT);

  // 0 when every job finished before the signal landed, 2 when some were
  // drained into cancelled records — never a signal death.
  const int exit_code = wait_exit(pid, 120.0);
  EXPECT_TRUE(exit_code == 0 || exit_code == 2)
      << "exit code " << exit_code;

  std::ifstream summary_in(summary);
  ASSERT_TRUE(summary_in.good())
      << "an interrupted campaign must still write its summary";
  std::string text((std::istreambuf_iterator<char>(summary_in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"jobs\""), std::string::npos);
  std::remove(summary.c_str());
  std::remove(jsonl.c_str());
}

TEST(CliCampaign, TracedLanesCarryDistinctSlotNames) {
  // Two engine slots with two lanes each: four lane threads, and the trace
  // must tell every one of them apart.
  const std::string trace = "cli_lane_names_trace.json";
  std::remove(trace.c_str());
  const RunResult run = run_cli(
      {"campaign", "sizes=16", "steps=3", "generations=3", "population=8",
       "offspring=8", "jsonl=none", "summary=none", "--jobs", "2",
       "--workers", "4", "--trace", trace});
  ASSERT_EQ(run.exit_code, 0) << run.err;

  std::ifstream in(trace);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(trace.c_str());
  // Thread-name metadata: {"ph": "M", "name": "thread_name", ...,
  // "args": {"name": "<thread name>"}}, one per traced thread.
  const std::string marker = "\"thread_name\"";
  const std::string arg = "\"args\": {\"name\": \"";
  std::vector<std::string> lanes;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    const std::size_t begin = text.find(arg, at) + arg.size();
    const std::string name = text.substr(begin, text.find('"', begin) - begin);
    if (name.find("sim-worker") != std::string::npos) lanes.push_back(name);
  }
  EXPECT_EQ(lanes.size(), 4u) << text.substr(0, 2000);
  EXPECT_EQ(std::set<std::string>(lanes.begin(), lanes.end()).size(), 4u)
      << text.substr(0, 2000);
}

}  // namespace
