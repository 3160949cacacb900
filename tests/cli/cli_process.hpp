// Run the essns_cli BINARY as a child process: to completion with its
// stdout/stderr captured, or detached (a server) to be signalled and reaped.
// ESSNS_CLI_PATH is stamped by tests/CMakeLists.txt on every module that
// includes this header.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace essns::cli_test {

inline constexpr const char* kCliPath = ESSNS_CLI_PATH;

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

inline void exec_cli(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(kCliPath));
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(kCliPath, argv.data());
  std::perror("execv");
  ::_exit(127);
}

inline std::string drain_fd(int fd) {
  std::string text;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
    text.append(buffer, static_cast<std::size_t>(n));
  return text;
}

/// Run the CLI to completion, capturing stdout/stderr and the exit code.
inline RunResult run_cli(const std::vector<std::string>& args) {
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
inline pid_t spawn_cli(const std::vector<std::string>& args) {
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
inline int wait_exit(pid_t pid, double timeout_seconds) {
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
inline int wait_port(const std::string& port_file, double timeout_seconds) {
  const int polls = static_cast<int>(timeout_seconds * 100.0);
  for (int i = 0; i < polls; ++i) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

}  // namespace essns::cli_test
