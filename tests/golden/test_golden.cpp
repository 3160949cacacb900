// The golden-output gate: what the shipped binary prints, pinned byte for
// byte against files committed next to this test.
//
// Every other bit-identity test compares two paths of one build (lanes vs
// serial, cache vs off, production vs reference sweep). A change that moves
// every path alike — the sweep's arithmetic, a unit conversion, an
// operator's Rng draw order, truth generation — passes all of them and fails
// here. Pinned outputs:
//   campaign-<method>.jsonl  `essns_cli campaign ... timings=zero` over
//                            plains/hills/rugged x steady/wind_shift, size
//                            32, 4 steps, at --jobs 1 --workers 1 and again
//                            at --jobs 2 --workers 3 (same file);
//   single-<method>.txt      the single-run table for ess-ns and
//                            essim-monitor (hills, size 32, seed 3, 3
//                            generations);
//   serve-transcript.txt     predict, replayed repredict and extension, each
//                            response cut at " seconds=";
//   truth-arrival-times.txt  the last ground-truth fire line of plains, hills
//                            and rugged at size 16, every arrival time at
//                            %.17g. The outputs above all derive from burned
//                            cells, which absorb a one-ulp change to a spread
//                            input; these times do not.
// Each run also writes what it printed under ESSNS_GOLDEN_ACTUAL_DIR, so a
// mismatch can be read, and tests/golden/regenerate.sh copies those files
// over the committed ones when a change means to alter results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli_process.hpp"
#include "serve/client.hpp"
#include "synth/workloads.hpp"

namespace {

using namespace essns;
using namespace essns::cli_test;

const std::string kGoldenDir = ESSNS_GOLDEN_DIR;
const std::string kActualDir = ESSNS_GOLDEN_ACTUAL_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream(path, std::ios::binary) << text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Where a JSONL job record first differs: its step (when inside "steps")
/// and the field whose value holds byte `at`.
std::string locate_in_job(const std::string& line, std::size_t at) {
  const std::size_t colon = line.rfind("\":", at);
  const std::size_t open = colon == std::string::npos
                               ? std::string::npos
                               : line.rfind('"', colon - 1);
  std::string where;
  const std::size_t steps = line.find("\"steps\":[");
  const std::size_t step = line.rfind("{\"step\":", at);
  if (steps != std::string::npos && step != std::string::npos && step > steps)
    where += "step " +
             line.substr(step + 8, line.find(',', step) - step - 8) + ", ";
  if (open != std::string::npos)
    where += "field " + line.substr(open, colon - open + 1);
  return where;
}

/// Empty when equal; else the first differing line, and for campaign JSONL
/// the job, step and field that differ.
std::string first_difference(const std::string& expected,
                             const std::string& actual, bool jsonl) {
  if (expected == actual) return "";
  const auto want = split_lines(expected);
  const auto got = split_lines(actual);
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing line>";
    const std::string g = i < got.size() ? got[i] : "<missing line>";
    if (w == g) continue;
    std::size_t at = 0;
    while (at < w.size() && at < g.size() && w[at] == g[at]) ++at;
    std::string message = "line " + std::to_string(i + 1);
    if (jsonl) message += " (job " + std::to_string(i) + ", " +
                          locate_in_job(w, at) + ")";
    const std::size_t from = at < 40 ? 0 : at - 40;
    return message + ":\n  expected ..." + w.substr(from, 120) +
           "\n  actual   ..." + g.substr(from, 120);
  }
  return "outputs differ only in their line endings";
}

void expect_golden(const std::string& name, const std::string& actual,
                   bool jsonl = false) {
  const std::string expected = read_file(kGoldenDir + "/" + name);
  ASSERT_FALSE(expected.empty()) << "no golden file " << kGoldenDir << "/"
                                 << name;
  const std::string difference = first_difference(expected, actual, jsonl);
  if (!difference.empty())
    ADD_FAILURE() << name << " differs from the golden file at " << difference
                  << "\nwhat this build printed is in " << kActualDir;
}

class GoldenCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCampaign, JsonlMatchesAtOneAndTwoJobSlots) {
  const std::string method = GetParam();
  const std::string name = "campaign-" + method + ".jsonl";
  // --jobs 2 --workers 3 gives each job one worker too, so the reports
  // (which record workers per job) are the same file.
  struct Slots {
    const char* jobs;
    const char* workers;
    std::string dir;
  };
  for (const Slots& slots :
       {Slots{"1", "1", kActualDir}, Slots{"2", "3", kActualDir + "/jobs2"}}) {
    std::filesystem::create_directories(slots.dir);
    const std::string jsonl = slots.dir + "/" + name;
    const RunResult run = run_cli(
        {"campaign", "--jobs", slots.jobs, "--workers", slots.workers,
         "terrains=plains,hills,rugged", "weather=steady,wind_shift",
         "ignitions=center", "sizes=32", "steps=4", "method=" + method,
         "timings=zero", "jsonl=" + jsonl, "summary=none"});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    SCOPED_TRACE(std::string("--jobs ") + slots.jobs + " --workers " +
                 slots.workers);
    expect_golden(name, read_file(jsonl), /*jsonl=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, GoldenCampaign,
    ::testing::Values("ess-ga", "essim-ea", "essim-de", "essim-de-tuned",
                      "ess-ns"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(GoldenSingleRun, TablesMatch) {
  for (const std::string method : {"ess-ns", "essim-monitor"}) {
    const RunResult run =
        run_cli({"method=" + method, "workload=hills", "size=32", "seed=3",
                 "generations=3"});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    const std::string name = "single-" + method + ".txt";
    write_file(kActualDir + "/" + name, run.out);
    expect_golden(name, run.out);
  }
}

TEST(GoldenServe, TranscriptMatches) {
  std::filesystem::create_directories(kActualDir);
  const std::string port_file = kActualDir + "/serve_port.txt";
  std::remove(port_file.c_str());
  const pid_t pid =
      spawn_cli({"serve", "--port-file", port_file, "--workers", "2",
                 "size=32", "generations=3"});
  ASSERT_GT(pid, 0);
  const int port = wait_port(port_file, 30.0);
  ASSERT_GT(port, 0) << "server never published its port";

  std::string transcript;
  {
    serve::LineClient client("127.0.0.1", port);
    // A predict, its replay from the fire's record, and a one-step
    // extension that runs a job on the warm cache.
    for (const std::string request :
         {"predict id=g terrain=hills seed=5 steps=3", "repredict id=g",
          "repredict id=g steps=4"}) {
      const std::string response = client.request(request);
      transcript += request + "\n" +
                    response.substr(0, response.find(" seconds=")) + "\n";
    }
    EXPECT_EQ(client.request("shutdown"), "ok draining");
  }
  EXPECT_EQ(wait_exit(pid, 30.0), 0);
  std::remove(port_file.c_str());
  write_file(kActualDir + "/serve-transcript.txt", transcript);
  expect_golden("serve-transcript.txt", transcript);
}

TEST(GoldenTruth, ArrivalTimesMatch) {
  std::string text;
  for (const synth::Workload& workload :
       {synth::make_plains(16), synth::make_hills(16), synth::make_rugged(16)}) {
    Rng rng(workload.seed);
    const firelib::IgnitionMap times =
        synth::generate_truth(workload, rng).fire_lines.back();
    text += workload.name + "\n";
    for (int r = 0; r < times.rows(); ++r) {
      for (int c = 0; c < times.cols(); ++c) {
        char value[32];
        std::snprintf(value, sizeof(value), "%s%.17g", c == 0 ? "" : " ",
                      times(r, c));
        text += value;
      }
      text += "\n";
    }
  }
  write_file(kActualDir + "/truth-arrival-times.txt", text);
  expect_golden("truth-arrival-times.txt", text);
}

}  // namespace
