// perfbench_tool: the benchmark's C++ side. It links the essns library and
// calls only its public entry points:
//
//   oracle THREADS < lines
//       Each stdin line is "<predict|repredict> <predict request line>". For
//       every line, build the fire and search spec exactly as a default
//       serve::Server does, run service::run_prediction_job with the cache
//       OFF on one worker, and print serve::format_job_response — the
//       deterministic prefix the server's response must match byte for
//       byte. Lines run on THREADS threads; output keeps input order.
//
//   synth < lines
//       Time synth::make_workload on each stdin request line's fire (the
//       terrain synthesis a server does on its I/O thread). Prints JSON.
//
//   campaign-oracle THREADS [spec key=value ...] < catalog
//       Expand the catalog spec read from stdin and print one
//       format_job_response line per job, in catalog order, computed with
//       the cache OFF on one worker.
//
//   campaign CATALOG_FILE ORDER_FILE [options] [spec key=value ...]
//       The campaign workload under test: catalog expansion plus engine
//       start (timed, --setup-reps times), an untimed warm-up, then the
//       timed closed batch submitted in ORDER_FILE's order. Prints one JSON
//       object: set-up times, batch wall time, CPU seconds, peak RSS, each
//       job's deterministic line and timings, and (with --metrics) the
//       engine's metrics scrape before and after the batch.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// VmHWM from /proc/self/status, in KiB (0 when unavailable).
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// The fire and spec a default-configured server derives from a predict
/// request (serve::Server::submit_prediction, with its cache policy
/// replaced by the oracle's).
struct ServeJob {
  synth::WorkloadRequest fire;
  service::JobSpec spec;
};

ServeJob serve_job(const serve::Request& request) {
  const serve::ServeConfig defaults;
  ServeJob job{defaults.default_fire, defaults.default_spec};
  if (request.terrain) job.fire.terrain = *request.terrain;
  if (request.size) job.fire.size = *request.size;
  if (request.weather) job.fire.weather = *request.weather;
  if (request.ignition) job.fire.ignition = *request.ignition;
  if (request.seed) job.fire.seed = *request.seed;
  if (request.step_minutes) job.fire.step_minutes = *request.step_minutes;
  if (request.noise) job.fire.observation_noise = *request.noise;
  if (request.steps) job.fire.steps = *request.steps;
  if (request.method) job.spec.method = *request.method;
  if (request.generations) job.spec.generations = *request.generations;
  if (request.fitness_threshold)
    job.spec.fitness_threshold = *request.fitness_threshold;
  if (request.population) job.spec.population = *request.population;
  if (request.offspring) job.spec.offspring = *request.offspring;
  if (request.novelty_k) job.spec.novelty_k = *request.novelty_k;
  if (request.islands) job.spec.islands = *request.islands;
  return job;
}

/// Run fn(i) for i in [0, n) on `threads` threads.
template <typename Fn>
void parallel_indices(std::size_t n, unsigned threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (auto& thread : pool) thread.join();
}

service::JobRecord oracle_record(const synth::Workload& workload,
                                 std::size_t index, std::uint64_t seed,
                                 service::JobSpec spec) {
  spec.cache_policy = cache::CachePolicy::kOff;
  return service::run_prediction_job(workload, index, seed, 1, spec,
                                     simd::Mode::kAuto,
                                     parallel::NumaMode::kAuto,
                                     firelib::SweepBackend::kScalar, nullptr);
}

int cmd_oracle(unsigned threads) {
  const std::vector<std::string> lines = read_lines(std::cin);
  std::vector<std::string> out(lines.size());
  const std::uint64_t server_seed = serve::ServeConfig{}.seed;
  parallel_indices(lines.size(), threads, [&](std::size_t i) {
    const std::size_t space = lines[i].find(' ');
    const serve::Verb verb = lines[i].substr(0, space) == "repredict"
                                 ? serve::Verb::kRepredict
                                 : serve::Verb::kPredict;
    const serve::Request request =
        serve::parse_request(lines[i].substr(space + 1));
    const ServeJob job = serve_job(request);
    const synth::Workload workload = synth::make_workload(job.fire);
    out[i] = serve::format_job_response(
        request.id, verb, oracle_record(workload, 0, server_seed, job.spec));
  });
  for (const std::string& line : out) std::printf("%s\n", line.c_str());
  return 0;
}

int cmd_synth() {
  const std::vector<std::string> lines = read_lines(std::cin);
  std::vector<synth::WorkloadRequest> fires;
  for (const std::string& line : lines)
    fires.push_back(serve_job(serve::parse_request(line)).fire);
  double total = 0.0;
  for (const auto& fire : fires) {
    const Clock::time_point start = Clock::now();
    const synth::Workload workload = synth::make_workload(fire);
    total += seconds_since(start);
    if (workload.environment.rows() == 0) return 1;
  }
  std::printf("{\"requests\": %zu, \"seconds\": %.9f}\n", fires.size(), total);
  return 0;
}

/// Apply "key=value" search-spec arguments (the campaign spec vocabulary).
service::JobSpec parse_spec(const std::vector<std::string>& args) {
  service::JobSpec spec;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    ESSNS_REQUIRE(eq != std::string::npos, "spec argument is not key=value");
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "method") spec.method = value;
    else if (key == "generations") spec.generations = std::stoi(value);
    else if (key == "fitness_threshold")
      spec.fitness_threshold = std::stod(value);
    else if (key == "population") spec.population = std::stoul(value);
    else if (key == "offspring") spec.offspring = std::stoul(value);
    else throw InvalidArgument("unknown spec key: " + key);
  }
  return spec;
}

/// Campaign seed every benchmark campaign runs under.
constexpr std::uint64_t kCampaignSeed = 2022;

int cmd_campaign_oracle(unsigned threads,
                        const std::vector<std::string>& spec_args) {
  const service::JobSpec spec = parse_spec(spec_args);
  const std::vector<synth::Workload> workloads =
      synth::generate_catalog(synth::parse_catalog_spec(std::cin));
  std::vector<std::string> out(workloads.size());
  parallel_indices(workloads.size(), threads, [&](std::size_t i) {
    out[i] = serve::format_job_response(
        workloads[i].name, serve::Verb::kPredict,
        oracle_record(workloads[i], i, kCampaignSeed, spec));
  });
  for (const std::string& line : out) std::printf("%s\n", line.c_str());
  return 0;
}

struct CampaignOptions {
  std::string catalog_path;
  std::string order_path;
  unsigned slots = 1;
  int setup_reps = 3;
  std::size_t warmup_jobs = 0;
  bool metrics = false;
  std::string trace_out;
  std::vector<std::string> spec_args;
};

int cmd_campaign(const CampaignOptions& options) {
  const service::JobSpec spec = parse_spec(options.spec_args);
  std::vector<std::size_t> order;
  {
    std::istringstream in(read_file(options.order_path));
    for (std::size_t index; in >> index;) order.push_back(index);
  }

  // Set-up: what a campaign user waits for before the first job can start —
  // reading and expanding the catalog, then starting the engine. Repeated
  // so the reported figure can be a median; the last repetition is kept.
  std::vector<double> setup_seconds;
  std::vector<double> catalog_seconds;
  std::vector<synth::Workload> workloads;
  std::unique_ptr<service::PredictionEngine> engine;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    engine.reset();
    workloads.clear();
    const bool last = rep + 1 == options.setup_reps;
    const Clock::time_point start = Clock::now();
    workloads = synth::generate_catalog(
        synth::parse_catalog_spec(read_file(options.catalog_path)));
    catalog_seconds.push_back(seconds_since(start));
    service::EngineConfig config;
    config.job_slots = options.slots;
    config.total_workers = options.slots;  // one simulation worker per job
    config.queue_capacity = workloads.size() + options.warmup_jobs + 1;
    config.collect_metrics = options.metrics;
    if (last) config.trace_out = options.trace_out;
    engine = std::make_unique<service::PredictionEngine>(std::move(config));
    setup_seconds.push_back(seconds_since(start));
  }
  for (const std::size_t index : order)
    ESSNS_REQUIRE(index < workloads.size(), "order index out of range");

  std::vector<std::shared_ptr<const synth::Workload>> shared;
  for (auto& workload : workloads)
    shared.push_back(std::make_shared<const synth::Workload>(workload));

  const auto submit = [&](std::size_t index, std::size_t job_index,
                          std::function<void(const service::JobRecord&)> done) {
    service::JobRequest request;
    request.workload = shared[index];
    request.index = job_index;
    request.campaign_seed = kCampaignSeed;
    request.spec = spec;
    request.on_done = std::move(done);
    service::Submission submission = engine->submit(std::move(request));
    ESSNS_REQUIRE(submission.admission == service::Admission::kAccepted,
                  "campaign job was not admitted");
    return std::move(submission.record);
  };

  // Untimed warm-up: the first `warmup_jobs` fires of the order, under job
  // indices past the catalog so their seeds — and so their results — are
  // not those of any timed job.
  {
    std::vector<std::future<service::JobRecord>> warmup;
    for (std::size_t k = 0; k < options.warmup_jobs && k < order.size(); ++k)
      warmup.push_back(submit(order[k], workloads.size() + k, nullptr));
    for (auto& future : warmup) future.get();
  }

  const std::string metrics_before = engine->metrics_json();
  std::vector<double> submit_at(workloads.size(), 0.0);
  std::vector<double> done_at(workloads.size(), 0.0);
  std::mutex done_mutex;
  std::vector<std::future<service::JobRecord>> futures(workloads.size());
  const double cpu_start = cpu_seconds();
  const Clock::time_point batch_start = Clock::now();
  for (const std::size_t index : order) {
    submit_at[index] = seconds_since(batch_start);
    futures[index] = submit(index, index, [&, index](const service::JobRecord&) {
      const std::lock_guard<std::mutex> lock(done_mutex);
      done_at[index] = seconds_since(batch_start);
    });
  }
  std::vector<service::JobRecord> records;
  for (auto& future : futures)
    if (future.valid()) records.push_back(future.get());
  const double wall = seconds_since(batch_start);
  const double cpu = cpu_seconds() - cpu_start;
  const std::string metrics_after = engine->metrics_json();
  const long rss_kib = peak_rss_kib();
  engine.reset();  // joins the slots, writes the trace

  std::printf("{\"setup_seconds\": [");
  for (std::size_t i = 0; i < setup_seconds.size(); ++i)
    std::printf("%s%.9f", i ? ", " : "", setup_seconds[i]);
  std::printf("], \"catalog_seconds\": [");
  for (std::size_t i = 0; i < catalog_seconds.size(); ++i)
    std::printf("%s%.9f", i ? ", " : "", catalog_seconds[i]);
  std::printf("], \"slots\": %u, \"wall_seconds\": %.9f, \"cpu_seconds\": %.6f,"
              " \"peak_rss_kib\": %ld, \"jobs\": [",
              options.slots, wall, cpu, rss_kib);
  bool first = true;
  for (const service::JobRecord& record : records) {
    std::printf("%s{\"index\": %zu, \"line\": %s, \"elapsed\": %.9f,"
                " \"submit\": %.9f, \"done\": %.9f, \"quality\": %.17g}",
                first ? "" : ", ", record.index,
                json_string(serve::format_job_response(
                                record.workload, serve::Verb::kPredict, record))
                    .c_str(),
                record.elapsed_seconds, submit_at[record.index],
                done_at[record.index],
                record.status == service::JobStatus::kSucceeded
                    ? record.result.mean_quality()
                    : 0.0);
    first = false;
  }
  std::printf("], \"metrics_before\": %s, \"metrics_after\": %s}\n",
              options.metrics ? serve::compact_json(metrics_before).c_str()
                              : "null",
              options.metrics ? serve::compact_json(metrics_after).c_str()
                              : "null");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool oracle THREADS < lines\n"
               "       perfbench_tool synth < lines\n"
               "       perfbench_tool campaign-oracle THREADS [key=value ...] "
               "< catalog\n"
               "       perfbench_tool campaign CATALOG ORDER [--slots N] "
               "[--setup-reps K] [--warmup J] [--metrics] [--trace F] "
               "[key=value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "oracle" && argc == 3)
      return cmd_oracle(static_cast<unsigned>(std::atoi(argv[2])));
    if (command == "synth" && argc == 2) return cmd_synth();
    if (command == "campaign-oracle" && argc >= 3)
      return cmd_campaign_oracle(static_cast<unsigned>(std::atoi(argv[2])),
                                 std::vector<std::string>(argv + 3, argv + argc));
    if (command == "campaign" && argc >= 4) {
      CampaignOptions options;
      options.catalog_path = argv[2];
      options.order_path = argv[3];
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--slots" && i + 1 < argc)
          options.slots = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (arg == "--setup-reps" && i + 1 < argc)
          options.setup_reps = std::max(1, std::atoi(argv[++i]));
        else if (arg == "--warmup" && i + 1 < argc)
          options.warmup_jobs = static_cast<std::size_t>(std::atoi(argv[++i]));
        else if (arg == "--metrics")
          options.metrics = true;
        else if (arg == "--trace" && i + 1 < argc)
          options.trace_out = argv[++i];
        else
          options.spec_args.push_back(arg);
      }
      return cmd_campaign(options);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
  return usage();
}
