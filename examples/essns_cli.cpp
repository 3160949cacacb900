// essns_cli: run any configured prediction system from key=value arguments
// or a config file — the command-line front door to the library.
//
//   essns_cli method=ess-ns workload=wind_shift size=48 generations=25
//   essns_cli @run.conf            (read keys from a file)
//   essns_cli campaign --jobs 4 --workers 4 sizes=32 generations=10
//   essns_cli campaign --catalog catalog.conf jsonl=jobs.jsonl
//   essns_cli serve --port 7733 --jobs 2 --workers 4
//   essns_cli --help
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/cache_io.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "ess/config.hpp"
#include "serve/server.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "service/signals.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

bool is_catalog_key(const std::string& key) {
  static const char* keys[] = {"terrains", "sizes",        "weather",
                               "ignitions", "seeds",       "base_seed",
                               "steps",     "step_minutes", "noise",
                               "limit"};
  for (const char* k : keys)
    if (key == k) return true;
  return false;
}

// Strict flag parsing on top of common/parse.hpp: reject, report, exit.
int require_positive_int(const char* flag, const std::string& value) {
  const auto v = parse_int(value);
  if (!v || *v < 1) {
    std::fprintf(stderr, "%s expects a positive integer, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *v;
}

std::uint64_t require_uint64(const char* flag, const std::string& value) {
  const auto v = parse_uint64(value);
  if (!v) {
    std::fprintf(stderr, "%s expects a 64-bit unsigned integer, got '%s'\n",
                 flag, value.c_str());
    std::exit(1);
  }
  return *v;
}

double require_double(const char* flag, const std::string& value) {
  const auto v = parse_double(value);
  if (!v) {
    std::fprintf(stderr, "%s expects a finite number, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *v;
}

cache::CachePolicy require_cache_policy(const char* flag,
                                        const std::string& value) {
  const auto policy = cache::parse_cache_policy(value);
  if (!policy) {
    std::fprintf(stderr, "%s expects off|step|shared, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *policy;
}

// The search keys of the campaign and serve modes, bounded by
// ess::set_search_key like every other front door. False for other keys.
bool search_key(ess::SearchSpec& spec, const std::string& key,
                const std::string& value) {
  try {
    return ess::set_search_key(spec, key, value);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

// The run flags campaign and serve share: each writes one EngineConfig
// field or snapshot path, and this one table drives both the parse and the
// --help lines.
struct RunFlagTarget {
  service::EngineConfig& engine;
  std::string& cache_load;
  std::string& cache_save;
};

struct RunFlag {
  const char* name;
  const char* metavar;
  const char* help;
  void (*apply)(RunFlagTarget& target, const char* flag, const char* value);
};

std::string path_or_off(const char* value) {
  return std::strcmp(value, "none") == 0 ? "" : value;
}

const RunFlag kRunFlags[] = {
    {"--jobs", "N", "prediction jobs in flight at once (default 1)",
     [](RunFlagTarget& t, const char* f, const char* v) {
       t.engine.job_slots = static_cast<unsigned>(require_positive_int(f, v));
     }},
    {"--workers", "N",
     "total simulation-worker budget, split evenly over the\n"
     "                   concurrent jobs (default 1; also valid in\n"
     "                   single-run mode, where it maps to workers=N)",
     [](RunFlagTarget& t, const char* f, const char* v) {
       t.engine.total_workers =
           static_cast<unsigned>(require_positive_int(f, v));
     }},
    {"--cache-mem", "M",
     "shared-cache byte budget in MiB (default 256; an\n"
     "                   entry stores one bit per grid cell plus its\n"
     "                   scores, is charged by those bytes, and is\n"
     "                   evicted cost-aware when the budget is exceeded)",
     [](RunFlagTarget& t, const char* f, const char* v) {
       t.engine.cache_mem_bytes =
           static_cast<std::size_t>(require_positive_int(f, v)) << 20;
     }},
    {"--cache-load", "F",
     "restore a cache snapshot (written by --cache-save)\n"
     "                   before the first job; a campaign needs --cache\n"
     "                   shared. Entries are re-accounted against this\n"
     "                   run's --cache-mem budget; results stay\n"
     "                   bit-identical to a cold run",
     [](RunFlagTarget& t, const char*, const char* v) { t.cache_load = v; }},
    {"--cache-save", "F",
     "write the shared cache to F after the campaign (which\n"
     "                   needs --cache shared) or on clean serve shutdown,\n"
     "                   for a later warm start",
     [](RunFlagTarget& t, const char*, const char* v) { t.cache_save = v; }},
    {"--trace", "F",
     "record spans (jobs x pipeline stages x workers)\n"
     "                   and write a Chrome trace-event JSON timeline to F\n"
     "                   (open in chrome://tracing or ui.perfetto.dev;\n"
     "                   also valid in single-run mode; 'none' disables;\n"
     "                   results are bit-identical with tracing on or off)",
     [](RunFlagTarget& t, const char*, const char* v) {
       t.engine.trace_out = path_or_off(v);
     }},
    {"--metrics-out", "F",
     "write a metrics JSON scrape to F — sweep/cache/\n"
     "                   pool counters plus p50/p90/p99 latency histograms\n"
     "                   (also valid in single-run mode; 'none' disables;\n"
     "                   result-neutral like --trace)",
     [](RunFlagTarget& t, const char*, const char* v) {
       t.engine.metrics_out = path_or_off(v);
     }},
};

// If argv[i] is a run flag, apply it with its value (advancing i) and
// return true. A missing or malformed value exits 1.
bool take_run_flag(int argc, char** argv, int& i, RunFlagTarget target) {
  for (const RunFlag& flag : kRunFlags) {
    if (std::strcmp(argv[i], flag.name) != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", flag.name);
      std::exit(1);
    }
    flag.apply(target, flag.name, argv[++i]);
    return true;
  }
  return false;
}

void print_help() {
  std::printf(
      "usage: essns_cli [key=value ...] [@config-file]\n"
      "       essns_cli campaign [flags] [key=value ...]\n"
      "       essns_cli serve [flags] [key=value ...]\n\n"
      "single run\n"
      "  keys: workload size seed workers cache cache_mem trace metrics_out\n"
      "        and the search keys\n"
      "  search keys (every mode; a value out of bounds is a usage error):\n"
      "    method generations (>= 1) fitness_threshold (finite)\n"
      "    population (>= 2) offspring (>= 1) novelty_k (>= 0; 0 = all\n"
      "    neighbours) islands (>= 1); essim-de needs population >= 4 and\n"
      "    ess-ga offspring >= 2\n"
      "  methods:");
  for (const auto& m : ess::SearchSpec::known_methods())
    std::printf(" %s", m.c_str());
  std::printf(
      "\n  workloads: plains hills wind_shift\n\n"
      "campaign — one prediction job per catalog workload, run concurrently\n"
      "  flags (and the run flags below):\n"
      "    --cache P      scenario memoization policy (also valid in\n"
      "                   single-run mode); results are bit-identical under\n"
      "                   every policy:\n"
      "                     off     no memoization\n"
      "                     step    per-step cache, wiped every prediction\n"
      "                             step (default)\n"
      "                     shared  one byte-bounded cache kept across steps\n"
      "                             and shared by all concurrent jobs\n"
      "    --catalog F    read a catalog spec (key=value file) instead of\n"
      "                   the built-in default catalog (8 workloads)\n"
      "  campaign keys: the search keys, seed jsonl csv summary timings\n"
      "                 (jsonl/csv/summary are output paths; 'none' skips;\n"
      "                 defaults campaign_jobs.jsonl / none /\n"
      "                 campaign_summary.json)\n"
      "                 timings=wall|zero: zero renders every wall-clock\n"
      "                 field as 0, making reports a pure function of the\n"
      "                 seeds (the canonical form determinism checks\n"
      "                 byte-compare)\n"
      "  catalog keys:  terrains sizes weather ignitions seeds base_seed\n"
      "                 steps step_minutes noise limit\n"
      "                 terrains:  plains hills rugged\n"
      "                 weather:   steady wind_shift diurnal\n"
      "                 ignitions: center offset edge corner\n\n"
      "serve — long-lived prediction server (newline-delimited protocol\n"
      "        over TCP; see README 'Serving'). One engine, one warm cache.\n"
      "  flags (and the run flags below):\n"
      "    --host A       bind address (default 127.0.0.1)\n"
      "    --port N       TCP port; 0 picks an ephemeral port (default 0)\n"
      "    --port-file F  write the chosen port to F once listening\n"
      "    --queue N      pending-request bound beyond the running jobs;\n"
      "                   excess requests get 'err ... rejected' (default 16)\n"
      "  serve keys (defaults for requests that do not override them):\n"
      "    the search keys, seed terrain size weather ignition steps\n"
      "    step_minutes noise\n"
      "  SIGINT/SIGTERM drain gracefully: in-flight jobs finish, queued ones\n"
      "  are cancelled with a response, the cache snapshot is still saved.\n\n"
      "run flags — campaign and serve\n");
  for (const RunFlag& flag : kRunFlags)
    std::printf("    %-14s %s\n",
                (std::string(flag.name) + " " + flag.metavar).c_str(),
                flag.help);
  std::printf(
      "\nexit status: 0 all jobs succeeded (or clean serve shutdown),\n"
      "             1 on usage/config error,\n"
      "             2 when the campaign finished with failed jobs\n");
}

int run_campaign(int argc, char** argv) {
  service::CampaignConfig config;
  // Catalog files accumulate in flag order; inline catalog keys go after
  // them, so later files override earlier ones and inline keys override
  // every file (parse_catalog_spec is last-line-wins).
  std::string catalog_file_text;
  std::string catalog_inline_text;
  std::string jsonl_path = "campaign_jobs.jsonl";
  std::string csv_path = "none";
  std::string summary_path = "campaign_summary.json";
  service::ReportOptions report_options;
  std::string cache_load_path;
  std::string cache_save_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_help();
      return 0;
    }
    if (take_run_flag(argc, argv, i,
                      {config.engine, cache_load_path, cache_save_path}))
      continue;
    if (arg == "--cache" || arg == "--catalog") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", arg.c_str());
        return 1;
      }
      const char* value = argv[++i];
      if (arg == "--cache") {
        config.spec.cache_policy = require_cache_policy("--cache", value);
      } else {
        std::ifstream file(value);
        if (!file) {
          std::fprintf(stderr, "cannot open catalog file %s\n", value);
          return 1;
        }
        std::ostringstream text;
        text << file.rdbuf();
        catalog_file_text += text.str() + "\n";
      }
      continue;
    }
    if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s' for campaign (see --help)\n",
                   arg.c_str());
      return 1;
    }

    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "campaign argument is not key=value: %s\n",
                   arg.c_str());
      return 1;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (search_key(config.spec, key, value)) continue;
    if (is_catalog_key(key)) {
      catalog_inline_text += arg + "\n";
    } else if (key == "seed") {
      config.seed = require_uint64("seed", value);
    } else if (key == "jsonl") {
      jsonl_path = value;
    } else if (key == "csv") {
      csv_path = value;
    } else if (key == "summary") {
      summary_path = value;
    } else if (key == "timings") {
      if (value != "wall" && value != "zero") {
        std::fprintf(stderr, "timings expects wall|zero, got '%s'\n",
                     value.c_str());
        return 1;
      }
      report_options.zero_timings = value == "zero";
    } else {
      std::fprintf(stderr, "unknown campaign key: %s\n", key.c_str());
      return 1;
    }
  }

  if ((!cache_load_path.empty() || !cache_save_path.empty()) &&
      config.spec.cache_policy != cache::CachePolicy::kShared) {
    std::fprintf(stderr,
                 "--cache-load/--cache-save need --cache shared (the "
                 "snapshot is the shared cache)\n");
    return 1;
  }

  // Drain instead of die on SIGINT/SIGTERM: in-flight jobs finish, queued
  // ones resolve as cancelled records, and every report below still writes.
  service::ScopedSignalDrain drain_on_signal;

  try {
    const synth::CatalogSpec spec =
        synth::parse_catalog_spec(catalog_file_text + catalog_inline_text);
    const std::vector<synth::Workload> workloads =
        synth::generate_catalog(spec);
    std::printf("campaign: %zu workloads, %u concurrent jobs, %u workers\n",
                workloads.size(), config.job_concurrency(workloads.size()),
                config.engine.total_workers);

    const std::size_t total = workloads.size();
    config.engine.on_job_done = [total](const service::JobRecord& job) {
      std::printf("  job %3zu/%zu  %-32s %-9s %6.2fs%s%s\n", job.index + 1,
                  total, job.workload.c_str(),
                  service::to_string(job.status), job.elapsed_seconds,
                  job.error.empty() ? "" : "  ", job.error.c_str());
      std::fflush(stdout);
    };

    if (!cache_load_path.empty() || !cache_save_path.empty()) {
      config.engine.shared_cache =
          std::make_shared<cache::SharedScenarioCache>(
              config.engine.cache_mem_bytes);
      if (!cache_load_path.empty()) {
        const cache::RestoreStats restored =
            cache::load_cache(*config.engine.shared_cache, cache_load_path);
        std::printf(
            "cache: restored %zu/%zu entries from %s (%zu evicted, %zu "
            "rejected by the %.0f MiB budget)\n",
            restored.restored, restored.entries_in_file,
            cache_load_path.c_str(), restored.evictions, restored.rejected,
            static_cast<double>(config.engine.cache_mem_bytes) /
                (1024.0 * 1024.0));
      }
    }

    service::CampaignScheduler scheduler(config);
    const service::CampaignResult result = scheduler.run(workloads);

    std::printf("\n");
    service::campaign_summary_table(result).print();
    std::printf(
        "%zu/%zu jobs succeeded in %.2fs wall (%.3f jobs/sec, mean quality "
        "%.3f)\ncache %s: hit-rate %.2f, %zu evictions, %.1f MiB live\n",
        result.succeeded(), result.jobs.size(), result.wall_seconds,
        result.jobs_per_second(), result.mean_quality(),
        cache::to_string(result.cache_policy), result.cache_hit_rate(),
        result.cache_evictions(),
        static_cast<double>(result.cache_bytes()) / (1024.0 * 1024.0));

    if (jsonl_path != "none") {
      service::write_campaign_jsonl(result, jsonl_path, report_options);
      std::printf("wrote %s\n", jsonl_path.c_str());
    }
    if (csv_path != "none") {
      service::write_campaign_csv(result, csv_path, report_options);
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!config.engine.trace_out.empty())
      std::printf("wrote %s\n", config.engine.trace_out.c_str());
    if (!config.engine.metrics_out.empty())
      std::printf("wrote %s\n", config.engine.metrics_out.c_str());
    if (summary_path != "none") {
      std::ofstream out(summary_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", summary_path.c_str());
        return 1;
      }
      out << service::campaign_summary_json(result, report_options) << "\n";
      std::printf("wrote %s\n", summary_path.c_str());
    }
    if (!cache_save_path.empty()) {
      const std::size_t saved =
          cache::save_cache(*config.engine.shared_cache, cache_save_path);
      std::printf("cache: saved %zu entries to %s\n", saved,
                  cache_save_path.c_str());
    }
    if (service::drain_requested())
      std::printf(
          "campaign drained early (signal received): finished jobs are "
          "reported above, cancelled ones as failed records\n");
    return result.failed() == 0 ? 0 : 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "campaign error: %s\n", e.what());
    return 1;
  }
}

int run_serve(int argc, char** argv) {
  serve::ServeConfig config;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_help();
      return 0;
    }
    if (take_run_flag(argc, argv, i,
                      {config.engine, config.cache_load, config.cache_save}))
      continue;
    if (arg == "--host" || arg == "--port" || arg == "--port-file" ||
        arg == "--queue") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", arg.c_str());
        return 1;
      }
      const char* value = argv[++i];
      if (arg == "--host") {
        config.host = value;
      } else if (arg == "--port") {
        const auto port = parse_int(value);
        if (!port || *port < 0 || *port > 65535) {
          std::fprintf(stderr, "--port expects 0..65535, got '%s'\n", value);
          return 1;
        }
        config.port = *port;
      } else if (arg == "--port-file") {
        config.port_file = value;
      } else {
        config.engine.queue_capacity = static_cast<std::size_t>(
            require_positive_int("--queue", value));
      }
      continue;
    }
    if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s' for serve (see --help)\n",
                   arg.c_str());
      return 1;
    }

    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "serve argument is not key=value: %s\n",
                   arg.c_str());
      return 1;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (search_key(config.default_spec, key, value)) continue;
    if (key == "seed") {
      config.seed = require_uint64("seed", value);
    } else if (key == "terrain") {
      const auto terrain = synth::parse_terrain_family(value);
      if (!terrain) {
        std::fprintf(stderr, "terrain expects plains|hills|rugged, got '%s'\n",
                     value.c_str());
        return 1;
      }
      config.default_fire.terrain = *terrain;
    } else if (key == "weather") {
      const auto weather = synth::parse_weather_regime(value);
      if (!weather) {
        std::fprintf(stderr,
                     "weather expects steady|wind_shift|diurnal, got '%s'\n",
                     value.c_str());
        return 1;
      }
      config.default_fire.weather = *weather;
    } else if (key == "ignition") {
      const auto ignition = synth::parse_ignition_pattern(value);
      if (!ignition) {
        std::fprintf(stderr,
                     "ignition expects center|offset|edge|corner, got '%s'\n",
                     value.c_str());
        return 1;
      }
      config.default_fire.ignition = *ignition;
    } else if (key == "size") {
      config.default_fire.size = require_positive_int("size", value);
    } else if (key == "steps") {
      config.default_fire.steps = require_positive_int("steps", value);
    } else if (key == "step_minutes") {
      config.default_fire.step_minutes = require_double("step_minutes", value);
    } else if (key == "noise") {
      config.default_fire.observation_noise = require_double("noise", value);
    } else {
      std::fprintf(stderr, "unknown serve key: %s\n", key.c_str());
      return 1;
    }
  }

  // SIGINT/SIGTERM drain the server exactly like the `shutdown` verb: the
  // poll loop notices, in-flight jobs finish, the cache snapshot still saves.
  service::ScopedSignalDrain drain_on_signal;

  try {
    serve::Server server(std::move(config));
    server.start();
    std::printf("serving on port %d (%u job slots, %u workers, queue %zu)\n",
                server.port(), server.engine().job_slots(),
                server.engine().config().total_workers,
                server.engine().config().queue_capacity);
    if (server.restored_entries() > 0)
      std::printf("cache: restored %zu entries — starting warm\n",
                  server.restored_entries());
    std::fflush(stdout);
    const int rc = server.run();
    std::printf("server stopped%s\n",
                service::drain_requested() ? " (signal drain)" : "");
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "serve error: %s\n", e.what());
    return 1;
  }
}

int run_single(int argc, char** argv) {
  // Single-run flags are spellings of run-spec keys.
  static const std::pair<const char*, const char*> kFlagKeys[] = {
      {"--workers", "workers"}, {"--cache", "cache"},
      {"--cache-mem", "cache_mem"}, {"--trace", "trace"},
      {"--metrics-out", "metrics_out"}};
  std::ostringstream config_text;
  for (int i = 1; i < argc; ++i) {
    const auto flag = std::find_if(
        std::begin(kFlagKeys), std::end(kFlagKeys),
        [&](const auto& fk) { return std::strcmp(argv[i], fk.first) == 0; });
    if (flag != std::end(kFlagKeys)) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", flag->first);
        return 1;
      }
      config_text << flag->second << '=' << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s' for single-run mode (see --help)\n",
                   argv[i]);
      return 1;
    }
    if (argv[i][0] == '@') {
      std::ifstream file(argv[i] + 1);
      if (!file) {
        std::fprintf(stderr, "cannot open config file %s\n", argv[i] + 1);
        return 1;
      }
      config_text << file.rdbuf() << '\n';
    } else {
      config_text << argv[i] << '\n';
    }
  }

  ess::RunSpec spec;
  try {
    spec = ess::parse_run_spec(config_text.str());
  } catch (const Error& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }

  std::printf("running %s on %s (%dx%d), seed %llu, %d generations\n",
              spec.search.method.c_str(), spec.workload.c_str(), spec.size,
              spec.size, static_cast<unsigned long long>(spec.seed),
              spec.search.generations);

  const ess::PipelineResult result = ess::run_spec(spec);

  TextTable table(result.optimizer_name + " on " + spec.workload);
  table.set_header({"predicted", "Kign", "calibration", "quality"});
  for (const auto& step : result.steps) {
    table.add_row({std::string("t").append(std::to_string(step.step)),
                   TextTable::num(step.kign, 2),
                   TextTable::num(step.calibration_fitness),
                   TextTable::num(step.prediction_quality)});
  }
  table.print();
  std::printf("mean prediction quality: %.3f\n", result.mean_quality());
  if (!spec.trace_out.empty())
    std::printf("wrote %s\n", spec.trace_out.c_str());
  if (!spec.metrics_out.empty())
    std::printf("wrote %s\n", spec.metrics_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
    print_help();
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
    return run_campaign(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return run_serve(argc, argv);
  return run_single(argc, argv);
}
