// essns_cli: run any configured prediction system from key=value arguments
// or a config file — the command-line front door to the library.
//
//   essns_cli method=ess-ns workload=wind_shift size=48 generations=25
//   essns_cli @run.conf            (read keys from a file)
//   essns_cli campaign --jobs 4 --workers 4 sizes=32 generations=10
//   essns_cli campaign --catalog catalog.conf jsonl=jobs.jsonl
//   essns_cli serve --port 7733 --jobs 2 --workers 4
//   essns_cli --help
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

void print_help() {
  std::printf(
      "usage: essns_cli [key=value ...] [@config-file]\n"
      "       essns_cli campaign [flags] [key=value ...]\n"
      "       essns_cli serve [flags] [key=value ...]\n\n"
      "single run\n"
      "  keys: workload size method seed generations fitness_threshold\n"
      "        population offspring workers novelty_k islands cache\n"
      "        cache_mem simd numa backend trace metrics_out\n"
      "  methods:");
  for (const auto& m : ess::RunSpec::known_methods())
    std::printf(" %s", m.c_str());
  std::printf(
      "\n  workloads: plains hills wind_shift\n\n"
      "campaign — one prediction job per catalog workload, run concurrently\n"
      "  flags:\n"
      "    --jobs N       prediction jobs in flight at once (default 1)\n"
      "    --workers N    total simulation-worker budget, split evenly over\n"
      "                   the concurrent jobs (default 1; also valid in\n"
      "                   single-run mode, where it maps to workers=N)\n"
      "    --cache P      scenario memoization policy (also valid in\n"
      "                   single-run mode); results are bit-identical under\n"
      "                   every policy:\n"
      "                     off     no memoization\n"
      "                     step    per-step cache, wiped every prediction\n"
      "                             step (default)\n"
      "                     shared  one byte-bounded cache kept across steps\n"
      "                             and shared by all concurrent jobs\n"
      "    --cache-mem M  shared-cache byte budget in MiB (default 256;\n"
      "                   entries are charged by stored map bytes and\n"
      "                   evicted cost-aware when the budget is exceeded)\n"
      "    --simd K       relax-kernel selection (also valid in single-run\n"
      "                   mode); results are bit-identical either way:\n"
      "                     auto    AVX2 when the host supports it (default)\n"
      "                     avx2    request AVX2 (falls back to scalar on\n"
      "                             hosts without it)\n"
      "                     scalar  the scalar oracle kernel\n"
      "    --numa P       NUMA-aware worker placement (also valid in\n"
      "                   single-run mode): off | auto | on. auto (default)\n"
      "                   pins simulation workers to nodes only on\n"
      "                   multi-node hosts; performance-only, results are\n"
      "                   bit-identical at any setting\n"
      "    --backend B    sweep backend (also valid in single-run mode);\n"
      "                   results are bit-identical either way:\n"
      "                     scalar   one sweep per scenario (default)\n"
      "                     batched  evaluate a whole simulation batch in\n"
      "                              one pass: travel-time tables built once\n"
      "                              per fuel-model group, per-scenario hot\n"
      "                              state laid out in one contiguous slab\n"
      "    --trace F      record spans (jobs x pipeline stages x workers)\n"
      "                   and write a Chrome trace-event JSON timeline to F\n"
      "                   (open in chrome://tracing or ui.perfetto.dev;\n"
      "                   also valid in single-run mode; 'none' disables;\n"
      "                   results are bit-identical with tracing on or off)\n"
      "    --metrics-out F  write a metrics JSON scrape to F — sweep/cache/\n"
      "                   pool counters plus p50/p90/p99 latency histograms\n"
      "                   (also valid in single-run mode; 'none' disables;\n"
      "                   result-neutral like --trace)\n"
      "    --cache-load F restore a cache snapshot (written by --cache-save\n"
      "                   or serve) before the campaign; requires --cache\n"
      "                   shared. Entries are re-accounted against this\n"
      "                   run's --cache-mem budget; results stay\n"
      "                   bit-identical to a cold run\n"
      "    --cache-save F write the shared cache to F after the campaign\n"
      "                   (requires --cache shared) for a later warm start\n"
      "    --catalog F    read a catalog spec (key=value file) instead of\n"
      "                   the built-in default catalog (8 workloads)\n"
      "  campaign keys: method seed generations fitness_threshold population\n"
      "                 offspring novelty_k islands jsonl csv summary\n"
      "                 timings\n"
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
      "  flags:\n"
      "    --host A       bind address (default 127.0.0.1)\n"
      "    --port N       TCP port; 0 picks an ephemeral port (default 0)\n"
      "    --port-file F  write the chosen port to F once listening\n"
      "    --jobs N       prediction jobs in flight at once (default 1)\n"
      "    --workers N    total simulation-worker budget (default 1)\n"
      "    --queue N      pending-request bound beyond the running jobs;\n"
      "                   excess requests get 'err ... rejected' (default 16)\n"
      "    --cache-mem M  shared-cache byte budget in MiB (default 256)\n"
      "    --cache-load F restore a cache snapshot before serving\n"
      "    --cache-save F write the cache snapshot on clean shutdown\n"
      "    --simd K / --numa P / --backend B / --trace F / --metrics-out F\n"
      "                   as above\n"
      "  serve keys (defaults for requests that do not override them):\n"
      "    seed terrain size weather ignition steps step_minutes noise\n"
      "    method generations fitness_threshold population offspring\n"
      "    novelty_k islands\n"
      "  SIGINT/SIGTERM drain gracefully: in-flight jobs finish, queued ones\n"
      "  are cancelled with a response, the cache snapshot is still saved.\n\n"
      "exit status: 0 all jobs succeeded (or clean serve shutdown),\n"
      "             1 on usage/config error,\n"
      "             2 when the campaign finished with failed jobs\n");
}

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

simd::Mode require_simd_mode(const char* flag, const std::string& value) {
  const auto mode = simd::parse_simd_mode(value);
  if (!mode) {
    std::fprintf(stderr, "%s expects auto|avx2|scalar, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *mode;
}

parallel::NumaMode require_numa_mode(const char* flag,
                                     const std::string& value) {
  const auto mode = parallel::parse_numa_mode(value);
  if (!mode) {
    std::fprintf(stderr, "%s expects off|auto|on, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *mode;
}

firelib::SweepBackend require_backend(const char* flag,
                                      const std::string& value) {
  const auto backend = firelib::parse_sweep_backend(value);
  if (!backend) {
    std::fprintf(stderr, "%s expects scalar|batched, got '%s'\n", flag,
                 value.c_str());
    std::exit(1);
  }
  return *backend;
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
    if (arg == "--jobs" || arg == "--workers" || arg == "--cache" ||
        arg == "--cache-mem" || arg == "--cache-load" ||
        arg == "--cache-save" || arg == "--simd" || arg == "--numa" ||
        arg == "--backend" || arg == "--trace" || arg == "--metrics-out" ||
        arg == "--catalog") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", arg.c_str());
        return 1;
      }
      const char* value = argv[++i];
      if (arg == "--jobs") {
        config.job_concurrency =
            static_cast<unsigned>(require_positive_int("--jobs", value));
      } else if (arg == "--workers") {
        config.total_workers =
            static_cast<unsigned>(require_positive_int("--workers", value));
      } else if (arg == "--cache") {
        config.cache_policy = require_cache_policy("--cache", value);
      } else if (arg == "--cache-mem") {
        config.cache_mem_bytes =
            static_cast<std::size_t>(
                require_positive_int("--cache-mem", value))
            << 20;
      } else if (arg == "--cache-load") {
        cache_load_path = value;
      } else if (arg == "--cache-save") {
        cache_save_path = value;
      } else if (arg == "--simd") {
        config.simd_mode = require_simd_mode("--simd", value);
      } else if (arg == "--numa") {
        config.numa_mode = require_numa_mode("--numa", value);
      } else if (arg == "--backend") {
        config.backend = require_backend("--backend", value);
      } else if (arg == "--trace") {
        config.trace_out = std::strcmp(value, "none") == 0 ? "" : value;
      } else if (arg == "--metrics-out") {
        config.metrics_out = std::strcmp(value, "none") == 0 ? "" : value;
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
    if (is_catalog_key(key)) {
      catalog_inline_text += arg + "\n";
    } else if (key == "method") {
      config.method = value;
    } else if (key == "seed") {
      config.seed = require_uint64("seed", value);
    } else if (key == "generations") {
      config.generations = require_positive_int("generations", value);
    } else if (key == "fitness_threshold") {
      config.fitness_threshold =
          require_double("fitness_threshold", value);
    } else if (key == "population") {
      config.population = static_cast<std::size_t>(
          require_positive_int("population", value));
    } else if (key == "offspring") {
      config.offspring = static_cast<std::size_t>(
          require_positive_int("offspring", value));
    } else if (key == "novelty_k") {
      config.novelty_k = require_positive_int("novelty_k", value);
    } else if (key == "islands") {
      config.islands = require_positive_int("islands", value);
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
      config.cache_policy != cache::CachePolicy::kShared) {
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
                workloads.size(), config.job_concurrency,
                config.total_workers);

    const std::size_t total = workloads.size();
    config.on_job_done = [total](const service::JobRecord& job) {
      std::printf("  job %3zu/%zu  %-32s %-9s %6.2fs%s%s\n", job.index + 1,
                  total, job.workload.c_str(),
                  service::to_string(job.status), job.elapsed_seconds,
                  job.error.empty() ? "" : "  ", job.error.c_str());
      std::fflush(stdout);
    };

    std::shared_ptr<cache::SharedScenarioCache> persistent_cache;
    if (!cache_load_path.empty() || !cache_save_path.empty()) {
      persistent_cache = std::make_shared<cache::SharedScenarioCache>(
          config.cache_mem_bytes);
      if (!cache_load_path.empty()) {
        const cache::RestoreStats restored =
            cache::load_cache(*persistent_cache, cache_load_path);
        std::printf(
            "cache: restored %zu/%zu entries from %s (%zu evicted, %zu "
            "rejected by the %.0f MiB budget)\n",
            restored.restored, restored.entries_in_file,
            cache_load_path.c_str(), restored.evictions, restored.rejected,
            static_cast<double>(config.cache_mem_bytes) / (1024.0 * 1024.0));
      }
      config.shared_cache = persistent_cache;
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
    if (!config.trace_out.empty())
      std::printf("wrote %s\n", config.trace_out.c_str());
    if (!config.metrics_out.empty())
      std::printf("wrote %s\n", config.metrics_out.c_str());
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
          cache::save_cache(*persistent_cache, cache_save_path);
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
    if (arg == "--host" || arg == "--port" || arg == "--port-file" ||
        arg == "--jobs" || arg == "--workers" || arg == "--queue" ||
        arg == "--cache-mem" || arg == "--cache-load" ||
        arg == "--cache-save" || arg == "--simd" || arg == "--numa" ||
        arg == "--backend" || arg == "--trace" || arg == "--metrics-out") {
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
      } else if (arg == "--jobs") {
        config.job_slots =
            static_cast<unsigned>(require_positive_int("--jobs", value));
      } else if (arg == "--workers") {
        config.total_workers =
            static_cast<unsigned>(require_positive_int("--workers", value));
      } else if (arg == "--queue") {
        config.queue_capacity = static_cast<std::size_t>(
            require_positive_int("--queue", value));
      } else if (arg == "--cache-mem") {
        config.cache_mem_bytes =
            static_cast<std::size_t>(
                require_positive_int("--cache-mem", value))
            << 20;
      } else if (arg == "--cache-load") {
        config.cache_load = value;
      } else if (arg == "--cache-save") {
        config.cache_save = value;
      } else if (arg == "--simd") {
        config.simd_mode = require_simd_mode("--simd", value);
      } else if (arg == "--numa") {
        config.numa_mode = require_numa_mode("--numa", value);
      } else if (arg == "--backend") {
        config.backend = require_backend("--backend", value);
      } else if (arg == "--trace") {
        config.trace_out = std::strcmp(value, "none") == 0 ? "" : value;
      } else {
        config.metrics_out = std::strcmp(value, "none") == 0 ? "" : value;
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
    } else if (key == "method") {
      config.default_spec.method = value;
    } else if (key == "generations") {
      config.default_spec.generations =
          require_positive_int("generations", value);
    } else if (key == "fitness_threshold") {
      config.default_spec.fitness_threshold =
          require_double("fitness_threshold", value);
    } else if (key == "population") {
      config.default_spec.population = static_cast<std::size_t>(
          require_positive_int("population", value));
    } else if (key == "offspring") {
      config.default_spec.offspring = static_cast<std::size_t>(
          require_positive_int("offspring", value));
    } else if (key == "novelty_k") {
      config.default_spec.novelty_k = require_positive_int("novelty_k", value);
    } else if (key == "islands") {
      config.default_spec.islands = require_positive_int("islands", value);
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
  std::ostringstream config_text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--workers expects a value\n");
        return 1;
      }
      config_text << "workers=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--cache") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cache expects a value\n");
        return 1;
      }
      config_text << "cache=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--cache-mem") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cache-mem expects a value\n");
        return 1;
      }
      config_text << "cache_mem=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--simd") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--simd expects a value\n");
        return 1;
      }
      config_text << "simd=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--numa") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--numa expects a value\n");
        return 1;
      }
      config_text << "numa=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--backend") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--backend expects a value\n");
        return 1;
      }
      config_text << "backend=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace expects a value\n");
        return 1;
      }
      config_text << "trace=" << argv[++i] << '\n';
      continue;
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--metrics-out expects a value\n");
        return 1;
      }
      config_text << "metrics_out=" << argv[++i] << '\n';
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
              spec.method.c_str(), spec.workload.c_str(), spec.size, spec.size,
              static_cast<unsigned long long>(spec.seed), spec.generations);

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
