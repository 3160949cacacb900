#include "service/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace essns::service {
namespace {

// Round-trip formatting so JSONL diffs double as bit-determinism checks.
std::string num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write " + path);
  return out;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_campaign_jsonl(const CampaignResult& result, std::ostream& out,
                          const ReportOptions& options) {
  // Canonical form: every wall-clock field renders as 0 so the bytes are a
  // pure function of the seeds.
  const auto secs = [&options](double value) {
    return num(options.zero_timings ? 0.0 : value);
  };
  for (const auto& job : result.jobs) {
    out << "{\"job\":" << job.index
        << ",\"workload\":\"" << json_escape(job.workload) << "\""
        << ",\"status\":\"" << to_string(job.status) << "\""
        << ",\"seed\":" << job.seed
        << ",\"rows\":" << job.rows << ",\"cols\":" << job.cols
        << ",\"workers\":" << job.workers
        << ",\"elapsed_seconds\":" << secs(job.elapsed_seconds);
    if (job.status == JobStatus::kSucceeded) {
      out << ",\"optimizer\":\"" << json_escape(job.result.optimizer_name)
          << "\""
          << ",\"mean_quality\":" << num(job.result.mean_quality())
          << ",\"evaluations\":" << job.result.total_evaluations()
          << ",\"cache_hits\":" << job.result.total_cache_hits()
          << ",\"cache_misses\":" << job.result.total_cache_misses()
          << ",\"cache_hit_rate\":" << num(job.result.cache_hit_rate())
          << ",\"cache_evictions\":" << job.result.total_cache_evictions()
          << ",\"cache_insertions_rejected\":"
          << job.result.total_cache_insertions_rejected()
          << ",\"cache_peak_bytes\":" << job.result.max_cache_bytes()
          << ",\"batch_dedup_hits\":" << job.result.total_batch_dedup_hits()
          << ",\"steps\":[";
      for (std::size_t s = 0; s < job.result.steps.size(); ++s) {
        const auto& step = job.result.steps[s];
        out << (s == 0 ? "" : ",") << "{\"step\":" << step.step
            << ",\"kign\":" << num(step.kign)
            << ",\"calibration_fitness\":" << num(step.calibration_fitness)
            << ",\"best_os_fitness\":" << num(step.best_os_fitness)
            << ",\"quality\":" << num(step.prediction_quality)
            << ",\"evaluations\":" << step.os_evaluations
            << ",\"generations\":" << step.os_generations
            << ",\"os_seconds\":" << secs(step.os_seconds)
            << ",\"ss_seconds\":" << secs(step.ss_seconds)
            << ",\"cs_seconds\":" << secs(step.cs_seconds)
            << ",\"ps_seconds\":" << secs(step.ps_seconds)
            << ",\"cache_hits\":" << step.cache_hits
            << ",\"cache_misses\":" << step.cache_misses
            << ",\"cache_evictions\":" << step.cache_evictions
            << ",\"cache_insertions_rejected\":"
            << step.cache_insertions_rejected
            << ",\"cache_entries\":" << step.cache_entries
            << ",\"cache_bytes\":" << step.cache_bytes
            << ",\"batch_dedup_hits\":" << step.batch_dedup_hits
            << ",\"elapsed_seconds\":" << secs(step.elapsed_seconds) << "}";
      }
      out << "]";
    } else {
      out << ",\"error\":\"" << json_escape(job.error) << "\"";
    }
    out << "}\n";
  }
}

void write_campaign_jsonl(const CampaignResult& result,
                          const std::string& path,
                          const ReportOptions& options) {
  auto out = open_or_throw(path);
  write_campaign_jsonl(result, out, options);
}

void write_campaign_csv(const CampaignResult& result, std::ostream& out,
                        const ReportOptions& options) {
  const auto secs = [&options](double value) {
    return num(options.zero_timings ? 0.0 : value);
  };
  out << "job,workload,status,step,kign,calibration_fitness,quality,"
         "os_seconds,ss_seconds,cs_seconds,ps_seconds,elapsed_seconds,error\n";
  for (const auto& job : result.jobs) {
    if (job.status != JobStatus::kSucceeded) {
      // CSV has no place for quotes-in-quotes subtleties; strip commas.
      std::string error = job.error;
      for (auto& c : error)
        if (c == ',' || c == '\n') c = ';';
      out << job.index << ',' << job.workload << ",failed,,,,,,,,,"
          << secs(job.elapsed_seconds) << ',' << error << '\n';
      continue;
    }
    for (const auto& step : job.result.steps) {
      out << job.index << ',' << job.workload << ",succeeded," << step.step
          << ',' << num(step.kign) << ',' << num(step.calibration_fitness)
          << ',' << num(step.prediction_quality) << ',' << secs(step.os_seconds)
          << ',' << secs(step.ss_seconds) << ',' << secs(step.cs_seconds) << ','
          << secs(step.ps_seconds) << ',' << secs(step.elapsed_seconds)
          << ",\n";
    }
  }
}

void write_campaign_csv(const CampaignResult& result, const std::string& path,
                        const ReportOptions& options) {
  auto out = open_or_throw(path);
  write_campaign_csv(result, out, options);
}

std::string campaign_summary_json(const CampaignResult& result,
                                  const ReportOptions& options) {
  const auto secs = [&options](double value) {
    return num(options.zero_timings ? 0.0 : value);
  };
  std::ostringstream out;
  out << "{\"jobs\":" << result.jobs.size()
      << ",\"succeeded\":" << result.succeeded()
      << ",\"failed\":" << result.failed()
      << ",\"job_concurrency\":" << result.job_concurrency
      << ",\"workers_per_job\":" << result.workers_per_job
      << ",\"wall_seconds\":" << secs(result.wall_seconds)
      << ",\"jobs_per_second\":" << secs(result.jobs_per_second())
      << ",\"succeeded_per_second\":" << secs(result.succeeded_per_second())
      << ",\"mean_quality\":" << num(result.mean_quality())
      << ",\"cache_policy\":\"" << cache::to_string(result.cache_policy)
      << "\""
      << ",\"cache_hits\":" << result.cache_hits()
      << ",\"cache_misses\":" << result.cache_misses()
      << ",\"cache_hit_rate\":" << num(result.cache_hit_rate())
      << ",\"cache_evictions\":" << result.cache_evictions()
      << ",\"cache_insertions_rejected\":"
      << result.cache_insertions_rejected()
      << ",\"batch_dedup_hits\":" << result.batch_dedup_hits()
      << ",\"cache_bytes\":" << result.cache_bytes();
  if (result.cache_policy == cache::CachePolicy::kShared) {
    // Cache-global view of the campaign-wide shared cache: hits/misses here
    // include cross-job traffic, and entries/bytes are the end-of-campaign
    // footprint against the configured budget.
    const cache::CacheStats& s = result.shared_cache_stats;
    out << ",\"cache_mem_bytes\":" << result.cache_mem_bytes
        << ",\"shared_cache\":{\"hits\":" << s.hits
        << ",\"misses\":" << s.misses
        << ",\"hit_rate\":" << num(s.hit_rate())
        << ",\"evictions\":" << s.evictions
        << ",\"insertions_rejected\":" << s.insertions_rejected
        << ",\"entries\":" << s.entries << ",\"bytes\":" << s.bytes << "}";
  }
  out << "}";
  return out.str();
}

namespace {

std::string kib(std::size_t bytes) {
  return std::to_string((bytes + 1023) / 1024);
}

}  // namespace

TextTable campaign_summary_table(const CampaignResult& result,
                                 const std::string& title) {
  TextTable table(title + " (" + std::to_string(result.jobs.size()) +
                  " jobs, " + std::to_string(result.job_concurrency) +
                  " concurrent, " + std::to_string(result.workers_per_job) +
                  " workers/job, cache " +
                  cache::to_string(result.cache_policy) + ")");
  table.set_header({"job", "workload", "status", "steps", "quality", "time[s]",
                    "jobs/s", "ok/s", "hit%", "dedup", "evict", "cache[KiB]"});
  for (const auto& job : result.jobs) {
    const bool ok = job.status == JobStatus::kSucceeded;
    table.add_row({std::to_string(job.index), job.workload,
                   to_string(job.status),
                   ok ? std::to_string(job.result.steps.size()) : "-",
                   ok ? TextTable::num(job.result.mean_quality()) : "-",
                   TextTable::num(job.elapsed_seconds, 2), "-", "-",
                   ok ? TextTable::num(100.0 * job.result.cache_hit_rate(), 1)
                      : "-",
                   ok ? std::to_string(job.result.total_batch_dedup_hits())
                      : "-",
                   ok ? std::to_string(job.result.total_cache_evictions())
                      : "-",
                   ok ? kib(job.result.max_cache_bytes()) : "-"});
  }
  // Campaign-wide rollup so catalog runs show the cross-job sharing benefit
  // (under kShared `cache[KiB]` is the shared cache's live footprint).
  // jobs/s counts every disposed job; ok/s only the ones that delivered a
  // prediction — the two diverge when pipelines throw or are cancelled.
  table.add_row({"all", "campaign", std::to_string(result.succeeded()) + " ok",
                 "-", TextTable::num(result.mean_quality()),
                 TextTable::num(result.wall_seconds, 2),
                 TextTable::num(result.jobs_per_second()),
                 TextTable::num(result.succeeded_per_second()),
                 TextTable::num(100.0 * result.cache_hit_rate(), 1),
                 std::to_string(result.batch_dedup_hits()),
                 std::to_string(result.cache_evictions()),
                 kib(result.cache_bytes())});
  return table;
}

}  // namespace essns::service
