// CampaignReport: machine-readable and human-readable views of a
// CampaignResult.
//
// JSONL carries the full per-job record (status, seed, workers, per-step
// fitness and per-stage timings) one JSON object per line, so downstream
// tooling can stream-append campaigns; CSV flattens to one row per
// (job, predicted step) for spreadsheet/pandas use; the summary is a
// TextTable plus a single JSON object with campaign-level throughput
// (jobs/sec).
#pragma once

#include <iosfwd>
#include <string>

#include "common/table.hpp"
#include "service/campaign.hpp"

namespace essns::service {

/// Rendering options shared by the JSONL/CSV/summary writers.
struct ReportOptions {
  /// Write every wall-clock-derived field (per-job and per-stage seconds,
  /// campaign wall_seconds, jobs_per_second, succeeded_per_second) as 0,
  /// leaving only the deterministic fields. This is the canonical form the
  /// determinism checks byte-compare: a campaign's reports must be equal at
  /// any job concurrency and worker count for the same seeds, and timings
  /// are the one thing that legitimately differs run to run.
  bool zero_timings = false;
};

/// One JSON object per job (JSON Lines). Doubles use round-trip precision so
/// determinism checks can diff files bit for bit.
void write_campaign_jsonl(const CampaignResult& result, std::ostream& out,
                          const ReportOptions& options = {});
/// Throws IoError when `path` cannot be opened.
void write_campaign_jsonl(const CampaignResult& result,
                          const std::string& path,
                          const ReportOptions& options = {});

/// Flat CSV: header plus one row per (job, predicted step); failed jobs
/// contribute a single row with an empty step column and their error.
void write_campaign_csv(const CampaignResult& result, std::ostream& out,
                        const ReportOptions& options = {});
void write_campaign_csv(const CampaignResult& result, const std::string& path,
                        const ReportOptions& options = {});

/// Campaign-level rollup as one JSON object (jobs, succeeded, failed,
/// wall_seconds, jobs_per_second, succeeded_per_second, mean_quality,
/// concurrency, workers).
std::string campaign_summary_json(const CampaignResult& result,
                                  const ReportOptions& options = {});

/// Per-job summary table (status, steps, mean quality, time) for terminals.
TextTable campaign_summary_table(const CampaignResult& result,
                                 const std::string& title = "campaign");

/// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

}  // namespace essns::service
