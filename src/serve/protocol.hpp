// The serve line protocol: newline-delimited, human-typeable request and
// response lines over a plain TCP socket — the thinnest possible front door
// to a PredictionEngine (telnet/nc are valid clients, and a load balancer
// needs no codec).
//
// Request grammar (one line, LF-terminated; tokens separated by single
// spaces):
//
//   request    = verb *( SP key "=" value )
//   verb       = "ping" | "predict" | "repredict" | "metrics" | "stats"
//              | "shutdown"
//
//   predict    — predict a NEW fire and start tracking it under `id`
//     id=<name>            required; must not already be tracked
//     terrain=plains|hills|rugged        size=<n >= 16>
//     weather=steady|wind_shift|diurnal  ignition=center|offset|edge|corner
//     seed=<u64>           steps=<n >= 2>   step_minutes=<f>   noise=<f>
//     method=<run-spec method>  generations=<n >= 1>  fitness_threshold=<f>
//     population=<n >= 2>  offspring=<n >= 1>  novelty_k=<n >= 0; 0 = all>
//     islands=<n >= 1>     (bounds of ess::set_search_key)
//     priority=<int>       (higher runs sooner)
//     All optional keys default to the server's configuration.
//
//   repredict  — re-predict the tracked fire `id` at a later interval
//     id=<name>            required; must be tracked
//     steps=<n>            horizon (>= 2); omitted = the fire's latest
//                          completed horizon (the predict's before any)
//     priority=<int>
//     Same workload, same seed: the ground-truth prefix is unchanged, so
//     the engine's shared cache serves the earlier steps warm. At a horizon
//     the fire has already completed the answer is replayed from that
//     job's record.
//
//   metrics    — one-line JSON scrape of the engine's MetricsRegistry
//   stats      — queue/cache/tracking counters as key=value tokens
//   shutdown   — drain in-flight jobs, flush responses, exit
//
// Responses are single lines: "ok ..." or "err <message>". Prediction
// responses carry the deterministic result fields first —
//
//   ok id=<id> kind=<predict|repredict> status=succeeded
//      workload=<name> seed=<u64> steps=<n> mean_quality=<%.17g>
//      qualities=<q1,q2,...> kigns=<k1,k2,...>
//
// — every one of which is a pure function of (server seed, request
// parameters), byte-reproducible by an in-process oracle
// (service::run_prediction_job). Timing/cache fields follow AFTER the
// deterministic prefix; divergence checks compare the line truncated at
// " seconds=":
//
//      seconds=<%.17g> workers=<n> cache_hits=<n> cache_misses=<n>
//      [replayed=1]
//
// ` replayed=1` marks a repredict answered from the fire's record without
// running a job (cache_hits and cache_misses are then 0).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace essns::serve {

enum class Verb { kPing, kPredict, kRepredict, kMetrics, kStats, kShutdown };

const char* to_string(Verb verb);

/// One parsed request line. Optional fields are overrides over the server's
/// defaults; absent means "use the default".
struct Request {
  Verb verb = Verb::kPing;
  std::string id;  ///< required for predict/repredict

  // Fire parameters (predict only; repredict keeps the tracked fire's).
  std::optional<synth::TerrainFamily> terrain;
  std::optional<int> size;
  std::optional<synth::WeatherRegime> weather;
  std::optional<synth::IgnitionPattern> ignition;
  std::optional<std::uint64_t> seed;
  std::optional<double> step_minutes;
  std::optional<double> noise;

  // Horizon (predict and repredict).
  std::optional<int> steps;

  // Search spec overrides (predict only).
  std::optional<std::string> method;
  std::optional<int> generations;
  std::optional<double> fitness_threshold;
  std::optional<std::size_t> population;
  std::optional<std::size_t> offspring;
  std::optional<int> novelty_k;
  std::optional<int> islands;

  std::optional<int> priority;
};

/// Parse one request line (no trailing newline). Throws InvalidArgument
/// with a message naming the offending verb/key/value.
Request parse_request(const std::string& line);

/// %.17g — the round-trip-exact rendering the JSONL reports use; response
/// doubles follow the same discipline so byte comparison is meaningful.
std::string format_g17(double value);

/// The deterministic prefix of a prediction response (see the grammar
/// above): everything in it is a pure function of the job's inputs. The
/// server and the bench oracle both call this, so "divergence" is a string
/// inequality. For a failed job, returns the "err id=... job failed: ..."
/// line instead.
std::string format_job_response(const std::string& id, Verb verb,
                                const service::JobRecord& record);

/// Collapse MetricsRegistry::json() (pretty-printed, multi-line) to one
/// line: newlines and their following indentation dropped. Safe because
/// json_escape renders control characters as escapes, so no string literal
/// in the document contains a raw newline.
std::string compact_json(const std::string& json);

}  // namespace essns::serve
