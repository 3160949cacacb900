#include "serve/protocol.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "ess/config.hpp"

namespace essns::serve {
namespace {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

int require_int(const std::string& key, const std::string& value, int lo) {
  const auto v = parse_int(value);
  if (!v || *v < lo)
    throw InvalidArgument("bad value for '" + key + "': " + value +
                          " (integer >= " + std::to_string(lo) + ")");
  return *v;
}

std::uint64_t require_u64(const std::string& key, const std::string& value) {
  const auto v = parse_uint64(value);
  if (!v)
    throw InvalidArgument("bad value for '" + key + "': " + value +
                          " (unsigned 64-bit integer)");
  return *v;
}

double require_double(const std::string& key, const std::string& value) {
  const auto v = parse_double(value);
  if (!v)
    throw InvalidArgument("bad value for '" + key + "': " + value +
                          " (finite number)");
  return *v;
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kPredict: return "predict";
    case Verb::kRepredict: return "repredict";
    case Verb::kMetrics: return "metrics";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) throw InvalidArgument("empty request");

  Request request;
  const std::string& verb = tokens.front();
  if (verb == "ping") request.verb = Verb::kPing;
  else if (verb == "predict") request.verb = Verb::kPredict;
  else if (verb == "repredict") request.verb = Verb::kRepredict;
  else if (verb == "metrics") request.verb = Verb::kMetrics;
  else if (verb == "stats") request.verb = Verb::kStats;
  else if (verb == "shutdown") request.verb = Verb::kShutdown;
  else
    throw InvalidArgument(
        "unknown verb '" + verb +
        "' (expected ping|predict|repredict|metrics|stats|shutdown)");

  const bool is_predict = request.verb == Verb::kPredict;
  const bool is_repredict = request.verb == Verb::kRepredict;
  ess::SearchSpec search;  // bounds-checks the search overrides

  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw InvalidArgument("request token is not key=value: " + token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty())
      throw InvalidArgument("empty value for '" + key + "'");

    if (key == "id" && (is_predict || is_repredict)) {
      request.id = value;
    } else if (key == "priority" && (is_predict || is_repredict)) {
      const auto v = parse_int(value);
      if (!v)
        throw InvalidArgument("bad value for 'priority': " + value +
                              " (integer)");
      request.priority = *v;
    } else if (key == "steps" && (is_predict || is_repredict)) {
      request.steps = require_int(key, value, 2);
    } else if (key == "terrain" && is_predict) {
      request.terrain = synth::parse_terrain_family(value);
      if (!request.terrain)
        throw InvalidArgument("bad value for 'terrain': " + value +
                              " (plains|hills|rugged)");
    } else if (key == "weather" && is_predict) {
      request.weather = synth::parse_weather_regime(value);
      if (!request.weather)
        throw InvalidArgument("bad value for 'weather': " + value +
                              " (steady|wind_shift|diurnal)");
    } else if (key == "ignition" && is_predict) {
      request.ignition = synth::parse_ignition_pattern(value);
      if (!request.ignition)
        throw InvalidArgument("bad value for 'ignition': " + value +
                              " (center|offset|edge|corner)");
    } else if (key == "size" && is_predict) {
      request.size = require_int(key, value, 16);
    } else if (key == "seed" && is_predict) {
      request.seed = require_u64(key, value);
    } else if (key == "step_minutes" && is_predict) {
      request.step_minutes = require_double(key, value);
    } else if (key == "noise" && is_predict) {
      request.noise = require_double(key, value);
    } else if (is_predict && ess::set_search_key(search, key, value)) {
      if (key == "method") request.method = search.method;
      else if (key == "generations") request.generations = search.generations;
      else if (key == "fitness_threshold")
        request.fitness_threshold = search.fitness_threshold;
      else if (key == "population") request.population = search.population;
      else if (key == "offspring") request.offspring = search.offspring;
      else if (key == "novelty_k") request.novelty_k = search.novelty_k;
      else request.islands = search.islands;
    } else {
      throw InvalidArgument("unknown key '" + key + "' for " +
                            to_string(request.verb));
    }
  }

  if ((is_predict || is_repredict) && request.id.empty())
    throw InvalidArgument(std::string(to_string(request.verb)) +
                          " needs id=<name>");
  return request;
}

std::string format_g17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format_job_response(const std::string& id, Verb verb,
                                const service::JobRecord& record) {
  if (record.status != service::JobStatus::kSucceeded)
    return "err id=" + id + " job failed: " + record.error;

  std::string qualities;
  std::string kigns;
  for (const auto& step : record.result.steps) {
    if (!qualities.empty()) qualities += ',';
    if (!kigns.empty()) kigns += ',';
    qualities += format_g17(step.prediction_quality);
    kigns += format_g17(step.kign);
  }
  std::string line = "ok id=" + id + " kind=" + to_string(verb) +
                     " status=succeeded workload=" + record.workload +
                     " seed=" + std::to_string(record.seed) +
                     " steps=" + std::to_string(record.result.steps.size()) +
                     " mean_quality=" + format_g17(record.result.mean_quality()) +
                     " qualities=" + qualities + " kigns=" + kigns;
  return line;
}

std::string compact_json(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  std::size_t i = 0;
  while (i < json.size()) {
    const char c = json[i];
    if (c == '\n' || c == '\r') {
      ++i;
      while (i < json.size() && json[i] == ' ') ++i;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

}  // namespace essns::serve
