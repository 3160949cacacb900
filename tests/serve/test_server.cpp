#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "cache/scenario_cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "service/signals.hpp"

namespace essns::serve {
namespace {

/// Small-but-real server fixture: 16x16 fires, 3 truth steps, tiny search
/// budget, one job slot.
ServeConfig tiny_server_config() {
  ServeConfig config;
  config.port = 0;  // ephemeral
  config.job_slots = 1;
  config.total_workers = 1;
  config.queue_capacity = 8;
  config.default_fire.size = 16;
  config.default_fire.steps = 3;
  config.default_spec.generations = 3;
  config.default_spec.population = 8;
  config.default_spec.offspring = 8;
  return config;
}

/// The spec a tiny server stamps on its jobs, as the ORACLE runs it: same
/// search knobs, cache off — results are bit-identical under every cache
/// policy, so the oracle needs no cache at all.
service::JobSpec oracle_spec(const ServeConfig& config) {
  service::JobSpec spec = config.default_spec;
  spec.cache_policy = cache::CachePolicy::kOff;
  return spec;
}

/// Deterministic prefix of a prediction response (timing fields follow).
std::string deterministic_prefix(const std::string& line) {
  return line.substr(0, line.find(" seconds="));
}

/// run() on a background thread; joins on destruction.
class ServerRunner {
 public:
  explicit ServerRunner(Server& server)
      : server_(server), thread_([this] { rc_ = server_.run(); }) {}
  ~ServerRunner() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }
  int join() {
    thread_.join();
    return rc_;
  }

 private:
  Server& server_;
  int rc_ = -1;
  std::thread thread_;
};

TEST(ServeServer, PredictMatchesInProcessOracleAndTracksTheFire) {
  const ServeConfig config = tiny_server_config();
  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  EXPECT_EQ(client.request("ping"), "ok pong");

  const std::string response = client.request("predict id=f1");
  ASSERT_EQ(response.rfind("ok id=f1 ", 0), 0u) << response;

  // The oracle recomputes the response from the request parameters alone:
  // pure function of (server seed, defaults, overrides), no server state.
  const synth::Workload workload = synth::make_workload(config.default_fire);
  const service::JobRecord oracle = service::run_prediction_job(
      workload, 0, config.seed, 1, oracle_spec(config), simd::Mode::kAuto,
      parallel::NumaMode::kAuto, firelib::SweepBackend::kScalar, nullptr);
  EXPECT_EQ(deterministic_prefix(response),
            format_job_response("f1", Verb::kPredict, oracle));

  // Re-prediction at a longer horizon: same fire, same seed, new steps.
  const std::string repredict = client.request("repredict id=f1 steps=4");
  ASSERT_EQ(repredict.rfind("ok id=f1 ", 0), 0u) << repredict;
  synth::WorkloadRequest extended = config.default_fire;
  extended.steps = 4;
  const service::JobRecord extended_oracle = service::run_prediction_job(
      synth::make_workload(extended), 0, config.seed, 1, oracle_spec(config),
      simd::Mode::kAuto, parallel::NumaMode::kAuto,
      firelib::SweepBackend::kScalar, nullptr);
  EXPECT_EQ(deterministic_prefix(repredict),
            format_job_response("f1", Verb::kRepredict, extended_oracle));

  // The shared-prefix ground truth makes the re-prediction run warm.
  const std::string stats = client.request("stats");
  EXPECT_NE(stats.find("tracked_fires=1"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("cache_hits=0 "), std::string::npos)
      << "re-prediction must hit the warm cache: " << stats;

  const std::string metrics = client.request("metrics");
  ASSERT_EQ(metrics.rfind("ok {", 0), 0u) << metrics;
  EXPECT_EQ(metrics.find('\n'), std::string::npos)
      << "metrics scrape must be a single line";
  EXPECT_NE(metrics.find("serve.requests"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("serve.predict_seconds"), std::string::npos)
      << metrics;

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

/// Value of counter `name` in a `metrics` scrape (0 while it is unset).
std::uint64_t scraped_counter(LineClient& client, const std::string& name) {
  const std::string metrics = client.request("metrics");
  const std::string key = "\"" + name + "\":";
  const std::size_t at = metrics.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(metrics.substr(at + key.size()));
}

/// The oracle's response prefix for a request on the tiny server's default
/// fire at `steps`, seeded `fire_seed` when given.
std::string oracle_prefix(const ServeConfig& config, const std::string& id,
                          Verb verb, int steps,
                          std::optional<std::uint64_t> fire_seed = {}) {
  synth::WorkloadRequest fire = config.default_fire;
  fire.steps = steps;
  if (fire_seed) fire.seed = *fire_seed;
  return format_job_response(
      id, verb,
      service::run_prediction_job(
          synth::make_workload(fire), 0, config.seed, 1, oracle_spec(config),
          simd::Mode::kAuto, parallel::NumaMode::kAuto,
          firelib::SweepBackend::kScalar, nullptr));
}

constexpr const char* kMaterializations = "ess.truth_materializations";

TEST(ServeServer, RefreshAtTheTrackedHorizonGeneratesNoFireLines) {
  // Oracles first: the server's metrics registry is process-wide, and an
  // oracle generates a truth too.
  const ServeConfig config = tiny_server_config();
  const std::string expected =
      oracle_prefix(config, "f1", Verb::kRepredict, 3);
  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);
  EXPECT_EQ(scraped_counter(client, kMaterializations), 1u)
      << "a predict generates its truth";

  const std::string refresh = client.request("repredict id=f1");
  EXPECT_EQ(deterministic_prefix(refresh), expected);
  EXPECT_NE(refresh.find(" cache_misses=0"), std::string::npos) << refresh;
  EXPECT_EQ(scraped_counter(client, kMaterializations), 1u)
      << "an all-hit refresh runs on the fire's digest";

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, RefreshThatMissesGeneratesItsFireLinesLazily) {
  // A cache too small for a single entry: every refresh simulates, so it
  // has to generate the lines its digest stands for — and still answers
  // exactly what the oracle does.
  ServeConfig config = tiny_server_config();
  config.cache_mem_bytes = 1;
  const std::string expected =
      oracle_prefix(config, "f1", Verb::kRepredict, 3);
  Server server(config);
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);
  const std::string refresh = client.request("repredict id=f1");
  EXPECT_EQ(deterministic_prefix(refresh), expected);
  EXPECT_EQ(refresh.find(" cache_misses=0"), std::string::npos) << refresh;
  EXPECT_EQ(scraped_counter(client, kMaterializations), 2u);

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, ExtensionReplacesTheFiresDigest) {
  const ServeConfig config = tiny_server_config();
  const std::string expected3 =
      oracle_prefix(config, "f1", Verb::kRepredict, 3);
  const std::string expected4 =
      oracle_prefix(config, "f1", Verb::kRepredict, 4);
  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);
  // The extension generates the longer truth and keeps its digest...
  const std::string extension = client.request("repredict id=f1 steps=4");
  EXPECT_EQ(deterministic_prefix(extension), expected4);
  EXPECT_EQ(scraped_counter(client, kMaterializations), 2u);
  // ...which the next refresh at that horizon runs on...
  const std::string refresh = client.request("repredict id=f1 steps=4");
  EXPECT_EQ(deterministic_prefix(refresh), deterministic_prefix(extension));
  EXPECT_EQ(scraped_counter(client, kMaterializations), 2u);
  // ...and the old horizon's digest is gone.
  const std::string back = client.request("repredict id=f1 steps=3");
  EXPECT_EQ(deterministic_prefix(back), expected3);
  EXPECT_EQ(scraped_counter(client, kMaterializations), 3u);

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, JobsUseOnlyADigestOfTheirOwnIdentity) {
  const ServeConfig config = tiny_server_config();
  service::JobSpec spec = config.default_spec;
  spec.cache_policy = cache::CachePolicy::kShared;
  const auto cache = std::make_shared<cache::SharedScenarioCache>(16u << 20);
  const auto run = [&](std::uint64_t fire_seed,
                       std::shared_ptr<const ess::ObservationDigest> digest) {
    synth::WorkloadRequest fire = config.default_fire;
    fire.seed = fire_seed;
    return service::run_prediction_job(
        synth::make_workload(fire), 0, config.seed, 1, spec, simd::Mode::kAuto,
        parallel::NumaMode::kAuto, firelib::SweepBackend::kScalar, cache,
        std::move(digest));
  };
  const auto expected = [&](std::uint64_t fire_seed) {
    return oracle_prefix(config, "f", Verb::kRepredict,
                         config.default_fire.steps, fire_seed);
  };

  const service::JobRecord first = run(5, nullptr);
  ASSERT_NE(first.digest, nullptr);
  ASSERT_TRUE(first.digest->identity.has_value());

  // Its own fire trusts it.
  const service::JobRecord again = run(5, first.digest);
  EXPECT_EQ(again.digest, first.digest);
  EXPECT_EQ(format_job_response("f", Verb::kRepredict, again), expected(5));

  // Another fire ignores it and builds its own.
  const service::JobRecord other = run(6, first.digest);
  EXPECT_NE(other.digest, first.digest);
  EXPECT_EQ(format_job_response("f", Verb::kRepredict, other), expected(6));

  // So does the same fire when any part of the identity differs.
  auto forged = std::make_shared<ess::ObservationDigest>(*first.digest);
  forged->identity->truth_seed += 1;
  const service::JobRecord refused = run(5, forged);
  EXPECT_NE(refused.digest, forged);
  EXPECT_EQ(format_job_response("f", Verb::kRepredict, refused), expected(5));
}

TEST(ServeServer, TrackingAndParseErrorsAnswerErrLines) {
  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  EXPECT_EQ(client.request("repredict id=ghost"),
            "err id=ghost is not tracked (predict it first)");
  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);
  EXPECT_EQ(client.request("predict id=f1"),
            "err id=f1 already tracked (use repredict)");
  EXPECT_EQ(client.request("launch id=f1").rfind("err bad request: ", 0), 0u);
  EXPECT_EQ(client.request("predict id=f2 size=8")
                .rfind("err bad request: ", 0),
            0u);
  // A structurally valid request whose parameters fail validation deeper
  // down (noise must stay below 1) answers err, not a dropped connection.
  EXPECT_EQ(client.request("predict id=f3 noise=2.0").rfind("err id=f3 ", 0),
            0u);
}

TEST(ServeServer, FullQueueRejectsInsteadOfBlocking) {
  ServeConfig config = tiny_server_config();
  config.queue_capacity = 1;
  Server server(std::move(config));
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  // Deterministically hold the single slot busy via the engine's test hook.
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  service::JobRequest blocker;
  blocker.workload = std::make_shared<synth::Workload>(
      synth::make_workload(tiny_server_config().default_fire));
  blocker.spec = tiny_server_config().default_spec;
  blocker.debug_before_run = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  };
  auto held = server.engine().submit(std::move(blocker));
  ASSERT_EQ(held.admission, service::Admission::kAccepted);
  while (server.engine().in_flight() == 0) std::this_thread::yield();

  // First request fills the queue's single pending slot; the second is
  // answered with a reject line instead of blocking the connection.
  client.send_line("predict id=q1 seed=101");
  client.send_line("predict id=q2 seed=102");
  const std::string rejected = client.read_line();
  EXPECT_EQ(rejected,
            "err id=q2 rejected: queue full (capacity 1)");

  {
    const std::lock_guard<std::mutex> lock(mutex);
    open = true;
  }
  cv.notify_all();
  EXPECT_EQ(client.read_line().rfind("ok id=q1 ", 0), 0u);
  held.record.get();
}

TEST(ServeServer, CacheSurvivesRestartAndServesWarm) {
  const std::string snapshot = "serve_test_cache.bin";
  std::remove(snapshot.c_str());

  std::string cold_response;
  {
    ServeConfig config = tiny_server_config();
    config.cache_save = snapshot;
    Server server(std::move(config));
    server.start();
    ServerRunner runner(server);
    LineClient client("127.0.0.1", server.port());
    cold_response = client.request("predict id=f1");
    ASSERT_EQ(cold_response.rfind("ok ", 0), 0u) << cold_response;
    EXPECT_EQ(client.request("shutdown"), "ok draining");
    EXPECT_EQ(runner.join(), 0);
  }

  {
    ServeConfig config = tiny_server_config();
    config.cache_load = snapshot;
    Server server(std::move(config));
    server.start();
    EXPECT_GT(server.restored_entries(), 0u);
    ServerRunner runner(server);
    LineClient client("127.0.0.1", server.port());

    const std::string warm_response = client.request("predict id=f1");
    EXPECT_EQ(deterministic_prefix(warm_response),
              deterministic_prefix(cold_response))
        << "a restored cache must not change a single result byte";
    EXPECT_NE(warm_response.find("cache_misses=0"), std::string::npos)
        << "the warm restart must serve the identical fire from the "
           "snapshot: "
        << warm_response;
    EXPECT_EQ(client.request("shutdown"), "ok draining");
    EXPECT_EQ(runner.join(), 0);
  }
  std::remove(snapshot.c_str());
}

TEST(ServeServer, SignalDrainStopsTheServerCleanly) {
  service::ScopedSignalDrain handler;
  service::reset_drain();

  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);

  std::raise(SIGINT);
  EXPECT_EQ(runner.join(), 0);
  EXPECT_TRUE(service::drain_requested());
  service::reset_drain();
}

TEST(ServeServer, DrainRequestedBeforeRunExitsImmediately) {
  service::ScopedSignalDrain handler;
  service::reset_drain();

  Server server(tiny_server_config());
  server.start();

  // Request the drain BEFORE run() starts: the loop enters draining mode on
  // its first pass and must both answer queued clients and exit.
  service::request_drain();
  ServerRunner runner(server);
  EXPECT_EQ(runner.join(), 0);
  service::reset_drain();
}

}  // namespace
}  // namespace essns::serve
