#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "cache/scenario_cache.hpp"
#include "common/error.hpp"
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

/// Value of counter `name`, or the sample count of histogram `name`, in a
/// `metrics` scrape (0 while it is unset).
std::uint64_t scraped_count(LineClient& client, const std::string& name) {
  const std::string metrics = client.request("metrics");
  const std::string key = "\"" + name + "\": ";
  std::size_t at = metrics.find(key);
  if (at == std::string::npos) return 0;
  at += key.size();
  if (metrics[at] == '{') at = metrics.find(':', at) + 1;  // {"count": N
  return std::stoull(metrics.substr(at));
}

/// The oracle's response prefix for a request on the tiny server's default
/// fire at `steps`.
std::string oracle_prefix(const ServeConfig& config, const std::string& id,
                          Verb verb, int steps) {
  synth::WorkloadRequest fire = config.default_fire;
  fire.steps = steps;
  return format_job_response(
      id, verb,
      service::run_prediction_job(
          synth::make_workload(fire), 0, config.seed, 1, oracle_spec(config),
          simd::Mode::kAuto, parallel::NumaMode::kAuto,
          firelib::SweepBackend::kScalar, nullptr));
}

bool replayed(const std::string& response) {
  return response.find(" cache_hits=0 cache_misses=0 replayed=1") !=
         std::string::npos;
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
  EXPECT_EQ(scraped_count(client, kMaterializations), 1u)
      << "a predict generates its truth";
  const std::uint64_t jobs = scraped_count(client, "campaign.jobs");
  const std::uint64_t latencies =
      scraped_count(client, "serve.repredict_seconds");
  EXPECT_EQ(scraped_count(client, "serve.replays"), 0u);

  // The refresh is answered from the predict's record: the oracle's bytes,
  // no job, no truth.
  const std::string refresh = client.request("repredict id=f1");
  EXPECT_EQ(deterministic_prefix(refresh), expected);
  EXPECT_TRUE(replayed(refresh)) << refresh;
  EXPECT_EQ(scraped_count(client, kMaterializations), 1u);
  EXPECT_EQ(scraped_count(client, "campaign.jobs"), jobs);
  EXPECT_EQ(scraped_count(client, "serve.replays"), 1u);
  EXPECT_EQ(scraped_count(client, "serve.repredict_seconds"), latencies + 1);

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, ExtensionReplacesTheFiresRecord) {
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
  // The extension runs a job and its record becomes the fire's...
  const std::string extension = client.request("repredict id=f1 steps=4");
  EXPECT_EQ(deterministic_prefix(extension), expected4);
  EXPECT_FALSE(replayed(extension)) << extension;
  EXPECT_EQ(scraped_count(client, kMaterializations), 2u);
  // ...which answers the next refresh at that horizon...
  const std::string refresh = client.request("repredict id=f1 steps=4");
  EXPECT_EQ(deterministic_prefix(refresh), expected4);
  EXPECT_TRUE(replayed(refresh)) << refresh;
  EXPECT_EQ(scraped_count(client, kMaterializations), 2u);
  // ...while the older horizon runs a job again...
  const std::string back = client.request("repredict id=f1 steps=3");
  EXPECT_EQ(deterministic_prefix(back), expected3);
  EXPECT_FALSE(replayed(back)) << back;
  EXPECT_EQ(scraped_count(client, kMaterializations), 3u);
  // ...which leaves the newer record in place.
  const std::string again = client.request("repredict id=f1 steps=4");
  EXPECT_EQ(deterministic_prefix(again), expected4);
  EXPECT_TRUE(replayed(again)) << again;
  EXPECT_EQ(scraped_count(client, kMaterializations), 3u);

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, BareRepredictReplaysTheLatestCompletedHorizon) {
  Server server(tiny_server_config());
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());

  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);
  const std::string extension = client.request("repredict id=f1 steps=4");
  ASSERT_EQ(extension.rfind("ok id=f1 ", 0), 0u) << extension;
  const std::string bare = client.request("repredict id=f1");
  EXPECT_EQ(deterministic_prefix(bare), deterministic_prefix(extension));
  EXPECT_TRUE(replayed(bare)) << bare;

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
}

TEST(ServeServer, FailedAndRejectedRequestsStoreNoRecord) {
  const ServeConfig oracle_config = tiny_server_config();
  const std::string expected3 =
      oracle_prefix(oracle_config, "f1", Verb::kRepredict, 3);
  const std::string expected5 =
      oracle_prefix(oracle_config, "f1", Verb::kRepredict, 5);
  ServeConfig config = tiny_server_config();
  config.queue_capacity = 1;
  Server server(std::move(config));
  server.start();
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  ASSERT_EQ(client.request("predict id=f1").rfind("ok ", 0), 0u);

  // Hold the single slot busy via the engine's test hook (in_flight() may
  // still count the predict's job while it finishes, so wait for the hook).
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool open = false;
  service::JobRequest blocker;
  blocker.workload = std::make_shared<synth::Workload>(
      synth::make_workload(oracle_config.default_fire));
  blocker.spec = oracle_config.default_spec;
  blocker.debug_before_run = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  };
  auto held = server.engine().submit(std::move(blocker));
  ASSERT_EQ(held.admission, service::Admission::kAccepted);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

  // steps=4 takes the queue's one place and then fails; steps=5 is refused.
  client.send_line("repredict id=f1 steps=4");
  client.send_line("repredict id=f1 steps=5");
  EXPECT_EQ(client.read_line(), "err id=f1 rejected: queue full (capacity 1)");
  EXPECT_EQ(server.engine().cancel_pending("cancelled: test"), 1u);
  EXPECT_EQ(client.read_line(), "err id=f1 job failed: cancelled: test");
  {
    const std::lock_guard<std::mutex> lock(mutex);
    open = true;
  }
  cv.notify_all();
  held.record.get();

  // Neither left a record: a bare refresh still replays the predict's
  // horizon, and steps=5 runs a job.
  const std::string bare = client.request("repredict id=f1");
  EXPECT_EQ(deterministic_prefix(bare), expected3);
  EXPECT_TRUE(replayed(bare)) << bare;
  const std::string five = client.request("repredict id=f1 steps=5");
  EXPECT_EQ(deterministic_prefix(five), expected5);
  EXPECT_FALSE(replayed(five)) << five;

  EXPECT_EQ(client.request("shutdown"), "ok draining");
  EXPECT_EQ(runner.join(), 0);
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
  // Search keys are bounded when the line is parsed: no job, no fire.
  EXPECT_EQ(client.request("predict id=f4 population=1"),
            "err bad request: population expects an integer >= 2, got '1'");
  EXPECT_NE(client.request("stats").find(" tracked_fires=1 "),
            std::string::npos);
  // A structurally valid request whose parameters fail validation deeper
  // down (noise must stay below 1) answers err, not a dropped connection.
  EXPECT_EQ(client.request("predict id=f3 noise=2.0").rfind("err id=f3 ", 0),
            0u);
}

TEST(ServeServer, RejectsADefaultSpecNoJobCanRun) {
  ServeConfig config = tiny_server_config();
  config.default_spec.method = "essim-monitor";  // not an Optimizer
  EXPECT_THROW(Server{config}, InvalidArgument);
  config = tiny_server_config();
  config.default_spec.population = 1;
  EXPECT_THROW(Server{config}, InvalidArgument);
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
