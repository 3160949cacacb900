// serve::Server: the long-lived prediction service over one
// PredictionEngine — the "millions of users" seam from the ROADMAP.
//
// One poll()-driven I/O thread owns the listening socket, every client
// connection, and the tracked-fire table; prediction work happens in the
// engine's job slots. A completed job's callback (running in a slot thread)
// formats the response line, pushes it onto a mutex-protected outbox and
// pokes a self-pipe, so the I/O thread wakes, matches the response to its
// (possibly long-gone) connection, and flushes — the I/O thread never
// blocks on a prediction and a slow pipeline never stalls pings or metrics
// scrapes.
//
// Tracked fires: `predict id=F ...` registers F's WorkloadRequest;
// `repredict id=F [steps=N]` rebuilds the workload at the (possibly
// extended) horizon with the SAME seed. Ground truth is generated step by
// step from one rng stream, so a longer horizon shares the earlier steps
// bit-for-bit. Each tracked fire keeps the record of its last succeeded
// job, trimmed to what a response and a resume read (seed, workload name,
// workers, per-step reports, the search stream after the last step), and
// the horizon it ran at. Because a prediction is a pure function of the
// request, a repredict at that horizon is answered from the record on the
// I/O thread (` replayed=1`): no workload, no job, no cache lookup. An
// extension by one step — re-prediction at the next instant, the paper's
// steady state — runs a job that resumes from the record
// (service::JobRequest::resume): it generates the truth but runs only the
// new step, cold, and answers ` resumed=1` with the cache counts of that
// step alone. A job at any other horizon runs every step, its earlier ones
// warm from the engine's shared cache (bench_serve measures the cold/warm
// ratio). On completion a job's record replaces the fire's unless the fire
// already holds one at a later horizon.
//
// Determinism: every serve job runs at index 0 with the server's campaign
// seed, so its record is a pure function of (server seed, request
// parameters) — an oracle needs no server state to reproduce a response.
//
// Shutdown: the `shutdown` verb or a SIGINT/SIGTERM drain
// (service::drain_requested) stops admissions, lets in-flight jobs finish
// (the signal path cancels still-queued ones), flushes every pending
// response, saves the cache snapshot (cache_save) and returns from run().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace essns::serve {

struct ServeConfig {
  /// Bind address. Loopback by default: this is a backend service; fronting
  /// it to the world is a proxy's job.
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the chosen port via port()
  /// When set, the chosen port is written here (single line) once
  /// listening — how scripts drive an ephemeral-port server.
  std::string port_file;

  /// The engine's run knobs. start() overwrites two fields: shared_cache
  /// becomes a fresh cache of cache_mem_bytes (restored from cache_load
  /// when set), and collect_metrics is forced on so the `metrics` verb can
  /// scrape the registry live.
  service::EngineConfig engine{.queue_capacity = 16};

  /// Cache snapshot to restore before serving ("" = start cold).
  std::string cache_load;
  /// Snapshot path written on clean shutdown ("" = don't persist).
  std::string cache_save;

  /// Campaign seed mixed into every request's job seed.
  std::uint64_t seed = 2022;
  /// Search-spec defaults for requests that don't override them. The
  /// cache_policy is forced to kShared — a serve engine exists to keep its
  /// cache warm.
  service::JobSpec default_spec;
  /// Fire-parameter defaults (terrain/size/weather/ignition/steps/...).
  synth::WorkloadRequest default_fire;

  std::size_t max_line_bytes = 1 << 16;
};

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen, restore the cache snapshot, write the port file.
  /// Throws IoError on bind/listen failure. port() is valid afterwards.
  void start();
  int port() const { return port_; }

  /// Serve until `shutdown`, a drain signal, or stop(). Returns 0 on a
  /// clean exit. Call start() first.
  int run();

  /// Ask a running run() loop to drain and return (thread-safe; tests).
  void stop();

  service::PredictionEngine& engine() { return *engine_; }
  /// Entries restored from cache_load at start() (0 when cold).
  std::size_t restored_entries() const { return restored_entries_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;
    std::string out;
    bool close_after_flush = false;
  };

  void handle_line(std::uint64_t conn_id, const std::string& line);
  void submit_prediction(std::uint64_t conn_id, const Request& request);
  std::string stats_line() const;
  void enqueue(std::uint64_t conn_id, std::string line);
  void wake();

  ServeConfig config_;
  std::unique_ptr<service::PredictionEngine> engine_;

  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  int port_ = 0;
  std::size_t restored_entries_ = 0;

  // I/O-thread-only state.
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> conns_;
  struct TrackedFire {
    synth::WorkloadRequest fire;
    service::JobSpec spec;
    /// The last succeeded job at the fire's latest completed horizon,
    /// trimmed (no maps); null until one completes. Shared with a job that
    /// resumes from it.
    std::shared_ptr<const service::JobRecord> record;
    int record_steps = 0;  ///< the horizon `record` ran at
  };
  std::map<std::string, TrackedFire> fires_;
  bool draining_ = false;
  std::size_t inflight_responses_ = 0;
  std::uint64_t requests_ = 0;

  // Crossing from engine slots to the I/O thread: a response line, and
  // the trimmed record of a succeeded job with the horizon it ran at.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string line;
    std::string fire_id;
    std::shared_ptr<const service::JobRecord> record;
    int steps = 0;
  };
  std::mutex outbox_mutex_;
  std::vector<Completion> outbox_;
  bool stop_requested_ = false;  ///< under outbox_mutex_
};

}  // namespace essns::serve
