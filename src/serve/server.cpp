#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "cache/cache_io.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/signals.hpp"

namespace essns::serve {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw IoError("fcntl(O_NONBLOCK) failed: " +
                  std::string(std::strerror(errno)));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// The fields after a response's deterministic prefix; oracle comparisons
// truncate at " seconds=".
std::string timing_fields(double seconds, unsigned workers,
                          std::size_t cache_hits, std::size_t cache_misses) {
  return " seconds=" + format_g17(seconds) +
         " workers=" + std::to_string(workers) +
         " cache_hits=" + std::to_string(cache_hits) +
         " cache_misses=" + std::to_string(cache_misses);
}

void record_latency(Verb verb, double seconds) {
  obs::record_histogram("serve.request_seconds", seconds);
  obs::record_histogram(verb == Verb::kPredict ? "serve.predict_seconds"
                                               : "serve.repredict_seconds",
                        seconds);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::trace_now_ns() - start_ns) * 1e-9;
}

// What a replay and a resume read of a job's record: no maps.
std::shared_ptr<const service::JobRecord> trimmed(
    const service::JobRecord& record) {
  auto kept = std::make_shared<service::JobRecord>();
  kept->status = record.status;
  kept->workload = record.workload;
  kept->seed = record.seed;
  kept->workers = record.workers;
  kept->result.steps = record.result.steps;
  kept->search_rng = record.search_rng;
  return kept;
}

}  // namespace

Server::Server(ServeConfig config) : config_(std::move(config)) {
  ESSNS_REQUIRE(config_.port >= 0 && config_.port <= 65535,
                "serve: port must be in [0, 65535]");
  ESSNS_REQUIRE(config_.max_line_bytes >= 64,
                "serve: max_line_bytes must be >= 64");
  // Refuse at start a default every plain predict would fail on.
  ess::validate_job_search(config_.default_spec);
  synth::validate_workload_request(config_.default_fire);
}

Server::~Server() {
  for (auto& [id, conn] : conns_) close_fd(conn.fd);
  conns_.clear();
  close_fd(listen_fd_);
  close_fd(wake_read_);
  close_fd(wake_write_);
  // engine_ destroys last-ish: slots join, then trace/metrics files write.
}

void Server::start() {
  ESSNS_REQUIRE(!engine_, "serve: start() called twice");

  service::EngineConfig engine_config = config_.engine;
  engine_config.shared_cache = std::make_shared<cache::SharedScenarioCache>(
      engine_config.cache_mem_bytes);
  if (!config_.cache_load.empty())
    restored_entries_ =
        cache::load_cache(*engine_config.shared_cache, config_.cache_load)
            .restored;
  // The metrics verb scrapes the registry live, so install one even when no
  // metrics file was requested.
  engine_config.collect_metrics = true;
  engine_ = std::make_unique<service::PredictionEngine>(
      std::move(engine_config));

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0)
    throw IoError("serve: pipe() failed: " +
                  std::string(std::strerror(errno)));
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw IoError("serve: socket() failed: " +
                  std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
    throw IoError("serve: bad bind address: " + config_.host);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw IoError("serve: bind(" + config_.host + ":" +
                  std::to_string(config_.port) +
                  ") failed: " + std::string(std::strerror(errno)));
  if (::listen(listen_fd_, 64) != 0)
    throw IoError("serve: listen() failed: " +
                  std::string(std::strerror(errno)));
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    throw IoError("serve: getsockname() failed: " +
                  std::string(std::strerror(errno)));
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (!config_.port_file.empty()) {
    std::ofstream out(config_.port_file, std::ios::trunc);
    if (!out) throw IoError("serve: cannot write " + config_.port_file);
    out << port_ << '\n';
    if (!out.flush()) throw IoError("serve: cannot write " + config_.port_file);
  }
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(outbox_mutex_);
    stop_requested_ = true;
  }
  wake();
}

void Server::wake() {
  const char byte = 'w';
  // Full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

int Server::run() {
  ESSNS_REQUIRE(engine_ != nullptr, "serve: run() before start()");

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd, 0 = not a conn
  char buffer[4096];

  while (true) {
    // Move completed-job responses from the slot threads onto their
    // connections (dropping any whose client already disconnected).
    std::vector<Completion> done;
    bool stop_now = false;
    {
      const std::lock_guard<std::mutex> lock(outbox_mutex_);
      done.swap(outbox_);
      stop_now = stop_requested_;
    }
    for (Completion& completion : done) {
      --inflight_responses_;
      const auto fire = fires_.find(completion.fire_id);
      // A job at an older horizon leaves the fire's newer record in place.
      if (completion.record && fire != fires_.end() &&
          (!fire->second.record ||
           completion.steps >= fire->second.record_steps)) {
        fire->second.record = std::move(completion.record);
        fire->second.record_steps = completion.steps;
      }
      enqueue(completion.conn_id, std::move(completion.line));
    }

    if ((stop_now || service::drain_requested()) && !draining_) {
      draining_ = true;
      // Queued-but-unstarted jobs resolve as cancelled records (their
      // responses flush below); in-flight jobs run to completion.
      engine_->cancel_pending("cancelled: server draining");
    }

    if (draining_ && inflight_responses_ == 0) {
      bool all_flushed = true;
      for (auto& [id, conn] : conns_)
        if (!conn.out.empty()) all_flushed = false;
      if (all_flushed) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    fd_conn.push_back(0);
    if (!draining_) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    // Finite timeout so a drain signal that lands between drain_requested()
    // and poll() is still noticed promptly.
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal — loop re-checks drain state
      throw IoError("serve: poll() failed: " +
                    std::string(std::strerror(errno)));
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& pfd = fds[i];
      if (pfd.revents == 0) continue;

      if (pfd.fd == wake_read_) {
        while (::read(wake_read_, buffer, sizeof(buffer)) > 0) {
        }
        continue;
      }
      if (pfd.fd == listen_fd_) {
        while (true) {
          const int client = ::accept(listen_fd_, nullptr, nullptr);
          if (client < 0) break;
          set_nonblocking(client);
          const int one = 1;
          ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          Connection conn;
          conn.fd = client;
          conns_.emplace(next_conn_id_++, conn);
        }
        continue;
      }

      const std::uint64_t conn_id = fd_conn[i];
      const auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool dead = (pfd.revents & (POLLERR | POLLNVAL)) != 0;

      if (!dead && (pfd.revents & (POLLIN | POLLHUP))) {
        while (true) {
          const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
          if (n > 0) {
            conn.in.append(buffer, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) dead = true;  // peer closed; drop pending output too
          break;                    // EAGAIN or error: stop reading
        }
        std::size_t newline;
        while (!dead &&
               (newline = conn.in.find('\n')) != std::string::npos) {
          std::string line = conn.in.substr(0, newline);
          conn.in.erase(0, newline + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          handle_line(conn_id, line);
          if (conns_.find(conn_id) == conns_.end()) break;  // paranoia
        }
        if (!dead && conn.in.size() > config_.max_line_bytes) {
          enqueue(conn_id, "err line exceeds " +
                               std::to_string(config_.max_line_bytes) +
                               " bytes");
          conn.close_after_flush = true;
          conn.in.clear();
        }
      }

      if (!dead && (pfd.revents & POLLOUT) && !conn.out.empty()) {
        const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
        if (n > 0)
          conn.out.erase(0, static_cast<std::size_t>(n));
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
          dead = true;
        if (!dead && conn.out.empty() && conn.close_after_flush) dead = true;
      }

      if (dead) {
        close_fd(conn.fd);
        conns_.erase(it);
      }
    }
  }

  // Best-effort blocking flush of the final bytes (shutdown acks, drain
  // cancellations) before tearing the sockets down.
  for (auto& [id, conn] : conns_) {
    pollfd pfd{conn.fd, POLLOUT, 0};
    while (!conn.out.empty() && ::poll(&pfd, 1, 1000) > 0) {
      const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
      if (n <= 0) break;
      conn.out.erase(0, static_cast<std::size_t>(n));
    }
    close_fd(conn.fd);
  }
  conns_.clear();
  close_fd(listen_fd_);

  // In-flight work is done (inflight_responses_ == 0), so the cache is
  // quiescent: snapshot it for the next warm start.
  if (!config_.cache_save.empty())
    cache::save_cache(*engine_->shared_cache(), config_.cache_save);
  return 0;
}

void Server::enqueue(std::uint64_t conn_id, std::string line) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client left before the job finished
  it->second.out += line;
  it->second.out += '\n';
}

std::string Server::stats_line() const {
  const cache::CacheStats cache_stats = engine_->shared_cache()->stats();
  std::string line = "ok queue_depth=" + std::to_string(engine_->queue_depth());
  line += " in_flight=" + std::to_string(engine_->in_flight());
  line += " job_slots=" + std::to_string(engine_->job_slots());
  line += " requests=" + std::to_string(requests_);
  line += " tracked_fires=" + std::to_string(fires_.size());
  line += " restored_entries=" + std::to_string(restored_entries_);
  line += " cache_entries=" + std::to_string(cache_stats.entries);
  line += " cache_bytes=" + std::to_string(cache_stats.bytes);
  line += " cache_hits=" + std::to_string(cache_stats.hits);
  line += " cache_misses=" + std::to_string(cache_stats.misses);
  line += " cache_hit_rate=" + format_g17(cache_stats.hit_rate());
  return line;
}

void Server::handle_line(std::uint64_t conn_id, const std::string& line) {
  if (line.empty()) return;  // blank lines are keep-alive noise, not errors
  ++requests_;
  obs::add_counter("serve.requests", 1);

  Request request;
  try {
    request = parse_request(line);
  } catch (const Error& error) {
    obs::add_counter("serve.errors", 1);
    enqueue(conn_id, std::string("err bad request: ") + error.what());
    return;
  }

  switch (request.verb) {
    case Verb::kPing:
      enqueue(conn_id, "ok pong");
      return;
    case Verb::kMetrics:
      enqueue(conn_id, "ok " + compact_json(engine_->metrics_json()));
      return;
    case Verb::kStats:
      enqueue(conn_id, stats_line());
      return;
    case Verb::kShutdown: {
      enqueue(conn_id, "ok draining");
      const std::lock_guard<std::mutex> lock(outbox_mutex_);
      stop_requested_ = true;
      return;
    }
    case Verb::kPredict:
    case Verb::kRepredict:
      break;
  }

  if (draining_) {
    obs::add_counter("serve.errors", 1);
    enqueue(conn_id, "err id=" + request.id + " rejected: server draining");
    return;
  }
  submit_prediction(conn_id, request);
}

void Server::submit_prediction(std::uint64_t conn_id,
                               const Request& request) {
  const bool is_predict = request.verb == Verb::kPredict;

  synth::WorkloadRequest fire;
  service::JobSpec spec;
  TrackedFire* tracked = nullptr;  // the repredicted fire
  if (is_predict) {
    if (fires_.count(request.id)) {
      obs::add_counter("serve.errors", 1);
      enqueue(conn_id, "err id=" + request.id +
                           " already tracked (use repredict)");
      return;
    }
    fire = config_.default_fire;
    spec = config_.default_spec;
    if (request.terrain) fire.terrain = *request.terrain;
    if (request.size) fire.size = *request.size;
    if (request.weather) fire.weather = *request.weather;
    if (request.ignition) fire.ignition = *request.ignition;
    if (request.seed) fire.seed = *request.seed;
    if (request.step_minutes) fire.step_minutes = *request.step_minutes;
    if (request.noise) fire.observation_noise = *request.noise;
    if (request.method) spec.method = *request.method;
    if (request.generations) spec.generations = *request.generations;
    if (request.fitness_threshold)
      spec.fitness_threshold = *request.fitness_threshold;
    if (request.population) spec.population = *request.population;
    if (request.offspring) spec.offspring = *request.offspring;
    if (request.novelty_k) spec.novelty_k = *request.novelty_k;
    if (request.islands) spec.islands = *request.islands;
  } else {
    const auto it = fires_.find(request.id);
    if (it == fires_.end()) {
      obs::add_counter("serve.errors", 1);
      enqueue(conn_id, "err id=" + request.id +
                           " is not tracked (predict it first)");
      return;
    }
    tracked = &it->second;
    fire = tracked->fire;
    spec = tracked->spec;
    // A bare repredict refreshes the latest completed horizon.
    if (tracked->record) fire.steps = tracked->record_steps;
  }
  if (request.steps) fire.steps = *request.steps;
  if (tracked && tracked->record && fire.steps == tracked->record_steps) {
    // The prediction at this horizon is a pure function of the request and
    // already computed: answer from the record, without a job.
    const std::uint64_t start_ns = obs::trace_now_ns();
    std::string line =
        format_job_response(request.id, request.verb, *tracked->record);
    const double seconds = seconds_since(start_ns);
    line += timing_fields(seconds, tracked->record->workers, 0, 0);
    line += " replayed=1";
    obs::add_counter("serve.replays", 1);
    record_latency(request.verb, seconds);
    enqueue(conn_id, std::move(line));
    return;
  }
  // A serve engine exists to keep one cache warm across requests.
  spec.cache_policy = cache::CachePolicy::kShared;

  std::shared_ptr<const synth::Workload> workload;
  try {
    workload = std::make_shared<synth::Workload>(synth::make_workload(fire));
  } catch (const Error& error) {
    obs::add_counter("serve.errors", 1);
    enqueue(conn_id,
            "err id=" + request.id + " bad fire: " + error.what());
    return;
  }

  service::JobRequest job;
  job.workload = workload;
  job.index = 0;  // every serve job is index 0: seed derivable from request
  job.campaign_seed = config_.seed;
  job.priority = request.priority.value_or(0);
  job.spec = spec;
  // An extension by one step runs only the new step, from the record.
  if (tracked && tracked->record && fire.steps == tracked->record_steps + 1)
    job.resume = tracked->record;
  const std::uint64_t start_ns = obs::trace_now_ns();
  const std::string id = request.id;
  const Verb verb = request.verb;
  const int steps = fire.steps;
  job.on_done = [this, conn_id, id, verb, start_ns, steps,
                 workload](const service::JobRecord& record) {
    std::string line = format_job_response(id, verb, record);
    const double seconds = seconds_since(start_ns);
    std::shared_ptr<const service::JobRecord> kept;
    if (record.status == service::JobStatus::kSucceeded) {
      // Cache counts of the steps this job ran, not of a resumed prefix.
      std::size_t hits = 0;
      std::size_t misses = 0;
      for (std::size_t i = record.resumed_steps;
           i < record.result.steps.size(); ++i) {
        hits += record.result.steps[i].cache_hits;
        misses += record.result.steps[i].cache_misses;
      }
      line += timing_fields(seconds, record.workers, hits, misses);
      if (record.resumed_steps > 0) {
        line += " resumed=1";
        obs::add_counter("serve.resumes", 1);
      }
      kept = trimmed(record);
    } else {
      obs::add_counter("serve.errors", 1);
    }
    record_latency(verb, seconds);
    {
      const std::lock_guard<std::mutex> lock(outbox_mutex_);
      outbox_.push_back({conn_id, std::move(line), id, std::move(kept), steps});
    }
    wake();
  };

  service::Submission submission;
  try {
    submission = engine_->submit(std::move(job));
  } catch (const Error& error) {
    obs::add_counter("serve.errors", 1);
    enqueue(conn_id,
            "err id=" + request.id + " bad request: " + error.what());
    return;
  }
  switch (submission.admission) {
    case service::Admission::kAccepted:
      break;
    case service::Admission::kQueueFull:
      obs::add_counter("serve.rejected", 1);
      enqueue(conn_id,
              "err id=" + request.id + " rejected: queue full (capacity " +
                  std::to_string(engine_->config().queue_capacity) + ")");
      return;
    case service::Admission::kShuttingDown:
      obs::add_counter("serve.rejected", 1);
      enqueue(conn_id, "err id=" + request.id + " rejected: shutting down");
      return;
  }

  ++inflight_responses_;
  if (is_predict) {
    TrackedFire registered;
    registered.fire = fire;  // includes the horizon this predict ran at
    registered.spec = spec;
    fires_.emplace(request.id, std::move(registered));
  }
}

}  // namespace essns::serve
