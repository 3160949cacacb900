"""The benchmark workloads. Each `run_*` function measures one pass
and returns a Pass: end-to-end figures, per-layer figures and the
correctness tally. run.py combines passes into the reported metrics.

Why these workloads (see BENCHMARK.json for the one-line versions):
  serve_track  the shared cache does most of the work: tracked fires are
               refreshed (all hits) three times for every extension by one
               observation (warm prefix, one cold step);
  campaign_dem the serve front door, the shared cache, snapshot restore and
               the per-job worker fan-out are idle; DEM sweeps, which bypass
               the AVX2 and batched fast paths, do most of the work.
"""

import hashlib
import json
import os
import subprocess
import time

import derive
from derive import BenchError
from serving import ServerProcess, open_loop, pin_compute

SPEC = "generations=6 population=12 offspring=12 fitness_threshold=2"
SPEC_ARGS = SPEC.split()

# Times each set-up is repeated in one run; the median is reported.
SETUP_REPS = 3

SERVE_TRACK = {
    # (id, terrain, weather, ignition, fire seed, size), the same for every
    # run seed: only the traffic order and timing vary. Hills fires are
    # smaller so that extending a hills fire costs about what extending a
    # plains fire does, which keeps the tail the p90 sits in dense. Many
    # fires with few extensions each keep every extension within three
    # steps of the snapshot, so extensions cost about the same.
    "fires": [(f"t{i}", terrain, ("steady", "wind_shift", "diurnal")[i % 3],
               ("center", "offset")[(i // 2) % 2], 501 + i, size)
              for i, (terrain, size) in enumerate(
                  [("plains", 64), ("hills", 48)] * 16)],
    "start_steps": 3,
    "rate": 8.5,          # requests per second, open loop
    "cache_mem": 512,     # MiB: holds the snapshot and every extension
    "limit": 1.0,         # seconds
}

CAMPAIGN_DEM = {
    "catalog": ("terrains=hills,rugged\nsizes=96,64\n"
                "weather=steady,wind_shift,diurnal\nignitions=center,offset\n"
                "base_seed=7\nsteps=4\n"),
    # Job classes, longest-running first (measured mean job time).
    "classes": ["hills96", "hills64", "rugged64", "rugged96"],
    "jobs_per_replicate": 24,
    # One-worker CPU seconds one catalog replicate costs; sizes the batch
    # to the requested run length.
    "replicate_cpu_s": 4.5,
    # Catalog expansion takes a few hundred ms of one CPU; repeat it enough
    # for a steady median.
    "setup_reps": 7,
    # Untimed warm-up jobs from the longest class, so the timed batch does
    # not start on an idle machine.
    "warmup_jobs": 6,
}


class Pass:
    """Outcome of one measured pass of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.divergences = 0
        self.e2e = {}
        self.layers = {}
        self.total_time = 0.0   # end-to-end time for trace.overhead_ratio
        self.lag_p90 = 0.0      # load generator lateness (serve only)


def fire_line(fire_id, terrain, weather, ignition, seed, size, steps):
    """A predict request line with every fire and search key explicit."""
    return (f"predict id={fire_id} terrain={terrain} size={size} "
            f"weather={weather} ignition={ignition} seed={seed} "
            f"steps={steps} {SPEC}")


def run_oracle(ctx, args, text):
    """perfbench_tool's output for `args` and stdin `text`, computed with
    the cache off, outside any timed window. The oracle is a pure function
    of the tool binary and its input, so the answer is kept under the build
    directory, keyed by both, and reused by later runs of the same build."""
    key = hashlib.sha256()
    with open(ctx.tool, "rb") as f:
        key.update(f.read())
    key.update(repr(args).encode() + b"\0" + text.encode())
    cache_dir = os.path.join(os.path.dirname(ctx.tool), "oracle-cache")
    path = os.path.join(cache_dir, key.hexdigest())
    if not os.path.exists(path):
        out = subprocess.run([ctx.tool] + args, input=text, capture_output=True,
                             text=True, check=True, preexec_fn=pin_compute).stdout
        os.makedirs(cache_dir, exist_ok=True)
        with open(path + ".tmp", "w") as f:
            f.write(out)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return f.read().splitlines()


def oracle(ctx, kinds_and_lines):
    """Deterministic prefixes for (kind, predict line) pairs."""
    unique = sorted(set(kinds_and_lines))
    answers = run_oracle(ctx, ["oracle", str(ctx.threads)],
                         "".join(f"{kind} {line}\n" for kind, line in unique))
    if len(answers) != len(unique):
        raise BenchError("oracle returned the wrong number of lines")
    return dict(zip(unique, answers))


def serve_flags(ctx, cache_mem, extra):
    return ["--jobs", "1", "--workers", str(ctx.threads), "--queue", "256",
            "--cache-mem", str(cache_mem)] + extra


def check(response, expected):
    """(verified, failure kind) for one prediction response."""
    if response is None:
        return False, "timeout"
    if response.startswith("err"):
        return False, "rejected" if "rejected" in response else "error"
    if derive.deterministic_prefix(response) != expected:
        return False, "divergence"
    return True, None


def require(server, line, expected, what):
    """Send an untimed request; any failure or divergence ends the run."""
    verified, kind = check(server.request(line), expected)
    if not verified:
        raise BenchError(f"{what} {kind}: {line}")


def timed_setup(ctx, name, flags, register):
    """Start the server SETUP_REPS times (each time running `register`
    over a control connection) and keep the last one running. Returns
    (server, median set-up seconds)."""
    times = []
    server = None
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        server = ServerProcess(ctx.cli, ctx.run_dir, f"{name}{rep}", flags)
        try:
            register(server)
        except BaseException:
            server.__exit__(None, None, None)
            raise
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPS:
            server.shutdown()
    return server, derive.median(times)


def measure_window(ctx, server, schedule_lines, expected, limit, traced):
    """Run the open-loop schedule against `server` and score it."""
    result = Pass()
    before = server.metrics() if traced else None
    cpu_before = server.cpu_seconds()
    outcomes = open_loop(server.port, schedule_lines)
    cpu = server.cpu_seconds() - cpu_before
    after = server.metrics() if traced else None
    result.e2e["peak_rss_mib"] = server.peak_rss_mib()

    latencies, lags, frontdoor, scored = [], [], [], []
    result.verified_lines = []
    for (scheduled, _), outcome, want in zip(schedule_lines, outcomes, expected):
        result.attempted += 1
        verified, kind = check(outcome["response"], want)
        if outcome["sent"] is not None:
            lags.append(outcome["sent"] - scheduled)
        latency = None
        if verified:
            latency = outcome["received"] - scheduled
            latencies.append(latency)
            result.verified_lines.append(want)
            frontdoor.append(derive.frontdoor_seconds(
                outcome["received"] - outcome["sent"],
                derive.response_seconds(outcome["response"])))
        else:
            result.failed += 1
            if kind == "divergence":
                result.divergences += 1
                ctx.log(f"DIVERGED: {outcome['response']}\n  oracle: {want}")
        scored.append((verified, latency))
    received = [o["received"] for o in outcomes if o["received"] is not None]
    span = max([schedule_lines[-1][0]] + received)
    ok = len(latencies)
    if ok == 0:
        raise BenchError("no request succeeded")
    result.e2e["latency_p50_s"] = derive.percentile(latencies, 0.5)
    result.e2e["latency_p90_s"] = derive.percentile(latencies, 0.9)
    result.e2e["goodput_per_s"] = derive.goodput(scored, limit, span)
    result.e2e["cpu_s_per_op"] = cpu / ok
    result.total_time = sum(latencies)
    result.lag_p90 = derive.percentile(lags, 0.9)
    result.latency_mean = sum(latencies) / ok
    result.frontdoor = sum(frontdoor) / ok
    result.ops = ok
    result.wall = span
    result.scrape = (before, after)
    return result


def serve_pass(ctx, name, cfg, snapshot, prepare, warmup, lines, want, traced,
               synth_lines):
    """Set up a server on `snapshot` (timed, SETUP_REPS times, running
    `prepare` each time), warm it up untimed with the (line, expected)
    pairs in `warmup`, then measure the open-loop `lines`."""
    flags = serve_flags(ctx, cfg["cache_mem"], ["--cache-load", snapshot])
    trace_path = os.path.join(ctx.run_dir, f"{name}.trace")
    run_flags = flags + (["--trace", trace_path] if traced else [])
    server, setup_s = timed_setup(ctx, name, run_flags, prepare)
    with server:
        for line, expected in warmup:
            require(server, line, expected, "warm-up")
        result = measure_window(ctx, server, lines, want, cfg["limit"], traced)
        server.shutdown()
    result.e2e["setup_s"] = setup_s
    result.e2e["quality_mean"] = quality_mean(result.verified_lines)
    if traced:
        result.layers = serve_layers(ctx, result, synth_lines)
        result.layers.update(restore_layers(
            ctx, flags, serve_flags(ctx, cfg["cache_mem"], []), snapshot))
        result.layers.update(parallel_layers(trace_path, ctx.threads, result.ops))
    return result


def pipeline_layers(before, after, ops, workers):
    """The ess, cache and firelib figures both kinds of workload share, from
    two metrics scrapes around the timed window, per verified op. `workers`
    is the simulation workers per job: sims run that many at once, so their
    wall share of a step is their summed time over it."""
    hist = lambda name: derive.histogram_delta(before, after, name)
    count = lambda name: derive.counter_delta(before, after, name)
    _, step_s = hist("pipeline.step_seconds")
    _, sim_s = hist("sim.seconds")
    batches, batch_total = hist("sweep.batch_size")
    _, sweep_s = hist("sweep.seconds")
    hits, misses = count("cache.hits"), count("cache.misses")
    popped = count("sweep.cells_popped")
    layers = {
        "ess.os_generations": count("os.generations") / ops,
        "ess.sims": count("sim.count") / ops,
        "ess.sim_s": sim_s / ops,
        "ess.batch_size_mean": derive.ratio(batch_total, batches),
        "ess.non_sim_s": max(0.0, step_s - sim_s / workers) / ops,
        "cache.hits": hits / ops,
        "cache.misses": misses / ops,
        "cache.hit_ratio": derive.ratio(hits, hits + misses),
        "cache.evictions": count("cache.evictions") / ops,
        "cache.insertions_rejected": count("cache.insertions_rejected") / ops,
        "firelib.sweeps": count("sweep.count") / ops,
        "firelib.cells_popped": popped / ops,
        "firelib.pushes": count("sweep.pushes") / ops,
        "firelib.stale_ratio": derive.ratio(count("sweep.stale_pops"), popped),
        "firelib.sweep_s": sweep_s / ops,
        "firelib.cells_per_s": derive.ratio(popped, sweep_s),
        "firelib.tt_table_rebuilds": count("sweep.tt_table_rebuilds") / ops,
        "firelib.batch_dedup_hits": count("sweep.batch_dedup_hits") / ops,
    }
    for stage in ("os", "ss", "cs", "ps"):
        layers[f"ess.{stage}_s"] = hist(f"pipeline.{stage}_seconds")[1] / ops
    return layers


def serve_layers(ctx, result, synth_lines):
    """Per-layer figures of a traced serve pass from its metrics scrapes."""
    before, after = result.scrape
    ops = result.ops
    _, request_s = derive.histogram_delta(before, after, "serve.request_seconds")
    _, job_s = derive.histogram_delta(before, after, "campaign.job_seconds")
    queue_s = derive.queue_wait_seconds(request_s, job_s, ops)
    layers = pipeline_layers(before, after, ops, ctx.threads)
    layers.update({
        "serve.frontdoor_s": result.frontdoor,
        "serve.errors": derive.counter_delta(before, after, "serve.errors"),
        "serve.rejected": derive.counter_delta(before, after, "serve.rejected"),
        "service.queue_wait_s": queue_s,
        "service.job_s": job_s / ops,
        "service.slot_busy_share": derive.busy_share(job_s, 1, result.wall),
        "synth.catalog_s": 0.0,
        "synth.workload_s": synth_seconds(ctx, synth_lines),
        "client.lag_p90_s": result.lag_p90,
        "unattributed_share": derive.unattributed_share(
            result.latency_mean,
            [result.frontdoor, queue_s]
            + [layers[f"ess.{s}_s"] for s in ("os", "ss", "cs", "ps")]),
    })
    return layers


def parallel_layers(trace_path, workers, ops):
    """The master/worker fan-out, folded from the server's Chrome trace.

    The fan-out has no metrics of its own, so this reads its spans: each
    `sim.batch` span of the job thread that dispatched work, and the
    `simulate` spans the workers ran inside it. The trace also holds the
    set-up and warm-up requests, a small share of the total."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    batches = [(e["ts"], e["dur"]) for e in events if e["name"] == "sim.batch"]
    sims = sorted((e["ts"], e["dur"]) for e in events if e["name"] == "simulate")
    folded = derive.fold_batches(batches, sims, workers)
    return {
        "parallel.tasks": folded["tasks"] / ops,
        "parallel.task_wait_s": folded["idle_per_task_us"] * 1e-6,
        "parallel.busy_share": folded["busy_share"],
    }


def synth_seconds(ctx, lines):
    """Mean seconds synth::make_workload takes on the requests' fires."""
    out = subprocess.run([ctx.tool, "synth"], input="".join(l + "\n" for l in lines),
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    return report["seconds"] / max(1, report["requests"])


def restore_layers(ctx, flags_with_load, flags_cold, snapshot):
    """cache.restore_s: time to listening with the snapshot minus without."""
    def start_time(flags, name):
        with ServerProcess(ctx.cli, ctx.run_dir, name, flags) as server:
            elapsed = server.ready - server.started
            server.shutdown()
        return elapsed
    loaded = derive.median([start_time(flags_with_load, f"rl{i}") for i in range(3)])
    cold = derive.median([start_time(flags_cold, f"rc{i}") for i in range(3)])
    restore = max(0.0, loaded - cold)
    mib = os.path.getsize(snapshot) / 2**20
    return {"cache.restore_s": restore,
            "cache.restore_mib_per_s": derive.ratio(mib, restore)}


def run_serve_track(ctx, seed, seconds, traced):
    cfg = SERVE_TRACK
    fires = {f[0]: f for f in cfg["fires"]}
    line_at = lambda fid, steps: fire_line(*fires[fid], steps)
    # Each fire gets `extends` rounds of three refreshes and one extension.
    per_round = 4 * len(fires)
    extends = max(-(-derive.min_samples(0.9) // per_round),
                  round(cfg["rate"] * seconds / per_round))
    schedule = derive.track_schedule(seed, list(fires), extends,
                                     cfg["start_steps"], cfg["rate"])

    snapshot = os.path.join(ctx.run_dir, "track.snapshot")
    if not os.path.exists(snapshot):
        with ServerProcess(ctx.cli, ctx.run_dir, "track-build",
                           serve_flags(ctx, cfg["cache_mem"],
                                       ["--cache-save", snapshot])) as server:
            for fid in fires:
                server.request(line_at(fid, cfg["start_steps"]))
            server.shutdown()

    register = [("predict", line_at(fid, cfg["start_steps"])) for fid in fires]
    requests = [("repredict", line_at(fid, steps)) for _, fid, steps, _ in schedule]
    # Untimed warm-up: one all-hit refresh per fire.
    expected = oracle(ctx, register + requests + [
        ("repredict", line_at(fid, cfg["start_steps"])) for fid in fires])

    def do_register(server):
        for key in register:
            require(server, key[1], expected[key], "fire registration")

    warmup = [(f"repredict id={fid} steps={cfg['start_steps']}",
               expected[("repredict", line_at(fid, cfg["start_steps"]))])
              for fid in fires]
    lines = [(t, f"repredict id={fid} steps={steps}")
             for t, fid, steps, _ in schedule]
    return serve_pass(ctx, "track", cfg, snapshot, do_register, warmup, lines,
                      [expected[key] for key in requests], traced,
                      [line for _, line in requests])


def quality_mean(lines):
    """Mean Eq. 3 quality over verified response lines."""
    values = []
    for line in lines:
        for token in line.split():
            if token.startswith("mean_quality="):
                values.append(float(token[len("mean_quality="):]))
    if not values:
        raise BenchError("no verified output to take quality from")
    return sum(values) / len(values)


def campaign_batch(ctx, seconds):
    cfg = CAMPAIGN_DEM
    replicates = max(-(-derive.min_samples(0.9) // cfg["jobs_per_replicate"]),
                     round(seconds * ctx.threads / cfg["replicate_cpu_s"]))
    catalog = os.path.join(ctx.run_dir, "campaign.catalog")
    with open(catalog, "w") as f:
        f.write(cfg["catalog"] + f"seeds={replicates}\n")
    return catalog


def run_campaign_dem(ctx, seed, seconds, traced):
    cfg = CAMPAIGN_DEM
    catalog = campaign_batch(ctx, seconds)
    with open(catalog) as f:
        expected = run_oracle(ctx, ["campaign-oracle", str(ctx.threads)]
                              + SPEC_ARGS, f.read())
    classes = {name: [] for name in cfg["classes"]}
    for index, line in enumerate(expected):
        workload = line.split(" workload=", 1)[1].split("-", 1)[0]
        classes[workload].append(index)
    order = derive.campaign_order(seed, [classes[c] for c in cfg["classes"]])
    order_path = os.path.join(ctx.run_dir, "campaign.order")
    with open(order_path, "w") as f:
        f.write(" ".join(map(str, order)) + "\n")

    args = [ctx.tool, "campaign", catalog, order_path, "--slots",
            str(ctx.threads), "--setup-reps", str(cfg["setup_reps"]),
            "--warmup", str(cfg["warmup_jobs"])]
    if traced:
        args += ["--metrics", "--trace", os.path.join(ctx.run_dir, "campaign.trace")]
    report = json.loads(subprocess.run(args + SPEC_ARGS, capture_output=True,
                                       text=True, check=True,
                                       preexec_fn=pin_compute).stdout)

    result = Pass()
    done, qualities = [], []
    for job in report["jobs"]:
        result.attempted += 1
        want = expected[job["index"]]
        if job["line"] != want or not want.startswith("ok "):
            result.failed += 1
            if job["line"].startswith("ok "):
                result.divergences += 1
                ctx.log(f"DIVERGED: {job['line']}\n  oracle: {want}")
            continue
        done.append(job["done"])
        qualities.append(job["quality"])
    if not done:
        raise BenchError("no campaign job succeeded")
    wall = report["wall_seconds"]
    result.e2e = {
        "setup_s": derive.median(report["setup_seconds"]),
        # Batch progress: when half and nine tenths of the closed batch's
        # verified predictions had been delivered (throughput-bound; not a
        # job service-time distribution).
        "latency_p50_s": derive.percentile(done, 0.5),
        "latency_p90_s": derive.percentile(done, 0.9),
        "goodput_per_s": len(done) / wall,
        "quality_mean": sum(qualities) / len(qualities),
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
        "cpu_s_per_op": report["cpu_seconds"] / len(done),
    }
    result.total_time = wall
    if traced:
        result.layers = campaign_layers(report, len(done))
    return result


def campaign_layers(report, ops):
    """Per-layer figures of a traced campaign pass."""
    wall = report["wall_seconds"]
    slots = report["slots"]
    jobs = report["jobs"]
    job_s = sum(j["elapsed"] for j in jobs)
    queue_s = sum(max(0.0, j["done"] - j["submit"] - j["elapsed"]) for j in jobs)
    catalog_s = derive.median(report["catalog_seconds"])
    layers = pipeline_layers(report["metrics_before"], report["metrics_after"],
                             ops, 1)
    layers.update({
        "serve.frontdoor_s": 0.0,
        "serve.errors": 0,
        "serve.rejected": 0,
        "service.queue_wait_s": queue_s / ops,
        "service.job_s": job_s / ops,
        "service.slot_busy_share": derive.busy_share(job_s, slots, wall),
        "cache.restore_s": 0.0,
        "cache.restore_mib_per_s": 0.0,
        # One simulation worker per job: sims run inline on the job's
        # slot, nothing is fanned out.
        "parallel.tasks": 0.0,
        "parallel.task_wait_s": 0.0,
        "parallel.busy_share": 0.0,
        "synth.catalog_s": catalog_s,
        "synth.workload_s": catalog_s / ops,
        "client.lag_p90_s": 0.0,
        "unattributed_share": derive.unattributed_share(
            slots * wall, [layers[f"ess.{s}_s"] * ops
                           for s in ("os", "ss", "cs", "ps")]),
    })
    return layers


WORKLOADS = {
    "serve_track": run_serve_track,
    "campaign_dem": run_campaign_dem,
}
