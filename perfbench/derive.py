"""Pure derivations behind the benchmark's metrics: request schedules,
percentiles with the ten-beyond rule, goodput, the layer subtractions and
metrics-scrape deltas. No I/O here, so tests/test_derive.py covers it all.
"""

import bisect
import hashlib
import math
import random

# A percentile is reported only when at least this many samples lie beyond
# it, so one slow request cannot move it by itself.
MIN_BEYOND = 10


class BenchError(Exception):
    """A run that cannot produce trustworthy numbers."""


def rng_for(seed, stream):
    """Independent, reproducible random stream `stream` of run seed `seed`."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def min_samples(q):
    """Fewest samples for which percentile q has MIN_BEYOND beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values, q):
    """Nearest-rank percentile q in (0, 1) of `values`.

    Raises BenchError unless at least MIN_BEYOND samples lie strictly after
    the chosen rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        raise BenchError(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it "
            f"(need {MIN_BEYOND})")
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def exponential_quantiles(count, rate):
    """The `count` evenly spaced quantiles of an exponential gap."""
    return [-math.log(1.0 - (i + 0.5) / count) / rate for i in range(count)]


def arrival_times(rng, kinds, rate):
    """Open-loop Poisson arrivals at `rate` per second for requests of the
    given kinds, in order, stratified so that the seed moves the work done
    as little as possible: the gaps that follow the requests of one kind are
    the evenly spaced quantiles of the exponential gap, shuffled by the
    seed. Every run then has the same gaps after each kind of request (so
    the same number of requests arriving hard on an expensive one) and the
    same schedule length; the seed decides which request meets which gap."""
    members = {}
    for index, kind in enumerate(kinds):
        members.setdefault(kind, []).append(index)
    gaps = [0.0] * len(kinds)
    for kind in sorted(members, key=str):
        quantiles = exponential_quantiles(len(members[kind]), rate)
        rng.shuffle(quantiles)
        for index, gap in zip(members[kind], quantiles):
            gaps[index] = gap
    # The first request waits one gap too, so a schedule starts like it goes
    # on; request i + 1 then follows request i by the gap drawn for i.
    times, now = [], exponential_quantiles(1, rate)[0]
    for gap in gaps:
        times.append(now)
        now += gap
    return times


def track_schedule(seed, fires, extends, start_steps, rate):
    """The serve_track request stream.

    Every fire gets `extends` blocks of three refreshes at its current
    horizon followed by one extend-by-one-step, so the multiset of requests
    is the same for every seed; the seed only merges the fires' streams in
    a random order and draws the arrival times. Returns a list of
    (time, fire, steps, kind) with kind 'refresh' or 'extend'."""
    rng = rng_for(seed, "track")
    streams = {}
    for fire in fires:
        steps = start_steps
        ops = []
        for _ in range(extends):
            ops += [(steps, "refresh")] * 3
            steps += 1
            ops.append((steps, "extend"))
        streams[fire] = ops
    slots = [fire for fire in fires for _ in streams[fire]]
    rng.shuffle(slots)
    cursor = {fire: 0 for fire in fires}
    ops = []
    for fire in slots:
        ops.append((fire,) + streams[fire][cursor[fire]])
        cursor[fire] += 1
    times = arrival_times(rng, [kind for _, _, kind in ops], rate)
    return [(time,) + op for time, op in zip(times, ops)]


def campaign_order(seed, classes):
    """Submission order of a closed campaign batch. `classes` lists job
    indices per class, longest-running class first; the seed shuffles jobs
    within each class, so the batch ends on short jobs and no single long
    job sets the makespan."""
    rng = rng_for(seed, "campaign")
    order = []
    for members in classes:
        members = list(members)
        rng.shuffle(members)
        order += members
    return order


def deterministic_prefix(line):
    """A prediction response up to its timing fields (serve/protocol.hpp)."""
    cut = line.find(" seconds=")
    return line if cut < 0 else line[:cut]


def response_seconds(line):
    """The server-side `seconds=` field of a response, or None."""
    for token in line.split():
        if token.startswith("seconds="):
            return float(token[len("seconds="):])
    return None


def goodput(outcomes, limit, span):
    """Verified responses within the latency limit, per second of `span`.

    `outcomes` are (verified, latency) pairs; a failed, refused or
    timed-out request is (False, ...) and so counts as missing the limit."""
    if span <= 0:
        raise BenchError("goodput over an empty span")
    met = sum(1 for verified, latency in outcomes
              if verified and latency is not None and latency <= limit)
    return met / span


def frontdoor_seconds(client_latency, server_seconds):
    """Time outside the engine's job path: the client's latency (from the
    actual send) minus the server-reported `seconds=`. It covers socket,
    parse, terrain synthesis on the I/O thread, formatting and the outbox."""
    return max(0.0, client_latency - server_seconds)


def queue_wait_seconds(request_seconds_sum, job_seconds_sum, ops):
    """Per-op admission wait: server request time minus job run time."""
    if ops <= 0:
        return 0.0
    return max(0.0, request_seconds_sum - job_seconds_sum) / ops


def busy_share(busy_seconds, lanes, wall):
    """Share of `lanes` x `wall` spent busy."""
    if lanes <= 0 or wall <= 0:
        return 0.0
    return busy_seconds / (lanes * wall)


def unattributed_share(total, parts):
    """Part of an end-to-end time the named layer parts do not cover."""
    if total <= 0:
        return 0.0
    return (total - sum(parts)) / total


def fold_batches(batches, sims, workers):
    """Fold simulation batches with the simulations run inside them.

    `batches` are (start, duration) spans of the dispatching thread, `sims`
    (start, duration) spans of the workers, sorted by start. A batch that
    dispatched nothing (every scenario a cache hit) is skipped. Returns the
    tasks dispatched, the idle worker-lane time per task (lanes x batch time
    minus simulation time, over tasks: dispatch latency plus imbalance) and
    the busy share of the lanes while batches were in flight."""
    starts = [start for start, _ in sims]
    tasks, busy, lanes = 0, 0.0, 0.0
    for start, duration in batches:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, start + duration)
        if hi == lo:
            continue
        tasks += hi - lo
        busy += sum(d for _, d in sims[lo:hi])
        lanes += workers * duration
    return {
        "tasks": tasks,
        "idle_per_task_us": ratio(max(0.0, lanes - busy), tasks),
        "busy_share": ratio(busy, lanes),
    }


def counter_delta(before, after, name):
    """Growth of a counter between two MetricsRegistry scrapes."""
    def value(scrape):
        return (scrape or {}).get("counters", {}).get(name, 0)
    return value(after) - value(before)


def histogram_delta(before, after, name):
    """(count, sum) growth of a histogram between two scrapes."""
    def pair(scrape):
        hist = (scrape or {}).get("histograms", {}).get(name)
        return (hist["count"], hist["sum"]) if hist else (0, 0.0)
    count_before, sum_before = pair(before)
    count_after, sum_after = pair(after)
    return count_after - count_before, sum_after - sum_before


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
