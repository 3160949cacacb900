#!/usr/bin/env python3
"""The essns benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve_track --seed 1 --seconds 45 --trace 0

Builds essns_cli and perfbench_tool from the checkout's sources (Release,
under .bench_build/perfbench), runs the workload, checks every output
against a cache-off oracle and prints, as the last line of stdout, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the workload runs once
untraced and once with tracing and metrics collection on, and the metrics
are the per-layer split of the traced pass plus trace.overhead_ratio.
Progress goes to stderr. Exit status: 0 on a verified run, 1 when any
output diverged from the oracle, 2 when the run could not be made (build
failure, too few samples, a generator that fell behind its schedule).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import derive  # noqa: E402
from derive import BenchError  # noqa: E402
from serving import COMPUTE_CPUS, pin_generator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)

UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
    "goodput_per_s": "1/s", "quality_mean": "1", "peak_rss_mib": "MiB",
    "cpu_s_per_op": "s",
}

# The generator, not the server, was late when its p90 send lateness
# exceeds this; such a run is invalid.
MAX_LAG_P90_S = 0.025


def log(message):
    print(message, file=sys.stderr, flush=True)


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")) or name == "cache.hit_ratio":
        return "1"
    return "count"


def hardware_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, cpu {model}, build Release"


def build_base():
    """Where builds and run files go: $CARGO_TARGET_DIR, else .bench_build,
    relative to the checkout root."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build the benchmark package; return (cli, tool)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no essns sources under {ROOT}/src")
    build_dir = os.path.join(build_base(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "essns_cli"),
            os.path.join(build_dir, "perfbench_tool"))


class Context:
    def __init__(self, cli, tool, run_dir):
        self.cli = cli
        self.tool = tool
        self.run_dir = run_dir
        # Compute threads: one CPU is left to the load generator.
        self.threads = len(COMPUTE_CPUS)
        self.log = log


def run(args):
    cli, tool = build()
    pin_generator()
    run_dir = tempfile.mkdtemp(prefix="run-", dir=build_base())
    try:
        ctx = Context(cli, tool, run_dir)
        measure = WORKLOADS[args.workload]
        log(f"{args.workload}: seed {args.seed}, {args.seconds} s, "
            f"{ctx.threads} compute threads; {hardware_stamp()}")
        plain = measure(ctx, args.seed, args.seconds, False)
        passes = [plain]
        if args.trace:
            traced = measure(ctx, args.seed, args.seconds, True)
            passes.append(traced)
        if plain.lag_p90 > MAX_LAG_P90_S:
            raise BenchError(f"run invalid: the load generator ran "
                             f"{plain.lag_p90:.4f} s late at p90")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(traced.layers.items())}
        metrics["trace.overhead_ratio"] = {
            "value": derive.ratio(traced.total_time, plain.total_time),
            "unit": "1"}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in sorted(plain.e2e.items())}
    divergences = sum(p.divergences for p in passes)
    result = {
        "correct": divergences == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    log(f"failed share: {derive.ratio(result['failed'], result['attempted']):.4f}")
    print(json.dumps(result))
    return 0 if divergences == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
