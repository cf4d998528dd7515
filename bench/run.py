"""Closed-loop benchmark of singspec: one client, one thread, one process.

    python3 bench/run.py --workload invariants --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the same
request stream untraced and then traced (half the time each), reports
the per-layer metrics of the traced half and the ratio of the two.
--workload all runs every workload in its own process and prints their
summaries.  The last line of standard output is one JSON object; the
lines before it are the same metrics for a human reader.  The package
is imported from ../src relative to this file; nothing is installed.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
MODULES = ("polycore", "newton", "localalg", "hodge", "cli")

sys.path[:0] = [HERE, SRC]

from spans import LAYERS, SPAN_NAMES, Recorder, plain_api  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Package:
    """Freshly imported singspec modules, as attributes by short name."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "singspec" or m.startswith("singspec.")]:
            del sys.modules[name]
        top = importlib.import_module("singspec")
        if os.path.dirname(os.path.abspath(top.__file__)) != \
                os.path.join(SRC, "singspec"):
            raise ImportError("singspec imported from %s, not %s"
                              % (top.__file__, SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module("singspec." + name))


def set_up(workload_cls, seed):
    """Import, input generation and warm-up, repeated; returns the last
    (package, workload) and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = Package()
        workload = workload_cls(seed, OUT)
        err = workload.warm_up(plain_api(pkg))
        times.append(time.perf_counter() - start)
        if err:
            raise RuntimeError("warm-up request failed: %s" % err)
    return pkg, workload, statistics.median(times)


def closed_loop(pkg, workload, api, seconds, recorder=None):
    """Send the next request as soon as the previous one completes,
    until `seconds` have passed; caches are emptied first."""
    pkg.localalg.set_truncation_start(None)
    workload.counters.clear()
    starts, latencies, failures = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    for i, item in enumerate(workload.requests()):
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        starts.append(t0 - start)
        if recorder is not None:
            recorder.request = i
        try:
            err = workload.run(api, item)
        except Exception as exc:  # a failed request, not a failed run
            err = "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - t0)
        if err:
            failures.append((i, err))
    return {"starts": starts, "latencies": latencies, "failures": failures,
            "cache": pkg.localalg.milnor_algebra.cache_info()}


def throughput(result, seconds):
    """Requests completed without failure per second of the measured
    window.  The request running at the deadline counts for the share of
    it that fell inside the window: a `report` request takes up to a few
    seconds, so counting it whole or not at all would move the figure by
    several percent with where the deadline cuts the stream."""
    failed = {i for i, _ in result["failures"]}
    done = sum(min(1.0, (seconds - t0) / lat)
               for i, (t0, lat) in enumerate(zip(result["starts"],
                                                 result["latencies"]))
               if i not in failed)
    return done / seconds


def end_to_end(result, seconds, setup_s):
    lat = sorted(result["latencies"])
    n = len(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput(result, seconds), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    extra = {"samples": (n, "count"),
             "failed_share": (len(result["failures"]) / n, "ratio")}
    if n >= 100:  # at least ten samples beyond p90
        extra["latency_p90_ms"] = (
            1000 * statistics.quantiles(lat, n=10)[-1], "ms")
    return metrics, extra


class AlgebraStats:
    """Sizes of each distinct Milnor algebra a request obtained."""

    def __init__(self):
        self.seen = set()
        self.request = None
        self.count = self.N = self.dim = self.rank = self.nnz = 0

    def __call__(self, ma, request):
        if request != self.request:
            self.request, self.seen = request, set()
        if id(ma) in self.seen:
            return
        self.seen.add(id(ma))
        self.count += 1
        self.N += ma.N
        self.dim += ma.space.dimension
        self.rank += len(ma.span.rows)
        self.nnz += sum(len(row) for row in ma.span.rows.values())


def traced_pass(pkg, workload, seconds):
    recorder = Recorder()
    stats = AlgebraStats()
    recorder.on_algebra = lambda ma: stats(ma, recorder.request)
    with recorder.cli_rebound(pkg.cli):
        result = closed_loop(pkg, workload, recorder.api(pkg), seconds,
                             recorder)
    return result, recorder, stats


def per_layer(untraced, traced, recorder, stats, counters):
    totals = recorder.totals()
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPAN_NAMES:
        incl, self_s, calls = totals[name]
        metrics[name + "_s"] = (incl, "s")
        metrics[name + ".calls"] = (calls, "count")
        layer_self[name.split(".")[0]] += self_s
    for layer, value in layer_self.items():
        metrics[layer + ".self_s"] = (value, "s")
    metrics["cli.output_bytes"] = (counters["output_bytes"], "B")
    k = max(stats.count, 1)
    metrics["localalg.algebras_read"] = (stats.count, "count")
    metrics["localalg.truncation_N"] = (stats.N / k, "degree")
    metrics["localalg.space_dim"] = (stats.dim / k, "count")
    metrics["linalg.span_rank"] = (stats.rank / k, "count")
    metrics["linalg.span_nnz"] = (stats.nnz / k, "count")
    metrics["linalg.fill_per_row"] = (stats.nnz / max(stats.rank, 1),
                                      "ratio")
    cache = traced["cache"]
    lookups = cache.hits + cache.misses
    metrics["localalg.cache_hits"] = (cache.hits, "count")
    metrics["localalg.cache_misses"] = (cache.misses, "count")
    metrics["localalg.cache_hit_ratio"] = (cache.hits / max(lookups, 1),
                                           "ratio")
    both = min(len(untraced["latencies"]), len(traced["latencies"]))
    metrics["trace.compared_requests"] = (both, "count")
    metrics["trace.overhead_ratio"] = (
        sum(traced["latencies"][:both]) / sum(untraced["latencies"][:both]),
        "ratio")
    metrics["trace.requests"] = (len(traced["latencies"]), "count")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    return metrics


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "singspec", "__init__.py")):
        print("error: no singspec package under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    pkg, workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    if args.trace:
        half = args.seconds / 2
        untraced = closed_loop(pkg, workload, plain_api(pkg), half)
        traced, recorder, stats = traced_pass(pkg, workload, half)
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced, recorder, stats,
                            workload.counters)
        recorder.write(os.path.join(OUT, "spans-%s-%d.jsonl"
                                    % (args.workload, args.seed)))
        extra = {}
    else:
        result = closed_loop(pkg, workload, plain_api(pkg), args.seconds)
        runs = [result]
        metrics, extra = end_to_end(result, args.seconds, setup_s)
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for i, err in failures[:5]:
        print("request %d failed: %s" % (i, err), file=sys.stderr)
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("%s %s %s %s" % (args.workload, name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
