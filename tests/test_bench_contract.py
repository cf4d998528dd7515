"""The package surface that the benchmark under bench/ relies on.

bench/spans.py names the public functions it times by their paths
inside singspec, and bench/run.py resets the truncation start and reads
the Milnor-algebra cache statistics between runs.  A rename or removal
of any of these breaks the benchmark, so it is caught here first."""

import importlib
import importlib.util
import os
import subprocess
import sys

import singspec
from singspec import localalg

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
SPANS = os.path.join(BENCH, "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve():
    spans = load_spans()
    for path, _ in spans.LAYER_FUNCTIONS.values():
        importlib.import_module("singspec." + path.split(".")[0])
        assert callable(spans._resolve(singspec, path)), path


def test_closed_loop_hooks():
    prev = localalg.set_truncation_start(None)
    try:
        info = localalg.milnor_algebra.cache_info()
        assert info.hits >= 0 and info.misses >= 0
    finally:
        localalg.set_truncation_start(prev)


def test_closed_loop_empties_the_germ_records():
    # closed_loop relies on this reset: every run starts from nothing
    f = singspec.parse_polynomial("x^5 + y^4", ["x", "y"])
    before = localalg.milnor_algebra(f)
    localalg.steenbrink_spectrum(f)
    prev = localalg.set_truncation_start(None)
    try:
        assert localalg.milnor_algebra.cache_info().currsize == 0
        assert localalg.milnor_algebra(f) is not before
    finally:
        localalg.set_truncation_start(prev)


def test_bench_runs_every_workload():
    # exit 1 means an uncaught exception in the bench's import, its
    # warm-ups or its closed loop; a wrong answer would count as failed
    for trace in ("0", "1"):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "all", "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, (trace, done.stderr[-2000:])
