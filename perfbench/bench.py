"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/bench.py --workload syk_route --seed 1 --seconds 30 --trace 0

``run.py`` starts this script with the BLAS thread count pinned; use that.
With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run, and
the spans are written to ``.perfbench/trace-<workload>-seed<n>.json``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fermigraph  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: One set-up lasts well under a second, most of it a fresh interpreter
#: starting, whose time varies by a fifth from one start to the next; so
#: it is repeated and the median reported.
SETUP_REPEATS = 11
#: What a fresh process pays before it can compile: interpreter start and
#: the imports.
IMPORT_CMD = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import fermigraph"]
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Per-layer time metrics and the span name each is read from.
LAYER_TIMES = {
    "encoding.route_s": "encoding.route",
    "encoding.build_s": "encoding.build",
    "encoding.verify_algebra_s": "encoding.verify_algebra",
    "geometries.gen_s": "geometries.gen",
    "fermion.normal_form_s": "fermion.normal_form",
    "transform.s": "transform",
    "analytics.weight_stats_s": "analytics.weight_stats",
    "fileio.read_graph_s": "fileio.read_graph",
    "fileio.read_fham_s": "fileio.read_fham",
    "fileio.write_pauli_s": "fileio.write_pauli",
    "fileio.read_pauli_s": "fileio.read_pauli",
    "fileio.write_enc_s": "fileio.write_enc",
    "fileio.read_enc_s": "fileio.read_enc",
    "dense.h_matrix_s": "dense.h_matrix",
    "dense.codespace_s": "dense.codespace",
    "dense.reference_s": "dense.reference",
    "dense.oracle_s": "dense.oracle",
}
#: Per-layer work counts of one repetition, with their units.
LAYER_COUNTS = {
    "encoding.route_pairs": "count",
    "encoding.qubits": "count",
    "fermion.monomials": "count",
    "transform.pauli_products": "count",
    "transform.terms_out": "count",
    "fileio.pauli_bytes": "bytes",
    "dense.h_matrix_bytes_computed": "bytes",
    "dense.codespace_dim": "count",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def set_up(wl, seed: int, workdir: str):
    """Start a fresh interpreter that imports fermigraph, make the inputs,
    and warm up on the small input set.  Returns the inputs and the median
    seconds of these steps over several set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(IMPORT_CMD, check=True)
        warm = wl.make_inputs(seed, workdir, warm=True)
        for item in warm["items"]:
            wl.run_item(warm, item, NullTracer())
        inputs = wl.make_inputs(seed, workdir, warm=False)
        times.append(time.perf_counter() - t)
    return inputs, statistics.median(times)


class Timing:
    """Wall seconds of every item in every repetition of one loop."""

    def __init__(self, items):
        self.item_walls = {item: [] for item in items}
        self.rep_walls = []

    def run_s(self) -> float:
        """Seconds per repetition: each item at the fastest it ran in this
        loop, summed.  On a shared machine the same code's wall time spreads
        over a factor of two within a minute, while the fastest of several
        tries moves a few percent, so this is steadier than the median."""
        return sum(min(walls) for walls in self.item_walls.values())


def timed_reps(wl, inputs, tracer, seconds: float):
    """Run every item once per repetition, checking outputs outside the
    timing.  A repetition starts only if one as long as the last would end
    within ``seconds``; the first always runs."""
    timing, attempted, failures = Timing(inputs["items"]), 0, []
    start = time.perf_counter()
    while not timing.rep_walls or (
        time.perf_counter() - start + timing.rep_walls[-1] <= seconds
    ):
        tracer.rep = len(timing.rep_walls)
        out = []
        for item, walls in timing.item_walls.items():
            t = time.perf_counter()
            out.append(wl.run_item(inputs, item, tracer))
            walls.append(time.perf_counter() - t)
        timing.rep_walls.append(sum(walls[-1] for walls in timing.item_walls.values()))
        n, bad = wl.check(inputs, out)
        attempted += n
        failures += bad
    return timing, out, attempted, failures


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    self_s = tracer.best_self_time()
    metrics = {name: (self_s.get(span, 0.0), "s") for name, span in LAYER_TIMES.items()}
    metrics.update((name, (counts.get(name, 0), unit)) for name, unit in LAYER_COUNTS.items())
    pairs = counts.get("encoding.route_pairs", 0)
    route_us = 1e6 * metrics["encoding.route_s"][0] / pairs if pairs else 0.0
    metrics["encoding.route_us_per_pair"] = (route_us, "us")
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(wl, seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (result object, lines to print, tracer or None)."""
    inputs, setup_s = set_up(wl, seed, workdir)
    timing, out, attempted, failures = timed_reps(
        wl, inputs, NullTracer(), seconds / 2 if trace else seconds)
    run_s = timing.run_s()
    walls = timing.rep_walls
    q1, q3 = quartiles(walls)
    lines = [f"run_s {run_s:.4f} s (fastest per item, summed); whole repetitions: median "
             f"{statistics.median(walls):.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
             f"{len(walls)} untraced repetitions"]
    tracer = None
    if trace:
        tracer = Tracer()
        traced, out, n, bad = timed_reps(wl, inputs, tracer, seconds / 2)
        attempted += n
        failures += bad
        tracer.rep = "breakdown"
        counts = wl.counts(inputs, out)
        counts.update(wl.breakdown(inputs, tracer))
        metrics = layer_metrics(tracer, counts)
        metrics["trace.overhead_s"] = (traced.run_s() - run_s, "s")
        lines.append(f"traced run_s {traced.run_s():.4f} s, {len(traced.rep_walls)} repetitions")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "terms_per_s": (wl.terms(inputs, out) / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    fail_ratio = len(failures) / attempted
    if trace:
        metrics["fail_ratio"] = (fail_ratio, "ratio")
    lines.append(f"checks: {attempted} attempted, {len(failures)} failed, fail_ratio {fail_ratio}")
    lines.extend(f"  FAILED {msg}" for msg in failures[:10])
    lines.extend(f"  {name} = {value} {unit}" for name, (value, unit) in metrics.items())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, lines, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if os.path.dirname(os.path.abspath(fermigraph.__file__)) != os.path.join(SRC, "fermigraph"):
        print(f"bench.py: fermigraph was imported from {fermigraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    wl = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, lines, tracer = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "environment": env,
                            "metrics": result["metrics"]})
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
