"""Certification benchmark for paircodes: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 certbench/run.py --workload matrix --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``matrix`` certifies the twelve
acceptance members; ``enum`` answers distance queries that the full
enumeration engine serves; ``deep_scan`` answers distance queries that
the support-rank engine serves at deep levels.  ``--workload all`` runs
the three in turn, each in its own process.

Load is closed-loop: one process, one worker, no threads, each item
started when the previous one has returned.  A run builds every code
once to warm the field tables, then runs passes over all items until
the next pass would end after ``--seconds``.  Each item's output is
checked after its timer stops; a raised error or a wrong status, value
or witness counts as failed.

Every time below is scaled to a reference speed (reference.py): the
fixed reference loop runs just before and just after each timed item
and each set-up, and the wall time is multiplied by ``REF_S`` over the
mean of the two.  This takes out the host's speed drift, which moves
raw wall times by up to 40% between runs minutes apart, and leaves in
every change of the program, which the loop does not run.  The raw
wall pass time and the host's speed relative to ``REF_S`` are printed
as text lines.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median time, over fresh interpreters started before
  each pass and after the last, of importing paircodes and building
  every code of the workload;
* ``pass_s``: median time of one warm pass over all items, summed
  over the items' timers so that the reference loop and the output
  checks are left out;
* ``item_ms.p50``: the median item's latency, taking each item's
  median over the passes and then the median over the items; a pooled
  median would sit between two items' bands of samples and read their
  noisy edges;
* ``item_ms.tail``: item latency, pooled over passes, at the
  workload's tail percentile;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``failed_share`` is printed as a text line (it is 0 when the program is
correct, and the result's ``failed`` / ``attempted`` carry it), and so is
the share of outputs whose canonical JSON bytes equal the recorded ones.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of tracer.py, as medians over traced passes, with
``trace.overhead_share``, the traced pass_s over the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units are those BENCHMARK.json declares.

Other files here: reference.py is the reference loop and its scaling,
build_codes.py is the set-up that ``setup_s`` times,
record.py writes pool.json (the inputs and their expected outputs),
and baseline.py runs many seeds and writes baseline.json.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REF_S, reference, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def declared_metrics():
    """Metric name -> unit, as BENCHMARK.json declares them, by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def environment():
    import numpy

    from paircodes import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "has_numba": kernels.HAS_NUMBA,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup_once(workload, seed):
    """Scaled time of one fresh interpreter that builds every code."""
    cmd = [sys.executable, str(HERE / "build_codes.py"), workload, str(seed)]
    before = reference()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return scale(wall, before, reference())


class Pass:
    """Latencies and verdicts of one pass over the items.

    ``wall`` holds each item's wall seconds, ``latencies`` the same
    scaled to the reference speed; ``pass_s`` sums the scaled ones and
    ``wall_pass_s`` the wall ones.
    """

    def __init__(self, items, tracer=None):
        self.wall = []
        self.latencies = []
        self.refs = []
        self.failed = 0
        self.same_bytes = 0
        t0 = time.perf_counter()
        before = reference()
        for item in items:
            if tracer is not None:
                tracer.start_item()
            start = time.perf_counter()
            try:
                out = item.run()
                why = None
            except Exception:
                why = traceback.format_exc()
            wall = time.perf_counter() - start
            after = reference()
            self.wall.append(wall)
            self.latencies.append(scale(wall, before, after))
            self.refs.append(before)
            before = after
            if why is not None:
                self._fail(item, why)
                continue
            try:
                ok, same = item.check(out)
            except Exception:
                ok, same = False, False
            if not ok:
                self._fail(item, "wrong output\n")
            self.same_bytes += same
        self.refs.append(before)
        self.wall_s = time.perf_counter() - t0
        self.pass_s = sum(self.latencies)
        self.wall_pass_s = sum(self.wall)

    def _fail(self, item, why):
        self.failed += 1
        print(f"FAILED {item.label}: {why}", end="", file=sys.stderr)


def run_passes(items, seconds, tracer=None, between=None):
    """Untraced passes, or alternating untraced/traced ones with a tracer.

    Stops when the next pass is predicted to end after ``seconds``;
    with a tracer, not before one pass of each kind has run.
    ``between``, when given, runs before each pass and after the last,
    outside the measured seconds: set-up samples taken this way are
    spread over the run, as the machine's speed drifts within it.
    """
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.start_pass()
            with tracer.installed():
                p = Pass(items, tracer)
            traced.append(p)
            layers.append(tracer.pass_metrics(p.wall_pass_s))
        else:
            plain.append(Pass(items))
        done = plain + traced
        next_s = statistics.median(p.wall_s for p in done)
        if time.perf_counter() + next_s > deadline and (tracer is None or traced):
            if between is not None:
                between()
            return plain, traced, layers


def tail(samples, pct):
    """(value at percentile pct, number of samples strictly above it)."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    value = cuts[pct - 1]
    return value, sum(s > value for s in samples)


def run_workload(workload, seed, seconds, trace):
    import workloads

    items = workloads.make_items(workload, seed)
    for item in items:
        item.prepare()

    if trace:
        from tracer import Tracer

        plain, traced, layers = run_passes(items, seconds, Tracer())
    else:
        setups = []
        plain, traced, layers = run_passes(
            items, seconds, between=lambda: setups.append(setup_once(workload, seed))
        )
    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    same = sum(p.same_bytes for p in passes)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(
        f"workload {workload} seed {seed}: {len(items)} items per pass, "
        f"{len(plain)} untraced and {len(traced)} traced passes"
    )
    for i, item in enumerate(items):
        ms = statistics.median(p.latencies[i] for p in passes) * 1e3
        print(f"  item {item.label:<40} {ms:10.1f} ms median")
    refs = [r for p in passes for r in p.refs]
    print(
        f"wall pass_s {statistics.median(p.wall_pass_s for p in plain):.4f} s; "
        f"host speed {REF_S / statistics.median(refs):.3f} x reference "
        f"(reference loop median {statistics.median(refs) * 1e3:.2f} ms)"
    )
    print(f"failed_share {failed / attempted} ({failed} of {attempted} items)")
    print(f"bytes_match_share {same / attempted} ({same} of {attempted} items)")

    if trace:
        metrics = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        metrics["trace.overhead_share"] = statistics.median(
            p.pass_s for p in traced
        ) / statistics.median(p.pass_s for p in plain)
        metrics["check.bytes_match_share"] = same / attempted
        parts = ("families.build_ms", "certify.dh_ms", "certify.sweep_ms", "certify.dp_ms",
                 "certify.checks_ms", "trace.untimed_ms")
        print(
            f"traced wall pass_s {statistics.median(p.wall_pass_s for p in traced):.4f} s; "
            f"build + dh + sweep + dp + checks + untimed = "
            f"{sum(metrics[k] for k in parts) / 1e3:.4f} s"
        )
    else:
        lat_ms = [s * 1e3 for p in plain for s in p.latencies]
        pct = workloads.TAIL_PCT[workload]
        tail_ms, beyond = tail(lat_ms, pct)
        print(f"item_ms.tail is p{pct}: {beyond} of {len(lat_ms)} samples beyond it")
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p.pass_s for p in plain),
            "item_ms.p50": statistics.median(
                statistics.median(p.latencies[i] for p in plain) * 1e3 for i in range(len(items))
            ),
            "item_ms.tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = declared_metrics()[trace]
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def run_all(argv_tail):
    """Each workload in its own process; one JSON object per workload."""
    results = {}
    for workload in ("matrix", "enum", "deep_scan"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, *argv_tail],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="matrix, enum, deep_scan or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "paircodes" / "__init__.py").is_file():
        print(f"error: no paircodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(
            ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
