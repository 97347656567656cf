"""One benchmark process: set up a workload, then measure it (run.py starts these).

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace --workdir DIR

with ``src`` on PYTHONPATH. Generated inputs go under DIR; a traced run also
writes the spans of its first traced pass to DIR/spans.json.

Set-up is ``import wgfusion``, input generation from the seed and one
warm-up pass at tiny scale; it is timed from before the import. ``measure``
then runs untraced passes of the full operation list for ``--seconds``.
``trace`` alternates untraced passes and traced passes, installing the
tracer for each traced pass only. The process prints one JSON line with
its results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def setup(workload: str, seed: int, workdir: str):
    t0 = time.perf_counter()
    import wgfusion  # noqa: F401  (part of the timed set-up)
    import workloads

    ops = workloads.build(workload, seed, "full", workdir)
    warm = workloads.build(workload, seed, "tiny", os.path.join(workdir, "warmup"))
    workloads.run_pass(warm)
    return workloads, ops, time.perf_counter() - t0


def _another_fits(start: float, durations: list[float], seconds: float) -> bool:
    """Whether one more pass of median length still ends within ``seconds``."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def timed_passes(run_pass, ops, seconds: float, failures: list[str]) -> dict:
    """Whole passes for ``seconds`` (at least one)."""
    times, digests, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not times or _another_fits(start, times, seconds):
        t0 = time.perf_counter()
        a, f, d = run_pass(ops, failures)
        times.append(time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
        digests.append(d)
    return {"times": times, "attempted": attempted, "failed": failed, "digests": digests}


def trace_passes(run_pass, ops, seconds: float, spans_path: str, failures: list[str]) -> dict:
    """Alternate untraced and traced passes, so that host drift hits both alike."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, totals, digests, attempted, failed = [], [], [], [], 0, 0
    start = time.perf_counter()
    while not totals or _another_fits(start, [p + t for p, t in zip(plain, traced)], seconds):
        t0 = time.perf_counter()
        a, f, d = run_pass(ops, failures)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        tracer.reset()
        t0 = time.perf_counter()
        a2, f2, d2 = tracer.run_root(lambda: run_pass(ops, failures))
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        totals.append(tracer.totals())
        if len(totals) == 1:
            tracer.dump(spans_path)
        attempted, failed = attempted + a + a2, failed + f + f2
        digests += [d, d2]
    first = totals[0]
    per_layer = {
        key: statistics.median(t[key] for t in totals) if key.endswith(("self_s", "total_s")) else val
        for key, val in first.items()
    }
    per_layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    counted = [k for k in first if k.endswith((".calls", ".constructed"))]
    return {
        "per_layer": per_layer,
        "untraced_times": plain,
        "traced_times": traced,
        "calls_repeat": all(t[k] == first[k] for t in totals for k in counted),
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
    }


def versions() -> dict:
    import numpy
    import scipy

    import wgfusion

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wgfusion": wgfusion.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workdir = os.path.join(args.workdir, f"{args.mode}-{os.getpid()}")
    workloads, ops, setup_s = setup(args.workload, args.seed, workdir)
    out: dict = {"setup_s": setup_s}
    failures: list[str] = []
    if args.mode == "measure":
        out.update(timed_passes(workloads.run_pass, ops, args.seconds, failures))
    elif args.mode == "trace":
        spans = os.path.join(args.workdir, "spans.json")
        out.update(trace_passes(workloads.run_pass, ops, args.seconds, spans, failures))
    out["failures"] = failures[:20]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
