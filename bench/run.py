"""wgfusion benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload verify_suite|dense_fusion|scan_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/`` of that checkout, byte-compiled first. Every process runs on one
thread: BLAS and OpenMP pools are pinned to 1 and ``WGS_THREADS`` is 1.

``--trace 0`` times set-up in separate processes, then runs the workload's
operation list untraced for ``--seconds`` in one more process and reports
the end-to-end metrics of BENCHMARK.json. ``--trace 1`` runs one process
that alternates untraced passes with passes under the outside-in tracer
and reports the per-layer metrics. The last line of standard output is the
result JSON; the line before it holds the run metadata and output digest,
also written to ``.bench_work/<workload>-trace<t>/run.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 2  # set-up samples per end-to-end run, besides the measuring process
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "WGS_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, or a process failed)."""


def run_worker(root: str, env: dict, workdir: str, args, mode: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", workdir,
    ]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), "")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, idx)
        if idx.startswith("index"):
            kind = _read(os.path.join(d, "type")).strip()[:1].lower()
            caches[f"L{_read(os.path.join(d, 'level')).strip()}{kind}"] = _read(os.path.join(d, "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


def git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(os.path.join(root, ".git", head[5:])).strip() or "unknown"
    return head or "not a git checkout"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["verify_suite", "dense_fusion", "scan_sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wgfusion", "__init__.py")):
        raise BenchError(f"no wgfusion source tree under {src}: run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not compileall.compile_dir(src, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        raise BenchError("byte-compiling the sources failed")

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)

    if args.trace:
        res = run_worker(root, env, workdir, args, "trace")
        values = res["per_layer"]
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec["per_layer"]
        }
        consistent = res["calls_repeat"]
    else:
        setups = [run_worker(root, env, workdir, args, "setup")["setup_s"] for _ in range(SETUP_PROCESSES)]
        res = run_worker(root, env, workdir, args, "measure")
        setups.append(res["setup_s"])
        values = {
            "wall_s": statistics.median(res["times"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        res["setup_samples"] = setups
        consistent = True
    digest_stable = len(set(res["digests"])) == 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": res["digests"][0],
        "digest_stable": digest_stable,
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "versions": res["versions"],
        "machine": machine(),
        "threads": THREAD_ENV,
        "git_commit": git_commit(root),
        "raw": {k: v for k, v in res.items() if k not in ("per_layer", "digests", "versions", "failures")},
    }
    with open(os.path.join(workdir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    result = {
        "correct": res["failed"] == 0 and digest_stable and consistent,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
