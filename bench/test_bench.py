"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import LAYERS, ROOT_LAYER, Tracer  # noqa: E402
from wgfusion import analysis, errors, verify  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    ops = workloads.build(name, 5, "tiny", str(tmp_path))
    failures: list[str] = []
    attempted, failed, digest = workloads.run_pass(ops, failures)
    assert attempted == len(ops) > 0
    assert failed == 0, failures
    again = workloads.build(name, 5, "tiny", str(tmp_path / "again"))
    assert workloads.run_pass(again)[2] == digest


def test_seed_changes_inputs(tmp_path):
    a = workloads.run_pass(workloads.build("dense_fusion", 1, "tiny", str(tmp_path)))[2]
    b = workloads.run_pass(workloads.build("dense_fusion", 2, "tiny", str(tmp_path)))[2]
    assert a != b


def test_verify_seeds_reach_seeded_checks():
    ops = workloads.verify_suite(0, "tiny", "")
    assert [op.name for op in ops] == [f"verify.{fn.__name__}" for fn in verify.ALL_CHECKS]
    seeded = [workloads._accepts_seed(fn) for fn in verify.ALL_CHECKS]
    assert sum(seeded) == 7  # logical_qubit, ghz_generation and scans have fixed grids


def _traced_pass(tracer: Tracer, ops):
    tracer.reset()
    return tracer.run_root(lambda: workloads.run_pass(ops))


def test_tracer_self_times_sum_and_counts_repeat(tmp_path):
    ops = workloads.build("scan_sweep", 7, "tiny", str(tmp_path))
    ops += workloads.build("verify_suite", 7, "tiny", str(tmp_path))[:4]
    tracer = Tracer()
    tracer.install()
    try:
        _traced_pass(tracer, ops)
        first = tracer.totals()
        (_, parent, t0, t1) = tracer.spans[0]
        _traced_pass(tracer, ops)
        second = tracer.totals()
    finally:
        tracer.uninstall()
    assert parent == -1
    wall = t1 - t0
    self_sum = sum(first[f"{layer}.self_s"] for layer in LAYERS + (ROOT_LAYER,))
    assert math.isclose(self_sum, wall, rel_tol=1e-9, abs_tol=1e-9)
    counts = {k: v for k, v in first.items() if k.endswith((".calls", ".constructed"))}
    assert counts == {k: second[k] for k in counts}
    for layer in ("graphstate", "protocols", "analysis", "verify", "cli", "fock"):
        assert first[f"{layer}.calls"] > 0, layer
    assert first["graphstate.PureState.constructed"] > 0
    assert first["protocols.ChainState.constructed"] > 0


def test_tracer_rebinds_and_restores():
    original = verify.ALL_CHECKS[0]
    original_build = verify.build_state
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.ALL_CHECKS[0] is not original
        assert verify.ALL_CHECKS[0].__wrapped__ is original
        import wgfusion
        from wgfusion import graphstate, protocols

        # names imported with `from .graphstate import build_state` share one wrapper
        assert graphstate.build_state is not original_build
        assert protocols.build_state is graphstate.build_state is wgfusion.build_state
    finally:
        tracer.uninstall()
    assert verify.ALL_CHECKS[0] is original
    assert verify.build_state is original_build
    tracer.install()  # passes alternate: installing again reuses the same wrappers
    try:
        assert verify.ALL_CHECKS[0].__wrapped__ is original
        assert len(tracer.names) == len(set(tracer.names))
    finally:
        tracer.uninstall()


def test_wrong_expectation_is_counted_not_dropped(tmp_path):
    ops = workloads.build("scan_sweep", 3, "tiny", str(tmp_path))

    def wrong_tag() -> str:
        oc = analysis.classify_projection(analysis.TwoQubitProjection(0.5, 0.5, 0.5, 0.5), 0.7)
        workloads.gate(oc.tag == "maximally_entangled", f"product classified {oc.tag}")
        return oc.tag

    def raises() -> str:
        raise errors.NumericalAbortError("injected")

    ops.insert(1, workloads.Op("injected.wrong_tag", wrong_tag))
    ops.append(workloads.Op("injected.raise", raises))
    failures: list[str] = []
    attempted, failed, _ = workloads.run_pass(ops, failures)
    assert attempted == len(ops)
    assert failed == 2
    assert failures[0].startswith("injected.wrong_tag: GateFailure")
    assert failures[1].startswith("injected.raise: NumericalAbortError")


def test_runner_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / name).write_text(open(os.path.join(ROOT, "bench", name)).read())
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    cmd = [sys.executable, "bench/run.py", "--workload", "scan_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_match_tracer(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ops = workloads.build("scan_sweep", 1, "tiny", str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        _traced_pass(tracer, ops)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in totals]
    assert missing == ["trace.overhead_frac"]  # computed by the worker from two pass sets
