"""Full-scale acceptance checks: closed-form laws vs independent oracles.

Each test runs one verification at its stated ensemble size and asserts both
the residual tolerance and the runtime budget.
"""

from __future__ import annotations

import time

from wgfusion.verify import (
    check_balanced_entropy,
    check_bell_retention,
    check_generalized_oracle,
    check_ghz_generation,
    check_hyperbola,
    check_logical_qubit,
    check_no_good_failure_theorem,
    check_scans,
    check_type_i,
    check_type_ii_failures,
)


def _run(fn, tol, budget=None):
    t0 = time.perf_counter()
    r = fn()
    elapsed = time.perf_counter() - t0
    assert r.passed, f"{r.name}: {r.detail} (residual {r.max_residual})"
    assert r.max_residual < tol, f"{r.name} residual {r.max_residual} >= {tol}"
    if budget is not None:
        assert elapsed < budget, f"{r.name} took {elapsed:.1f}s (budget {budget}s)"
    return r


def test_01_type_i_distribution():
    # 4 outcomes at 1/4 each; success fidelity vs the merged 5-chain
    assert _run(check_type_i, 1e-10, budget=1.0).detail == "20 draws"


def test_02_logical_qubit_probability():
    # 100-point grid, (1 - cos chi)/4, logical-pair amplitude support
    _run(check_logical_qubit, 1e-10, budget=5.0)


def test_03_type_ii_failure_split():
    # (1 -/+ Re z)/4 with closed-form Re z; good failure (1 - cos chi)/8
    _run(check_type_ii_failures, 1e-10, budget=5.0)


def test_04_generalized_fusion_oracle():
    # 1000 draws, N in 4..8: analytic probabilities and det rho vs enumeration
    assert _run(check_generalized_oracle, 1e-10, budget=60.0).detail == "1000 draws"


def test_05_bell_projection_retention():
    # 200 unitaries with (1/sqrt2)-unitary relevant blocks: p independent of z
    assert _run(check_bell_retention, 1e-12).detail == "200 unitaries"


def test_06_balanced_unitary_entropy():
    # balanced columns: relevant total 1/2 and det rho = (1-|z|^2)/4
    assert _run(check_balanced_entropy, 1e-10).detail == "200 unitaries"


def test_07_ghz_pair_generation():
    # 50 targets over (-pi, pi] at chi = pi; both outcomes give the same pair
    _run(check_ghz_generation, 1e-10)


def test_08_hyperbola_construction():
    # xi residual < 1e-9; corrected end-to-end fidelity >= 1 - 1e-8
    assert _run(check_hyperbola, 1e-8).detail.startswith("50 pairs;")


def test_09_no_good_failure_theorem():
    # 200 constrained unitaries: every relevant outcome det < 1e-12
    assert _run(check_no_good_failure_theorem, 1e-12).detail == "200 draws"


def test_10_appendix_scans():
    # 200-point grids: no solutions outside the known solution manifolds
    _run(check_scans, 1e-6, budget=120.0)
