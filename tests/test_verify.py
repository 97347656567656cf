from __future__ import annotations

import inspect

import numpy as np
import pytest

from wgfusion import verify
from wgfusion.fock import pattern_indices
from wgfusion.verify import run_all


def test_every_residual_is_a_python_float():
    for r in run_all(quick=True):
        assert type(r.max_residual) is float, f"{r.name}: {type(r.max_residual)}"


@pytest.mark.parametrize(
    "table_index, error",
    [(0, 1e-9), (2, 1e-9), (0, float("nan"))],
    ids=["probability", "det_rho_coefficient", "nan_probability"],
)
def test_generalized_oracle_catches_one_perturbed_pattern(monkeypatch, table_index, error):
    """A 1e-9 error, or a NaN, in one pattern of one draw of one stacked batch fails the check."""
    real = verify.enumerate_table
    batches = []

    def perturbed(us, *args):
        out = real(us, *args)
        batches.append(len(us))
        if len(batches) == 3:
            # the batch's last draw, at its most entangled live relevant pattern
            # (det rho is flat to first order in a coefficient near det rho = 0)
            probs, coef = out[0], out[2]
            k = len(us) - 1
            iu, ju = pattern_indices(us.shape[-1])
            a, b, c, d = np.moveaxis(coef[k], -1, 0)
            live = (iu != ju) & (probs[k] > 1e-10)
            p = int(np.argmax(np.where(live, np.abs(a * d - b * c) / probs[k], 0.0)))
            if table_index == 0:
                probs[k, p] += error
            else:
                coef[k, p, 0] += error
        return out

    monkeypatch.setattr(verify, "enumerate_table", perturbed)
    res = verify.check_generalized_oracle(quick=True)
    assert len(batches) > 3 and sum(batches) == 100
    assert not res.passed
    assert not res.max_residual <= 1e-10


def test_worst_keeps_a_nan():
    assert verify._worst(np.array([0.0, 1e-12]), np.array([])) == 1e-12
    assert np.isnan(verify._worst(np.array([1e-12, np.nan]), np.array([0.5])))
    assert np.isnan(verify._worst([0.5, np.nan]))


def test_type_i_check_fails_on_a_nan_probability(monkeypatch):
    real = verify.fuse_type_i

    def nan_first(*args, **kwargs):
        outs = real(*args, **kwargs)
        outs[0].probability = float("nan")
        return outs

    monkeypatch.setattr(verify, "fuse_type_i", nan_first)
    res = verify.check_type_i(quick=True)
    assert not res.passed
    assert np.isnan(res.max_residual)


def test_logical_qubit_check_fails_on_two_successes(monkeypatch):
    real = verify.create_logical_qubit

    def two_successes(*args, **kwargs):
        outs = real(*args, **kwargs)
        return outs + outs[:1]

    monkeypatch.setattr(verify, "create_logical_qubit", two_successes)
    res = verify.check_logical_qubit(quick=True)
    assert not res.passed
    assert res.detail.endswith(": 2 successes")
    assert res.name == "logical_qubit" and res.seconds > 0.0


def test_scans_check_fails_on_one_outlier(monkeypatch):
    real = verify.xlike_uniqueness_scan

    def one_outlier(*args, **kwargs):
        out = real(*args, **kwargs)
        out["outliers"].append((0.1, 0.2, 0.3, 0.5))
        out["outlier_count"] += 1
        return out

    monkeypatch.setattr(verify, "xlike_uniqueness_scan", one_outlier)
    res = verify.check_scans(quick=True)
    assert not res.passed
    assert "1 outliers" in res.detail


def test_check_wrapper_keeps_the_body_signature():
    assert verify.check_type_i.__name__ == "check_type_i"
    assert "seed" in inspect.signature(verify.check_type_i.__wrapped__).parameters
    assert "seed" not in inspect.signature(verify.check_scans.__wrapped__).parameters


# float.hex of every check's max_residual under run_all(quick=True), as
# NumPy 2.4 and its bundled OpenBLAS round them on x86-64. A change that
# moves one must re-pin it here and name the stage and the size of the move.
QUICK_RESIDUALS = {
    "type_i_distribution": "0x1.8000000000000p-52",
    "logical_qubit": "0x1.4000000000000p-51",
    "type_ii_failure_split": "0x1.0000000000000p-52",
    "generalized_oracle": "0x1.2000000000000p-50",
    "bell_retention": "0x1.19eb71b0bb8e1p-52",
    "balanced_entropy": "0x1.8000000000000p-51",
    "ghz_generation": "0x1.0000000000000p-50",
    "hyperbola": "0x1.0400000000000p-45",
    "no_good_failure": "0x1.6a09e667f3bcdp-54",
    "appendix_scans": "0x0.0p+0",
}


def test_quick_residuals_are_pinned_bit_for_bit():
    got = {r.name: float.hex(r.max_residual) for r in run_all(quick=True)}
    assert got == QUICK_RESIDUALS


def test_generalized_oracle_builds_one_stack_per_shape_and_side(monkeypatch):
    """The setup builds each chain shape once, as a stack, and makes no
    ChainState: no per-draw make_chain / logical_pair_chain / fusion_context."""
    import wgfusion
    from wgfusion import protocols

    builds = []
    real_build = protocols.build_state

    def counting_build(graph, weights=None):
        builds.append((graph.vertices, weights is None))
        return real_build(graph, weights)

    for module in vars(wgfusion).values():
        if getattr(module, "build_state", None) is real_build:
            monkeypatch.setattr(module, "build_state", counting_build)
    chains = []
    real_init = protocols.ChainState.__post_init__

    def counting_init(self):
        chains.append(self.graph.vertices)
        real_init(self)

    monkeypatch.setattr(protocols.ChainState, "__post_init__", counting_init)
    res = verify.check_generalized_oracle(quick=True)
    assert res.passed
    assert sorted(builds) == [(("A", "B", "C", "D"), False), (("v", "b"), False), (("v", "b", "w"), False)]
    assert chains == []

