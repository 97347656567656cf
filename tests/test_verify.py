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
        return out

    monkeypatch.setattr(verify, "xlike_uniqueness_scan", one_outlier)
    res = verify.check_scans(quick=True)
    assert not res.passed
    assert "1 outliers" in res.detail


def test_check_wrapper_keeps_the_body_signature():
    assert verify.check_type_i.__name__ == "check_type_i"
    assert "seed" in inspect.signature(verify.check_type_i.__wrapped__).parameters
    assert "seed" not in inspect.signature(verify.check_scans.__wrapped__).parameters
