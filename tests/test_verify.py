from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from wgfusion import analysis, fock, verify
from wgfusion.analysis import entanglement_report
from wgfusion.errors import InvalidUnitaryError, NumericalAbortError
from wgfusion.fock import ginibre, haar_stack, outcome_coeffs, pattern_indices
from wgfusion.graphstate import eigvalsh_2x2
from wgfusion.verify import run_all


def test_every_residual_is_a_python_float():
    for r in run_all(quick=True):
        assert type(r.max_residual) is float, f"{r.name}: {type(r.max_residual)}"


def test_worst_keeps_a_nan():
    assert verify._worst(np.array([0.0, 1e-12]), np.array([])) == 1e-12
    assert np.isnan(verify._worst(np.array([1e-12, np.nan]), np.array([0.5])))
    assert np.isnan(verify._worst([0.5, np.nan]))


# One mutant per verify check: a small perturbation above the check's
# tolerance, patched into the names verify reads. Each mutate(monkeypatch)
# installs its mutant and may return after(res), more assertions on the
# failing result.


def _perturbed_oracle_pattern(table_index: int, error: float):
    """A 1e-9 error, or a NaN, in one pattern of one draw of one stacked batch."""

    def mutate(monkeypatch):
        real = verify.enumerate_table
        batches = []

        def perturbed(us, *args):
            out = real(us, *args)
            batches.append(len(us))
            if len(batches) == 3:
                # the batch's last draw, at its most entangled live relevant pattern
                # (det rho is flat to first order in a coefficient near det rho = 0)
                probs, coef = out
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

        def after(res):
            assert len(batches) > 3 and sum(batches) == 100
            assert not res.max_residual <= 1e-10

        return after

    return mutate


def _nan_type_i_probability(monkeypatch):
    real = verify.fuse_type_i

    def nan_first(*args, **kwargs):
        outs = real(*args, **kwargs)
        outs[0].probabilities[0] = float("nan")
        return outs

    monkeypatch.setattr(verify, "fuse_type_i", nan_first)

    def after(res):
        assert np.isnan(res.max_residual)

    return after


def _two_successes(monkeypatch):
    real = verify.create_logical_qubit

    def two_successes(*args, **kwargs):
        outs = real(*args, **kwargs)
        return outs + outs[:1]

    monkeypatch.setattr(verify, "create_logical_qubit", two_successes)

    def after(res):
        assert res.detail.endswith(": 2 successes")
        assert res.name == "logical_qubit" and res.seconds > 0.0

    return after


def _shifted_rez_formula(monkeypatch):
    real = verify.rez_formula

    def shifted(chi_bf, chi_bf2):
        # one call over every drawn chain: a (K,) Re z array
        rez = real(chi_bf, chi_bf2)
        assert rez.shape == np.shape(chi_bf)
        return rez + 1e-8

    monkeypatch.setattr(verify, "rez_formula", shifted)

    def after(res):
        assert res.max_residual > 1e-9

    return after


def _scaled_norm_sq(monkeypatch):
    real = verify.relevant_norm_sq
    monkeypatch.setattr(verify, "relevant_norm_sq", lambda *args: real(*args) * (1.0 + 1e-8))


def _shifted_ghz_target(monkeypatch):
    real = verify.ghz_pair_for_target_stack

    def shifted(chi1, chi2, targets):
        return real(chi1, chi2, np.asarray(targets) + 1e-6)

    monkeypatch.setattr(verify, "ghz_pair_for_target_stack", shifted)


def _flipped_ghz_complement(monkeypatch):
    # the complement ket (B, A) in place of (B, -A): no longer orthogonal to the
    # projection ket, yet at chi1 = chi2 = pi, where the middle qubit is
    # maximally mixed, both outcomes still sum to 1 and match the pair
    from wgfusion import protocols

    real = protocols.ghz_pair_projection

    def flipped(*args):
        kets, phis = real(*args)
        kets[:, 1, 1] *= -1.0
        return kets, phis

    monkeypatch.setattr(protocols, "ghz_pair_projection", flipped)

    def after(res):
        assert res.max_residual > 0.5

    return after


def _perturbed_hyperbola_projection(monkeypatch):
    real = verify.hyperbola_projection

    def perturbed(*args):
        # one call over every draw: B of every (K, 2, 2) row moved by 1e-8
        coefs = real(*args)
        coefs[:, 0, 1] += 1e-8
        return coefs

    monkeypatch.setattr(verify, "hyperbola_projection", perturbed)


def _off_constraint_unitaries(monkeypatch):
    # row 3 of every constrained unitary moved by 1e-11: still unitary and
    # still meeting the premise within their tolerances (1e-10), but the
    # relevant dets move by about 1e-11, above NO_GOOD_DET_TOL
    real = verify._constrained_stack

    def shifted(*args):
        us = real(*args)
        us[:, 2] += 1e-11
        return us

    monkeypatch.setattr(verify, "_constrained_stack", shifted)


def _wrong_radical(rho):
    """eigvalsh_2x2 with the sign of the radical flipped in the larger root:
    both roots tr/2 - hypot((rho00 - rho11)/2, |rho01|)."""
    low = eigvalsh_2x2(rho)[..., 0]
    return np.stack([low, low], axis=-1)


def _wrong_radical_in_the_oracle(monkeypatch):
    # the Fock oracle's det rho alone: the closed form's own dense cross-check
    # (entanglement_report) keeps the right solver, so the check runs to its
    # comparison and must fail there, not abort
    monkeypatch.setattr(fock, "eigvalsh_2x2", _wrong_radical)

    def after(res):
        assert res.max_residual > 1e-6

    return after


def _one_scan_outlier(monkeypatch):
    real = verify.xlike_uniqueness_scan

    def one_outlier(*args, **kwargs):
        out = real(*args, **kwargs)
        out["outliers"].append((0.1, 0.2, 0.3, 0.5))
        out["outlier_count"] += 1
        return out

    monkeypatch.setattr(verify, "xlike_uniqueness_scan", one_outlier)

    def after(res):
        assert "1 outliers" in res.detail

    return after


MUTANTS = [
    pytest.param("check_type_i", _nan_type_i_probability, id="type_i_distribution"),
    pytest.param("check_logical_qubit", _two_successes, id="logical_qubit"),
    pytest.param("check_type_ii_failures", _shifted_rez_formula, id="type_ii_failure_split"),
    *(
        pytest.param(
            "check_generalized_oracle", _perturbed_oracle_pattern(*args), id=f"generalized_oracle-{name}"
        )
        for name, args in (
            ("probability", (0, 1e-9)),
            ("det_rho_coefficient", (1, 1e-9)),
            ("nan_probability", (0, float("nan"))),
        )
    ),
    pytest.param("check_generalized_oracle", _wrong_radical_in_the_oracle, id="generalized_oracle-eigen_radical"),
    pytest.param("check_bell_retention", _scaled_norm_sq, id="bell_retention"),
    pytest.param("check_balanced_entropy", _scaled_norm_sq, id="balanced_entropy"),
    pytest.param("check_ghz_generation", _shifted_ghz_target, id="ghz_generation"),
    pytest.param("check_ghz_generation", _flipped_ghz_complement, id="ghz_generation-complement_sign"),
    pytest.param("check_hyperbola", _perturbed_hyperbola_projection, id="hyperbola"),
    pytest.param("check_no_good_failure_theorem", _off_constraint_unitaries, id="no_good_failure"),
    pytest.param("check_scans", _one_scan_outlier, id="appendix_scans"),
]


@pytest.mark.parametrize("check, mutate", MUTANTS)
def test_each_check_fails_on_its_mutant(monkeypatch, check, mutate):
    after = mutate(monkeypatch)
    res = getattr(verify, check)(quick=True)
    assert not res.passed
    if after is not None:
        after(res)


def test_a_wrong_radical_makes_the_closed_form_abort(monkeypatch):
    # the same mutant in entanglement_report's dense cross-check: every
    # entangled row's eigenvalues go wrong, and the report refuses the stack
    _, _, ms, z = verify._balanced_draws(np.random.default_rng(5), 20)
    ms, z = ms.reshape(-1, 2, 2), np.repeat(z, ms.shape[1])
    live = np.abs(ms).sum(axis=(1, 2)) > 1e-6
    assert entanglement_report(ms[live], z[live]).det_rho.max() > 0.1
    monkeypatch.setattr(analysis, "eigvalsh_2x2", _wrong_radical)
    with pytest.raises(NumericalAbortError, match="dense oracle"):
        entanglement_report(ms[live], z[live])
    with pytest.raises(NumericalAbortError):
        verify.check_balanced_entropy(quick=True)


def test_a_nan_in_the_dense_rho_aborts(monkeypatch):
    _, _, ms, z = verify._balanced_draws(np.random.default_rng(5), 4)
    ms = ms[:, 0]

    def nan_entry(rho):
        rho = rho.copy()
        rho[-1, 0, 1] = complex(math.nan, 0.0)
        return eigvalsh_2x2(rho)

    monkeypatch.setattr(analysis, "eigvalsh_2x2", nan_entry)
    with pytest.raises(NumericalAbortError, match="nan"):
        entanglement_report(ms, z)


def test_every_check_has_a_mutant():
    assert {p.values[0] for p in MUTANTS} == {fn.__name__ for fn in verify.ALL_CHECKS}


def test_check_wrapper_keeps_the_body_signature():
    assert verify.check_type_i.__name__ == "check_type_i"
    assert "seed" in inspect.signature(verify.check_type_i.__wrapped__).parameters
    assert "seed" not in inspect.signature(verify.check_scans.__wrapped__).parameters


# float.hex of every check's max_residual under run_all(quick=True), as
# NumPy 2.4 and its bundled OpenBLAS round them on x86-64. A change that
# moves one must re-pin it here and name the stage and the size of the move.
# hyperbola: its xi residual, now formed as 2 arg(1 + w) - arg(w)
# (analysis.xi_family_arg) instead of arg(2 + w + 1/w), which cancels near
# w = -1, went from 0x1.04p-45 (2.9e-14) to 0x1.c0p-48 (6.2e-15).
QUICK_RESIDUALS = {
    "type_i_distribution": "0x1.8000000000000p-52",
    "logical_qubit": "0x1.4000000000000p-51",
    "type_ii_failure_split": "0x1.0000000000000p-52",
    "generalized_oracle": "0x1.2000000000000p-50",
    "bell_retention": "0x1.19eb71b0bb8e1p-52",
    "balanced_entropy": "0x1.8000000000000p-51",
    "ghz_generation": "0x1.0000000000000p-50",
    "hyperbola": "0x1.c000000000000p-48",
    "no_good_failure": "0x1.6a09e667f3bcdp-54",
    "appendix_scans": "0x0.0p+0",
}


def test_quick_residuals_are_pinned_bit_for_bit():
    got = {r.name: float.hex(r.max_residual) for r in run_all(quick=True)}
    assert got == QUICK_RESIDUALS


def test_generalized_oracle_builds_one_stack_per_shape_and_side(monkeypatch):
    """The setup builds each chain shape once, as a stack, and makes no
    ChainState: no per-draw make_chain / logical_pair_stack / fusion_context_rows."""
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



# The random unitary ensembles are drawn per draw and built per stack. The
# references below are the per-draw builders the stacked ones replaced; each
# stacked unitary must equal its reference bit for bit.


def _balanced_reference(rng: np.random.Generator) -> np.ndarray:
    v1, v2, w = (haar_stack(ginibre(2, rng))[0] for _ in range(3))
    u = np.block([[v1, v2], [v1, -v2]]) / math.sqrt(2.0)
    u[2:, :] = w @ u[2:, :]
    u = u * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))[None, :]
    return u[:, rng.permutation(4)]


def _constrained_reference(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(4, 9))

    def unit2() -> np.ndarray:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    def perp(v: np.ndarray) -> np.ndarray:
        return np.array([-np.conj(v[1]), np.conj(v[0])])

    p, q = unit2(), unit2()
    t = rng.uniform(0.0, 2.0 * math.pi)
    g = np.zeros((4, 4), dtype=complex)
    g[:2, 0], g[2:, 0] = math.cos(t) * p, math.sin(t) * q
    g[:2, 1] = perp(p)
    g[2:, 2] = perp(q)
    g[:2, 3], g[2:, 3] = -math.sin(t) * p, math.cos(t) * q
    u = np.eye(n, dtype=complex)
    u[:4, :4] = g
    u = u * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))[None, :]
    return u[:, rng.permutation(n)]


@pytest.mark.parametrize("seed", [0, 19, 23, 2024])
def test_balanced_ensemble_equals_the_per_draw_reference(seed):
    draws = 80
    us, coeffs, ms, z = verify._balanced_draws(np.random.default_rng(seed), draws)
    rng = np.random.default_rng(seed)
    refs, ref_z = [], []
    for _ in range(draws):
        refs.append(_balanced_reference(rng))
        ref_z.append(rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    assert np.array_equal(us, np.stack(refs))
    ref_coeffs = outcome_coeffs(np.stack(refs), *pattern_indices(4, 1))
    assert all(np.array_equal(a, b) for a, b in zip(coeffs, ref_coeffs))
    assert np.array_equal(ms, np.stack(ref_coeffs, axis=-1).reshape(draws, -1, 2, 2))
    assert np.array_equal(z, ref_z)


@pytest.mark.parametrize("seed", [0, 31, 77, 2024])
def test_constrained_ensemble_equals_the_per_draw_reference(seed, monkeypatch):
    stacks = []
    real = verify.check_no_good_failure_stack

    def recording(us):
        stacks.append(us.copy())
        return real(us)

    monkeypatch.setattr(verify, "check_no_good_failure_stack", recording)
    assert verify.check_no_good_failure_theorem(seed=seed).passed
    rng = np.random.default_rng(seed)
    refs = [_constrained_reference(rng) for _ in range(200)]
    assert sorted(len(x) for x in stacks) == sorted(np.unique([len(u) for u in refs], return_counts=True)[1])
    for stack in stacks:
        same_n = [u for u in refs if len(u) == stack.shape[-1]]
        assert len(same_n) == len(stack)
        assert all(np.array_equal(a, b) for a, b in zip(stack, same_n))


def test_cheaper_draws_consume_the_stream_as_the_old_ones():
    # the draw loops take signs as SIGNS[rng.integers(0, 2, k)] and coins as
    # rng.random(); the seeded ensembles stay the rng.choice([-1.0, 1.0], k)
    # and rng.uniform() ones only while both read the same numbers from the
    # stream and leave it at the same place
    for seed in range(40):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (None, 1, 2, 3, 17):
            if k is None:
                assert float(a.choice([-1.0, 1.0])) == float(verify.SIGNS[b.integers(0, 2)])
            else:
                assert np.array_equal(a.choice([-1.0, 1.0], k), verify.SIGNS[b.integers(0, 2, k)])
            assert a.uniform() == b.random()
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize(
    "check, draws, sizes",
    [
        (verify.check_generalized_oracle, 100, 5),
        (verify.check_bell_retention, 50, 1),
        (verify.check_balanced_entropy, 50, 1),
        (verify.check_no_good_failure_theorem, 50, 5),
    ],
    ids=["generalized_oracle", "bell_retention", "balanced_entropy", "no_good_failure"],
)
def test_every_drawn_unitary_is_checked_once_per_stack(monkeypatch, check, draws, sizes):
    checked = []
    real = verify.check_unitary_rows

    def recording(us):
        checked.append(len(us))
        real(us)

    monkeypatch.setattr(verify, "check_unitary_rows", recording)
    assert check(quick=True).passed
    assert sum(checked) == draws and len(checked) == sizes

    def corrupted(us):
        us = us.copy()
        us[-1, 0, 0] += 1e-9
        real(us)

    monkeypatch.setattr(verify, "check_unitary_rows", corrupted)
    with pytest.raises(InvalidUnitaryError, match="fails U U"):
        check(quick=True)
