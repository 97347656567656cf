"""Property tests for the batched Fock layer.

The batched closed form is compared with the independent oracle and with a
per-pattern loop over the scalar closed-form helpers; the stacked det-rho
cores are compared with their one-row calls, and each slice of the
stacked tables (K fusions per call) with the one-fusion wrappers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from wgfusion.analysis import entanglement_report
from wgfusion.errors import DegenerateGramError, InputError
from wgfusion.fock import (
    FusionContext,
    ModeUnitary,
    enumerate_outcomes,
    _oracle_coef,
    enumerate_table,
    oracle_enumerate,
    oracle_table,
    outcome_coeffs,
    pattern_indices,
    reduced_det_rho,
    relevant_norm_sq,
    same_detector_prob,
)
from wgfusion.tolerances import ZERO_PROB_CUTOFF

# (seed, N, left qubits, right qubits, sparse): sparse draws a phased
# permutation matrix, whose patterns are mostly exactly zero
SETUPS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(4, 8),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
)


def _unit(n: int, rng) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _context(rng, left: int, right: int, zero_z: bool = False) -> FusionContext:
    f1 = _unit(1 << left, rng)
    raw = _unit(1 << left, rng)
    f2 = raw - np.vdot(f1, raw) * f1
    f2 /= np.linalg.norm(f2)
    f3 = _unit(1 << right, rng)
    f4 = _unit(1 << right, rng)
    if zero_z:
        f4 = f4 - np.vdot(f3, f4) * f3
        f4 /= np.linalg.norm(f4)
    return FusionContext(f1[None], f2[None], f3[None], f4[None])


def _unitary(rng, n: int, sparse: bool) -> ModeUnitary:
    if sparse:
        m = np.eye(n)[:, rng.permutation(n)] * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    else:
        m = unitary_group.rvs(n, random_state=rng)
    return ModeUnitary(m)


def _setup(seed, n, left, right, sparse) -> tuple[FusionContext, ModeUnitary]:
    rng = np.random.default_rng(seed)
    ctx = _context(rng, left, right)
    return ctx, _unitary(rng, n, sparse)


def _loop_reference(ctx: FusionContext, u: ModeUnitary) -> dict:
    """Pattern -> (p, normalized register vector, m_matrix), one pattern at a time."""
    m, z = u.matrix, complex(ctx.z[0])
    v1, v2, v3, v4 = ctx.f1[0], ctx.f2[0], ctx.f3[0], ctx.f4[0]
    out = {}
    for i in range(u.n):
        for j in range(i, u.n):
            mm = None
            if i == j:
                p = same_detector_prob(m, i, z)
                vec = np.kron(m[0, i] * v1 + m[1, i] * v2, m[2, i] * v3 + m[3, i] * v4)
            else:
                a, b, c, d = outcome_coeffs(m, i, j)
                nsq = relevant_norm_sq(a, b, c, d, z)
                p = nsq / 4.0
                vec = a * np.kron(v1, v3) + b * np.kron(v1, v4) + c * np.kron(v2, v3) + d * np.kron(v2, v4)
                if p > ZERO_PROB_CUTOFF:
                    mm = np.array([[a, b], [c, d]]) / math.sqrt(nsq)
            live = p > ZERO_PROB_CUTOFF
            out[(i, j)] = (p, vec / np.linalg.norm(vec) if live else None, mm)
    return out


@settings(max_examples=60, deadline=None)
@given(SETUPS)
def test_closed_form_oracle_and_loop_agree(setup):
    ctx, u = _setup(*setup)
    ana = enumerate_outcomes(ctx, u)
    orc = oracle_enumerate(ctx, u)
    ref = _loop_reference(ctx, u)
    assert [o.pattern for o in ana] == [o.pattern for o in orc] == list(ref)
    assert sum(o.probability for o in ana) == pytest.approx(1.0, abs=1e-12)
    assert sum(o.probability for o in orc) == pytest.approx(1.0, abs=1e-12)
    for a, o in zip(ana, orc):
        p_ref, vec_ref, mm_ref = ref[a.pattern]
        assert a.kind == o.kind == ("non-relevant" if a.pattern[0] == a.pattern[1] else "relevant")
        assert a.probability == pytest.approx(o.probability, abs=1e-12)
        assert a.probability == pytest.approx(p_ref, abs=1e-12)
        assert (a.register_state is None) == (o.register_state is None) == (vec_ref is None)
        if vec_ref is not None:
            assert abs(np.vdot(a.register_state.amplitudes, o.register_state.amplitudes)) >= 1.0 - 1e-10
            assert abs(np.vdot(a.register_state.amplitudes, vec_ref)) >= 1.0 - 1e-10
        assert (a.m_matrix is None) == (o.m_matrix is None) == (mm_ref is None)
        if mm_ref is not None:
            np.testing.assert_allclose(a.m_matrix, o.m_matrix, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.m_matrix, mm_ref, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(SETUPS)
def test_each_live_register_state_is_the_normalized_table_row(setup):
    """The oracle's register states are its table rows; the closed form's,
    which enumerate_outcomes builds itself, are the same vectors."""
    ctx, u = _setup(*setup)
    nq = ctx.left_qubits + ctx.right_qubits
    closed_probs, _ = enumerate_table(u.matrix[None], ctx)
    probs, rows = oracle_table(u.matrix[None], ctx)
    for table_probs, outs, exact in (
        (closed_probs, enumerate_outcomes(ctx, u), False),
        (probs, oracle_enumerate(ctx, u), True),
    ):
        for p, o in enumerate(outs):
            if not table_probs[0, p] > ZERO_PROB_CUTOFF:
                assert o.register_state is None
                continue
            assert o.register_state.num_qubits == nq
            assert np.linalg.norm(o.register_state.amplitudes) == pytest.approx(1.0, abs=1e-12)
            if exact:
                assert np.array_equal(o.register_state.amplitudes, rows[0, p])
            else:
                assert np.max(np.abs(o.register_state.amplitudes - rows[0, p])) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(SETUPS)
def test_stacked_det_rho_cores_match_scalar_calls(setup):
    ctx, u = _setup(*setup)
    live = [o for o in oracle_enumerate(ctx, u) if o.kind == "relevant" and o.probability > 1e-10]
    if not live:
        return
    z = complex(ctx.z[0])
    rep = entanglement_report(np.stack([o.m_matrix for o in live]), z)
    rows = np.stack([o.register_state.amplitudes for o in live]).reshape(len(live), 1 << ctx.left_qubits, -1)
    dets = reduced_det_rho(rows)
    for k, o in enumerate(live):
        one = entanglement_report(o.m_matrix[None], z)
        assert one.det_rho[0] == pytest.approx(rep.det_rho[k], abs=1e-15)
        assert one.lam[0] == pytest.approx(rep.lam[k], abs=1e-15)
        assert one.norm_sq[0] == pytest.approx(rep.norm_sq[k], abs=1e-15)
        (single,) = reduced_det_rho(rows[k : k + 1])
        assert single == pytest.approx(dets[k], abs=1e-15)
    # and the closed form agrees with the dense oracle, as the verify check requires
    assert np.max(np.abs(rep.det_rho - dets)) < 1e-10


# (seed, K, N, left qubits, right qubits): K fusions sharing N and register
# sizes, each with its own unitary (dense or sparse) and z (random or zero)
STACKS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(4, 8),
    st.integers(1, 3),
    st.integers(1, 3),
)


def _stack(seed, k, n, left, right):
    rng = np.random.default_rng(seed)
    ctxs = [_context(rng, left, right, zero_z=bool(rng.integers(2))) for _ in range(k)]
    us = [_unitary(rng, n, sparse=bool(rng.integers(2))) for _ in range(k)]
    stacked = FusionContext(*map(np.concatenate, zip(*((c.f1, c.f2, c.f3, c.f4) for c in ctxs))))
    return ctxs, us, np.stack([u.matrix for u in us]), stacked


@settings(max_examples=40, deadline=None)
@given(STACKS)
def test_table_slices_equal_the_one_fusion_wrappers(stack):
    ctxs, us, ms, stacked = _stack(*stack)
    closed_probs, closed_coef = enumerate_table(ms, stacked)
    probs, rows = oracle_table(ms, stacked)
    # the closed form holds the oracle's amplitude coefficients
    np.testing.assert_allclose(closed_coef, _oracle_coef(ms), rtol=0, atol=1e-12)
    for k, (ctx, u) in enumerate(zip(ctxs, us)):
        for table_probs, outs in ((closed_probs, enumerate_outcomes(ctx, u)), (probs, oracle_enumerate(ctx, u))):
            assert np.max(np.abs(table_probs[k] - [o.probability for o in outs])) <= 1e-15
            for p, o in enumerate(outs):
                if o.register_state is not None:
                    assert np.max(np.abs(rows[k, p] - o.register_state.amplitudes)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(STACKS)
def test_table_z_is_bit_identical_to_the_context_overlap(stack):
    """enumerate_table reads the stacked context's z = <f4|f3>; on every
    off-diagonal pattern its probabilities are exactly relevant_norm_sq at
    each one-fusion context's z."""
    ctxs, _, ms, stacked = _stack(*stack)
    probs, coef = enumerate_table(ms, stacked)
    z = np.concatenate([ctx.z for ctx in ctxs])
    iu, ju = pattern_indices(ms.shape[-1])
    off = iu != ju
    want = relevant_norm_sq(*np.moveaxis(coef[:, off], -1, 0), z[:, None])
    assert np.array_equal(probs[:, off], want)


@pytest.mark.parametrize("table", [enumerate_table, oracle_table])
@pytest.mark.parametrize("k_us, k_ctx", [(3, 1), (1, 3), (2, 3)])
def test_tables_refuse_a_unitary_stack_of_another_row_count(table, k_us, k_ctx):
    """One unitary per fusion: a one-row context does not broadcast against
    a K-row unitary stack, nor a one-unitary stack against a K-row context."""
    _, _, ms, stacked = _stack(5, 3, 4, 1, 2)
    with pytest.raises(InputError, match=f"^a stack of {k_us} unitaries against a context of {k_ctx} rows$"):
        table(ms[:k_us], stacked.take(np.arange(k_ctx)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_entanglement_stack_per_row_z_equals_scalar_calls(seed, k):
    rng = np.random.default_rng(seed)
    ms = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    z = rng.uniform(0.0, 0.95, k) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, k))
    z[rng.random(k) < 0.3] = 0.0
    stacked = entanglement_report(ms, z)
    for i in range(k):
        single = entanglement_report(ms[i : i + 1], z[i])
        for field in ("det_rho", "lam", "norm_sq", "entropy_bits"):
            assert abs(getattr(stacked, field)[i] - getattr(single, field)[0]) <= 1e-15


def test_entanglement_stack_refuses_one_degenerate_row():
    ms = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    with pytest.raises(DegenerateGramError):
        entanglement_report(ms, np.array([0.2, (1.0 - 1e-13) * 1j, 0.0]))
    with pytest.raises(InputError):
        entanglement_report(ms, np.zeros(2))
