from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import unitary_group

from wgfusion.analysis import (
    SCAN_OUTLIER_CAP,
    TwoQubitProjection,
    check_no_good_failure_stack,
    classify_projection,
    entanglement_report,
    hyperbola_projection,
    inner_z,
    max_entangled_conditions_residual,
    max_entangled_family,
    pair_weight_from_projection,
    resulting_weight,
    solve_xi_for_weight,
    tef_unitarity,
    xlike_uniqueness_scan,
    ylike_impossibility_scan,
)
from wgfusion.errors import (
    BadSeedError,
    ConvergenceFailureError,
    DegenerateArgumentError,
    DegenerateGramError,
    InputError,
    NumericalAbortError,
)
from wgfusion.fock import (
    ModeUnitary,
    outcome_coeffs,
    same_detector_prob,
    type_i_matrix,
    type_ii_matrix,
)
from wgfusion.graphstate import WeightedGraph, build_state, chain_graph, wrap_angle
from wgfusion.protocols import rez_formula
from wgfusion.tolerances import INVERSION_TOL
from wgfusion import verify

RNG = np.random.default_rng(17)
ISQ2 = 1.0 / math.sqrt(2.0)


def _rand_proj(rng) -> TwoQubitProjection:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return TwoQubitProjection(*v)


# ------------------------------------------------------------- inner_z


def test_inner_z_examples():
    assert inner_z(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert inner_z(0.0) == pytest.approx(1.0, abs=1e-15)
    assert inner_z(math.pi / 2, math.pi / 2) == pytest.approx(0.5j, abs=1e-15)


def test_inner_z_keeps_the_two_neighbour_closed_form():
    rng = np.random.default_rng(3)
    for c1, c2 in rng.uniform(-math.pi, math.pi, (2000, 2)):
        two = (1.0 + cmath.exp(1j * c1)) * (1.0 + cmath.exp(1j * c2)) / 4.0
        assert inner_z(c1, c2) == two
        assert inner_z(c1) == inner_z(c1, 0.0)


@pytest.mark.parametrize(
    "chis", [(), (0.7,), (0.7, -1.9), (0.7, -1.9, math.pi), (0.3, 1.2, -2.2, 2.9)]
)
def test_inner_z_is_the_dense_branch_overlap_for_any_degree(chis):
    # b joined to one leaf per weight: z = <f4|f3> of b's two branches
    labels = ["b"] + [f"n{k}" for k in range(len(chis))]
    g = WeightedGraph(tuple(labels), tuple(("b", v, c) for v, c in zip(labels[1:], chis)))
    branches = build_state(g).reshaped().reshape(2, -1) * math.sqrt(2.0)
    assert abs(inner_z(*chis) - np.vdot(branches[1], branches[0])) < 1e-14


# ------------------------------------------------- entanglement report


def test_report_bell_and_rank1():
    bell = np.eye(2) / math.sqrt(2.0)
    flat = np.full((2, 2), 0.5)
    r = entanglement_report(np.stack([bell, flat]), 0.0)
    assert r.det_rho == pytest.approx([0.25, 0.0], abs=1e-12)
    assert r.entropy_bits == pytest.approx([1.0, 0.0], abs=1e-12)


def test_report_degenerate_gram_rejected():
    with pytest.raises(DegenerateGramError):
        entanglement_report(np.eye(2)[None] / math.sqrt(2.0), 1.0)


def ref_entropy_bits(lam: float) -> float:
    """-lam log2 lam - (1-lam) log2(1-lam), 0 log 0 = 0, one float at a time."""
    return -sum(p * math.log2(p) for p in (lam, 1.0 - lam) if p > 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
@example(seed=39607182, k=5)  # a scalar z once squared |z| 1 ulp off the (K,) path
def test_report_rows_are_one_row_calls_and_the_scalar_entropy(seed, k):
    # K random matrices plus a product (lam = 1, 0 bits) and a Bell matrix (1 bit)
    rng = np.random.default_rng(seed)
    ms = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    ms = np.concatenate([ms, [np.full((2, 2), 0.5), np.eye(2) / math.sqrt(2.0)]])
    z = rng.uniform(0.0, 0.95, k + 2) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, k + 2))
    z[rng.random(k + 2) < 0.3] = 0.0
    z[-2:] = 0.0
    rep = entanglement_report(ms, z)
    for i in range(k + 2):
        one = entanglement_report(ms[i : i + 1], z[i])
        for field in ("det_rho", "lam", "norm_sq"):
            assert float.hex(float(getattr(rep, field)[i])) == float.hex(float(getattr(one, field)[0]))
        assert abs(rep.entropy_bits[i] - ref_entropy_bits(float(rep.lam[i]))) <= 1e-15
    assert rep.lam[-2] == 1.0 and rep.entropy_bits[-2] == 0.0
    assert abs(rep.entropy_bits[-1] - 1.0) <= 1e-15


def test_report_left_phase_invariance():
    # multiplying rows by phases changes neither probability nor entropy
    for k in range(10):
        rng = np.random.default_rng(200 + k)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = 0.3 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        ph = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))
        r = entanglement_report(np.stack([m, ph @ m]), z)
        assert r.det_rho[1] == pytest.approx(r.det_rho[0], abs=1e-12)
        assert r.norm_sq[1] == pytest.approx(r.norm_sq[0], abs=1e-12)


def test_report_z_zero_reduces_to_plain_norm():
    m = np.array([[0.3, 0.5j], [-0.4, 0.2 + 0.1j]])
    r = entanglement_report(m[None], 0.0)
    nsq = float(np.sum(np.abs(m) ** 2))
    assert r.norm_sq[0] == pytest.approx(nsq, abs=1e-14)
    assert r.det_rho[0] == pytest.approx(
        abs(np.linalg.det(m)) ** 2 / nsq**2, abs=1e-14
    )


# --------------------------------------------------- resulting weight


def test_resulting_weight_fused_case():
    # B = C = 0 leaves the b-f weight on the new e-f edge (conjugated pair)
    p = TwoQubitProjection(ISQ2, 0.0, 0.0, ISQ2)
    assert resulting_weight(p, 1.3) == pytest.approx(-1.3, abs=1e-12)


def test_resulting_weight_degenerate_argument():
    p = TwoQubitProjection(0.5, -0.5, 0.5, 0.5)
    with pytest.raises(DegenerateArgumentError):
        resulting_weight(p, 1.0)  # A + B = 0


def test_resulting_weight_two_angle_family():
    # (A,B) = e^{i t1}(cos f1, i sin f1)/sqrt2, (C,D) = e^{i t2}(i sin f2, cos f2)/sqrt2
    # at chi_bf = pi produces chi = 2(f1 - f2) + pi
    for (f1, f2, t1, t2) in ((0.3, 0.9, 0.2, -1.1), (-0.7, 0.25, 1.9, 0.4)):
        p = TwoQubitProjection(
            cmath.exp(1j * t1) * math.cos(f1) * ISQ2,
            cmath.exp(1j * t1) * 1j * math.sin(f1) * ISQ2,
            cmath.exp(1j * t2) * 1j * math.sin(f2) * ISQ2,
            cmath.exp(1j * t2) * math.cos(f2) * ISQ2,
        )
        assert tef_unitarity(p.a, p.b, p.c, p.d, math.pi)
        expect = wrap_angle(2.0 * (f1 - f2) + math.pi)
        assert resulting_weight(p, math.pi) == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------ tef unitarity


def test_tef_unitarity_examples():
    assert tef_unitarity(ISQ2, 0.0, 0.0, ISQ2, 0.9)
    assert not tef_unitarity(0.9, 0.1, 0.1, 0.4, 0.9)
    with pytest.raises(DegenerateArgumentError):
        tef_unitarity(ISQ2, 0.0, 0.0, ISQ2, 0.0)


def test_tef_dual_formulations_agree_on_random_samples():
    # direct magnitude test and argument/magnitude form must never disagree
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(20000):
        p = _rand_proj(rng)
        chi = rng.uniform(-math.pi, math.pi)
        if abs(chi) < 1e-6:
            continue
        if tef_unitarity(p.a, p.b, p.c, p.d, chi):  # raises on disagreement
            hits += 1
    assert hits < 50  # random points almost never satisfy the conditions


def test_tef_unitarity_on_solution_family():
    rng = np.random.default_rng(5)
    for _ in range(50):
        chi = rng.uniform(0.1, math.pi - 0.1) * rng.choice([-1, 1])
        xi = rng.choice([-1, 1]) * math.exp(rng.uniform(-2, 2))
        p = hyperbola_projection(chi, xi, rng.uniform(0.2, 0.9))
        assert tef_unitarity(p.a, p.b, p.c, p.d, chi)


@pytest.mark.parametrize("eps", [1e-9, 1e-7])
def test_tef_near_solution_band_does_not_raise(eps):
    # a perturbed xi-family point falls between the two formulations'
    # tolerances: the direct verdict stands, classification goes on
    p = hyperbola_projection(1.0, 0.7)
    q = TwoQubitProjection(p.a, p.b, p.c, p.d * (1.0 + eps))
    assert not tef_unitarity(q.a, q.b, q.c, q.d, 1.0)
    assert classify_projection(q, 1.0).tag != "weighted_graph_new_weight"


def test_entanglement_stack_aborts_on_nan():
    # a NaN entry makes N^2 NaN, which fails the vanishing-norm guard itself
    # instead of reaching the dense oracle's NumericalAbortError
    ms = np.array([[[math.nan, 1.0], [1.0, 1.0]]], dtype=complex)
    with pytest.raises(DegenerateArgumentError), np.errstate(invalid="ignore"):
        entanglement_report(ms, 0.3)


@pytest.mark.parametrize("z", [math.nan, complex(0.2, math.nan)])
def test_gram_guards_reject_a_nan_overlap(z):
    with pytest.raises(DegenerateGramError):
        entanglement_report(np.eye(2, dtype=complex)[None] / math.sqrt(2.0), z)
    with pytest.raises(DegenerateGramError):
        max_entangled_family(np.eye(2) / math.sqrt(2.0), z)


def test_projection_rejects_a_nan_coefficient():
    # and an infinite one, which classify_projection would otherwise tag "other"
    bad = (math.nan, complex(0.3, math.nan), math.inf, -math.inf, complex(0.3, math.inf))
    for coef in bad:
        with pytest.raises(InputError):
            TwoQubitProjection(coef, 0.3, 0.2, 0.5)
        with pytest.raises(InputError):
            TwoQubitProjection(0.5, 0.3, 0.2, coef)


@pytest.mark.parametrize("big", [1e200, 1e300, 1e308])
def test_projection_rejects_a_coefficient_whose_square_overflows(big):
    # finite coefficients whose squares (at 1e308 also |x| of the complex one)
    # overflow: InputError, not OverflowError
    for coef in (big, -big, complex(big, big), complex(0.3, -big)):
        with pytest.raises(InputError):
            TwoQubitProjection(coef, 0.3, 0.2, 0.5)
        with pytest.raises(InputError):
            TwoQubitProjection(0.5, 0.3, 0.2, coef)
        # the one-qubit bra of the GHZ pair weight goes through the same sum
        with pytest.raises(InputError, match="must be 1"):
            pair_weight_from_projection(coef, 0.5, 1.0, 1.0)
        with pytest.raises(InputError, match="must be 1"):
            pair_weight_from_projection(0.5, coef, 1.0, 1.0)


@pytest.mark.parametrize("count", [0, 3, -1])
def test_classify_refuses_a_neighbor_count_other_than_1_or_2(count):
    # before the refusal these classified silently, a third neighbour's
    # weight never read
    p = TwoQubitProjection(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(InputError, match=f"neighbor_count must be 1 or 2, got {count}$"):
        classify_projection(p, 0.7, count, 0.3)


def test_projection_sums_its_norm_once(monkeypatch):
    import wgfusion.analysis as analysis

    calls = []
    real = analysis._sum_abs_sq
    monkeypatch.setattr(analysis, "_sum_abs_sq", lambda *c: calls.append(c) or real(*c))
    p = TwoQubitProjection(0.6, 0.0, 0.0, 0.6j)
    assert classify_projection(p, 0.7).tag == "fused_weighted_graph"
    assert p.norm_sq == real(0.6, 0.0, 0.0, 0.6j) and len(calls) == 1
    # a derived field: not an argument, not compared, not shown
    assert p == TwoQubitProjection(0.6, 0.0, 0.0, 0.6j) and "norm_sq" not in repr(p)


def test_tef_disagreement_surfaces_through_classify(monkeypatch):
    import wgfusion.analysis as analysis

    p = hyperbola_projection(1.0, 0.7)  # exact solution: direct test passes
    assert classify_projection(p, 1.0).tag == "weighted_graph_new_weight"
    monkeypatch.setattr(analysis, "_tef_arg_form", lambda *args: False)
    with pytest.raises(NumericalAbortError):
        classify_projection(p, 1.0)


# ------------------------------------------------------ classification


def test_classify_precedence_order():
    chi = 1.1
    fused = classify_projection(TwoQubitProjection(ISQ2, 0, 0, ISQ2 * 1j), chi)
    assert fused.tag == "fused_weighted_graph"

    xi = solve_xi_for_weight(chi, 0.7)
    nw = classify_projection(hyperbola_projection(chi, xi), chi)
    assert nw.tag == "weighted_graph_new_weight"
    assert nw.chi == pytest.approx(0.7, abs=1e-9)

    prod = classify_projection(TwoQubitProjection(0.5, 0.5, 0.5, 0.5), chi)
    assert prod.tag == "product"


def test_classify_maximally_entangled_family():
    chi = 0.8
    z = inner_z(chi)
    seed = unitary_group.rvs(2, random_state=12) / math.sqrt(2.0)
    p = max_entangled_family(seed, z)
    out = classify_projection(p, chi)
    assert out.tag in ("maximally_entangled", "weighted_graph_new_weight")
    # the family satisfies the closed-form conditions exactly
    assert max_entangled_conditions_residual(p, z) < 1e-12


def test_maximal_entanglement_does_not_imply_fused():
    # an X-like maximally entangled projection that is not of the fused form:
    # A, D = cos(f)/sqrt2 and B, C = i sin(f)/sqrt2 give a maximally
    # entangled outcome at z = 0 for every f, yet B, C != 0
    f = 0.6
    p = TwoQubitProjection(
        math.cos(f) * ISQ2, 1j * math.sin(f) * ISQ2,
        1j * math.sin(f) * ISQ2, math.cos(f) * ISQ2,
    )
    r = entanglement_report(p.matrix[None], 0.0)
    assert r.det_rho[0] == pytest.approx(0.25, abs=1e-12)
    out = classify_projection(p, math.pi)  # chi_bf = pi gives z = 0
    assert out.tag != "fused_weighted_graph"


# ----------------------------------------------------------- xi family


def test_solve_xi_random_targets():
    rng = np.random.default_rng(31)
    for _ in range(100):
        chi = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1, 1])
        target = rng.uniform(-math.pi, math.pi)
        xi = solve_xi_for_weight(chi, target)
        p = hyperbola_projection(chi, xi)
        assert resulting_weight(p, chi) == pytest.approx(
            wrap_angle(target), abs=1e-9
        )


def _xi_pairs(n: int, seed: int) -> list[tuple[float, float]]:
    """Seeded (chi_bf, chi_target) pairs plus targets near 0, whose root is |xi| ~ 1."""
    rng = np.random.default_rng(seed)
    pairs = [
        (float(rng.uniform(0.05, math.pi - 0.05)) * float(rng.choice([-1.0, 1.0])),
         float(rng.uniform(-math.pi, math.pi)))
        for _ in range(n)
    ]
    for chi in (0.3, 1.1, -2.3, 3.0):
        pairs += [(chi, t) for t in (0.0, 1e-14, -1e-12, 1e-9, -1e-6, 1e-3)]
    return pairs


def _brentq_xi(chi_bf: float, chi_target: float) -> float | None:
    """Reference xi: a real root of f(s) = arg(2 + w + 1/w) - h, w = +-e^s e^{i chi_bf/2},
    found by SciPy's brentq on the bracket s in [-36, 36], branch xi < 0 first and
    then h = half, half - pi, half + pi (half = chi_target/2), kept if its residual
    |2 arg(2 + w + 1/w) - chi_target| is below INVERSION_TOL; None if no bracket
    gives one. This is the bisection the closed-form solver replaced."""
    half = wrap_angle(chi_target) / 2.0
    for sign in (-1.0, 1.0):
        for h in (half, half - math.pi, half + math.pi):

            def f(s: float, sign=sign, h=h) -> float:
                w = sign * math.exp(s) * cmath.exp(1j * chi_bf / 2.0)
                return cmath.phase(2.0 + w + 1.0 / w) - h

            flo, fhi = f(-36.0), f(36.0)
            if flo == 0.0:
                return sign * math.exp(-36.0)
            if flo * fhi > 0.0:
                continue
            xi = sign * math.exp(brentq(f, -36.0, 36.0, xtol=1e-15, rtol=8.9e-16))
            if _direct_residual(xi, chi_bf, chi_target) < INVERSION_TOL:
                return xi
    return None


def _direct_residual(xi: float, chi_bf: float, chi_target: float) -> float:
    """|2 arg(2 + w + 1/w) - chi_target|, wrapped, with 2 + w + 1/w formed as written."""
    w = xi * cmath.exp(1j * chi_bf / 2.0)
    return abs(wrap_angle(2.0 * cmath.phase(2.0 + w + 1.0 / w) - chi_target))


def _closed_form_roots(chi_bf: float, chi_target: float) -> tuple[float, float]:
    """xi = sin b / sin(theta - b) for b = beta, beta + pi/2."""
    theta = chi_bf / 2.0
    beta = (wrap_angle(chi_target) / 2.0 + theta) / 2.0
    return tuple(math.sin(b) / math.sin(theta - b) for b in (beta, beta + math.pi / 2.0))


def test_solve_xi_matches_brentq():
    # one closed-form root is xi = 0, the limit w -> 0, at chi_target = -chi_bf
    # (mod 2 pi); for chi_bf < -pi the other root is positive and must win
    zero_root = [(chi, -chi) for chi in (0.3, 1.1, -2.3)]
    zero_root += [(chi, -chi - 2.0 * math.pi) for chi in (-4.0, -4.5)]
    pairs = _xi_pairs(3000, seed=41) + zero_root
    ours = solve_xi_for_weight(*np.array(pairs).T)
    ref = np.array([_brentq_xi(c, t) for c, t in pairs])
    assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-12
    assert np.min(np.abs(np.log(np.abs(ours)))) < 1e-9  # some roots sit at log|xi| ~ 0
    for xi, (chi, target) in zip(ours.tolist(), pairs):
        assert _direct_residual(xi, chi, target) < INVERSION_TOL


def test_solve_xi_picks_the_root_the_reference_picks():
    # both roots are negative in about half the draws; the choice is the
    # reference's: xi < 0 first, then arg(2 + w + 1/w) = chi_target/2 itself
    pairs = _xi_pairs(3000, seed=41)
    ours = solve_xi_for_weight(*np.array(pairs).T).tolist()
    both_negative = 0
    for xi, (chi, target) in zip(ours, pairs):
        roots = _closed_form_roots(chi, target)
        assert xi in roots and xi < 0.0
        other = roots[1] if xi == roots[0] else roots[0]
        ref = _brentq_xi(chi, target)
        assert abs(xi - ref) < abs(other - ref)
        both_negative += other < 0.0
    assert 0.3 * len(pairs) < both_negative < 0.7 * len(pairs)


def test_both_closed_form_roots_solve_the_equation():
    for chi, target in _xi_pairs(3000, seed=41):
        for xi in _closed_form_roots(chi, target):
            assert _direct_residual(xi, chi, target) < INVERSION_TOL


def test_solve_xi_rows_match_one_row_calls_bit_for_bit():
    pairs = np.array(_xi_pairs(400, seed=43) + [(1e-5, 2.0), (-3e-4, -2.5), (2e-3, 0.4)])
    stacked = solve_xi_for_weight(pairs[:, 0], pairs[:, 1])
    rows = np.concatenate([solve_xi_for_weight(c[None], t[None]) for c, t in pairs])
    scalars = np.array([solve_xi_for_weight(float(c), float(t)) for c, t in pairs])
    assert stacked.shape == (len(pairs),)
    assert stacked.tobytes() == rows.tobytes() == scalars.tobytes()


def test_solve_xi_returns_a_float_for_scalars():
    xi = solve_xi_for_weight(1.3, -0.9)
    assert type(xi) is float
    one_row = solve_xi_for_weight([1.3], [-0.9])
    assert isinstance(one_row, np.ndarray) and one_row.shape == (1,) and one_row[0] == xi


def test_solve_xi_refuses_when_neither_root_passes():
    # at |chi_bf| = 1e-9 no double xi puts the residual below INVERSION_TOL
    with pytest.raises(ConvergenceFailureError):
        solve_xi_for_weight(1e-9, 2.0)
    with pytest.raises(ConvergenceFailureError, match="chi_bf 1e-09"):
        solve_xi_for_weight([1.3, 1e-9, 0.4], [-0.9, 2.0, 1.0])


def _accurate_residual(xi: float, chi_bf: float, chi_target: float) -> float:
    """The solver's residual form: |4 arg(1 + w) - chi_bf - chi_target| (mod 2 pi)
    with Re(1 + w) = (1 + xi) - 2 xi sin^2(chi_bf/4), which does not cancel near w = -1."""
    s = math.sin(chi_bf / 4.0)
    arg = math.atan2(xi * math.sin(chi_bf / 2.0), 1.0 + xi - 2.0 * xi * s * s)
    return abs(wrap_angle(4.0 * arg - chi_bf - chi_target))


# Draws of the seeded small-|chi_bf| test that the brentq reference answers
# and the closed form refuses. The reference root of each fails the
# cancellation-free residual: 2 + w + 1/w cancels near w = -1, so the
# reference's own residual check passes a wrong root there.
SMALL_CHI_REFUSED = 4


def test_solve_xi_near_zero_weight_against_brentq():
    # |chi_bf| log-uniform over [1e-7, 1e-3), where w ~ -1: every answer meets
    # INVERSION_TOL by the solver's own residual form, and the draws the
    # reference answers but the solver refuses are counted
    rng = np.random.default_rng(47)
    refused = 0
    for _ in range(1000):
        chi = float(np.exp(rng.uniform(math.log(1e-7), math.log(1e-3)))) * float(rng.choice([-1.0, 1.0]))
        target = float(rng.uniform(-math.pi, math.pi))
        try:
            xi = solve_xi_for_weight(chi, target)
        except ConvergenceFailureError:
            ref = _brentq_xi(chi, target)
            if ref is not None:
                refused += 1
                assert _accurate_residual(ref, chi, target) >= INVERSION_TOL
            continue
        assert _accurate_residual(xi, chi, target) < INVERSION_TOL
    assert refused == SMALL_CHI_REFUSED


def test_solve_xi_rejects_zero_weight():
    with pytest.raises(DegenerateArgumentError):
        solve_xi_for_weight(0.0, 1.0)


@pytest.mark.parametrize("args", [(1.0, math.inf), (-math.inf, 1.0)])
def test_solve_xi_refuses_an_infinite_angle(args):
    with pytest.raises(InputError, match="finite"):
        solve_xi_for_weight(*args)


@pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan)])
def test_solve_xi_refuses_a_nan_angle_at_entry(args):
    with pytest.raises(InputError, match="finite"):
        solve_xi_for_weight(*args)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("k", [0, 3, 6])
def test_solve_xi_names_the_nan_row_of_a_stack(which, k):
    # a NaN anywhere is an InputError, not a DegenerateArgumentError or a
    # ConvergenceFailureError, even next to a row that cannot converge
    chis = np.array([[1.3, 0.4, -2.0, 0.7, 1e-9, 2.5, -0.2], [-0.9, 1.0, 0.3, -1.5, 2.0, 0.1, 3.0]])
    chis[which, k] = math.nan
    with pytest.raises(InputError, match=f"finite.*row {k}"):
        solve_xi_for_weight(*chis)


def test_hyperbola_projection_end_to_end():
    # apply the bra to (Bell pair) x (2-chain) and confirm the residual pair
    chi, target = 1.3, -0.9
    xi = solve_xi_for_weight(chi, target)
    p = hyperbola_projection(chi, xi)
    pair = np.zeros(4, dtype=complex)
    pair[0] = pair[3] = ISQ2
    right = build_state(chain_graph(["b", "f"], [chi])).amplitudes
    joint = np.kron(pair, right).reshape(2, 2, 2, 2)
    res = np.einsum("eabf,ab->ef", joint, p.matrix)
    res /= np.linalg.norm(res)
    # Schmidt spectrum matches a weighted pair with |det| = |1-e^{-i target}|/4
    s = np.linalg.svd(res, compute_uv=False)
    assert s[0] * s[1] == pytest.approx(
        abs(1.0 - cmath.exp(-1j * target)) / 4.0, abs=1e-10
    )


# --------------------------------------------- maximally entangled family


def test_family_z_zero_returns_seed():
    seed = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2.0
    p = max_entangled_family(seed, 0.0)
    assert np.allclose(p.matrix, seed, atol=1e-14)


def test_family_bell_seed_nonzero_z():
    seed = np.eye(2) / math.sqrt(2.0)
    p = max_entangled_family(seed, 0.5)
    r = entanglement_report(p.matrix[None], 0.5)
    assert r.det_rho[0] == pytest.approx(0.25, abs=1e-12)
    assert r.entropy_bits[0] == pytest.approx(1.0, abs=1e-12)


def test_family_rejects_bad_seed():
    with pytest.raises(BadSeedError):
        max_entangled_family(np.eye(2), 0.3)
    with pytest.raises(DegenerateGramError):
        max_entangled_family(np.eye(2) / math.sqrt(2.0), 1.0)


# ----------------------------------------------------- no good failure


def _no_good_failure_loop(u):
    """Scalar reference: (live detectors, premise, max relevant |det|)."""
    m = u.matrix
    live = [i for i in range(u.n) if same_detector_prob(m, i, 0.0) > 1e-12]
    premise = all(
        abs(m[2, live[0]] * m[3, j] - m[2, j] * m[3, live[0]]) <= 1e-10 for j in live[1:]
    )
    max_det = 0.0
    for i in range(u.n):
        for j in range(i + 1, u.n):
            a, b, c, d = outcome_coeffs(m, i, j)
            max_det = max(max_det, abs(a * d - b * c))
    return live, premise, max_det


def _constrained_unitary(rng: np.random.Generator) -> ModeUnitary:
    """One draw of verify's constrained ensemble, built as a one-row stack."""
    _, *fields = verify._constrained_draw(rng)
    return ModeUnitary(verify._constrained_stack(*verify._stack_fields([fields]))[0])


def _no_good_failure_ensemble() -> list[ModeUnitary]:
    """Premise-true and premise-false unitaries of several N."""
    rng = np.random.default_rng(11)
    unitaries = [_constrained_unitary(rng) for _ in range(40)]
    unitaries += [ModeUnitary(unitary_group.rvs(n, random_state=rng)) for n in (4, 5, 6, 8)]
    return unitaries + [type_i_matrix(), type_ii_matrix()]


def test_no_good_failure_batch_matches_the_scalar_loop():
    for u in _no_good_failure_ensemble():
        live, premise, max_det = _no_good_failure_loop(u)
        got_live, got_premise, got_det = check_no_good_failure_stack(u.matrix[None])
        assert np.flatnonzero(got_live[0]).tolist() == live
        assert bool(got_premise[0]) == premise
        assert float(got_det[0]) == pytest.approx(max_det, rel=1e-12, abs=1e-15)


def test_no_good_failure_on_fusion_networks():
    # the type-I network meets the premise and its relevant dets vanish; the
    # type-II network violates the premise, so nothing is claimed
    _, premise, max_det = check_no_good_failure_stack(
        np.stack([type_i_matrix().matrix, type_ii_matrix().matrix])
    )
    assert premise.tolist() == [True, False]
    assert max_det[0] < 1e-12


def test_no_good_failure_report_is_the_stacked_row():
    # every field of a stack that mixes premise-true and premise-false
    # unitaries of one N equals the one-row call on that row's unitary
    by_n: dict[int, list[ModeUnitary]] = {}
    for u in _no_good_failure_ensemble():
        by_n.setdefault(u.n, []).append(u)
    assert any(len(us) > 1 for us in by_n.values())
    for us in by_n.values():
        live, premise, max_det = check_no_good_failure_stack(np.stack([u.matrix for u in us]))
        for k, u in enumerate(us):
            one_live, one_premise, one_det = check_no_good_failure_stack(u.matrix[None])
            assert np.array_equal(live[k], one_live[0])
            assert premise[k] == one_premise[0]
            assert float.hex(float(max_det[k])) == float.hex(float(one_det[0]))


def test_no_good_failure_stack_keeps_a_nan():
    us = np.stack([type_i_matrix().matrix] * 3)
    us[1, 0, 2] = np.nan
    live, premise, max_det = check_no_good_failure_stack(us)
    assert np.isnan(max_det[1]) and max_det[0] == max_det[2] < 1e-12
    assert premise[0] and premise[2]


# ------------------------------------------------------ non-finite angles


@pytest.mark.parametrize(
    "call",
    [
        lambda: pair_weight_from_projection(0.6, 0.8, math.nan, 1.0),
        lambda: pair_weight_from_projection(0.6, 0.8, 1.0, -math.inf),
        lambda: inner_z(math.inf),
        lambda: inner_z(0.3, math.nan),
        lambda: rez_formula(math.nan),
        lambda: rez_formula(0.2, math.inf),
        lambda: hyperbola_projection(1.0, 0.0),
        lambda: hyperbola_projection(math.nan, 0.5),
        lambda: hyperbola_projection(1.0, -math.inf),
        lambda: hyperbola_projection(1.0, 0.5, math.inf),
        lambda: hyperbola_projection([1.0, 2.0], [0.5, 0.0], [ISQ2, ISQ2]),
    ],
    ids=[
        "pair_weight_nan",
        "pair_weight_inf",
        "inner_z_inf",
        "inner_z_nan",
        "rez_nan",
        "rez_inf",
        "hyperbola_xi_zero",
        "hyperbola_nan",
        "hyperbola_xi_inf",
        "hyperbola_mag_inf",
        "hyperbola_row_xi_zero",
    ],
)
def test_non_finite_angles_are_refused(call):
    # before the refusal: phi = 0, NaN and NaN+NaNj came back as answers, and
    # xi = 0 raised a bare ZeroDivisionError; each refusal comes before any
    # arithmetic, so no NumPy RuntimeWarning is raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="finite"):
            call()


@pytest.mark.parametrize(
    "call, row",
    [
        (lambda: inner_z(np.array([0.1, 0.2, 0.3]), np.array([0.4, math.nan, math.inf])), 1),
        (lambda: rez_formula(np.array([0.1, 0.2, math.nan]), np.zeros(3)), 2),
        (lambda: hyperbola_projection(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 0.0]), np.ones(3)), 2),
        (lambda: hyperbola_projection(np.array([0.1, 0.2, 0.3]), np.ones(3), np.array([1.0, 0.0, 0.0])), 1),
    ],
    ids=["inner_z", "rez", "hyperbola_xi", "hyperbola_vanishing_norm"],
)
def test_closed_forms_name_their_first_bad_row(call, row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"in row {row}$"):
            call()


def test_finite_angles_keep_their_floats():
    # float.hex pins of finite calls, unchanged by the non-finite refusal
    phi, equal = pair_weight_from_projection(0.6, 0.8, 0.7, -2.1)
    assert (float.hex(phi), equal) == ("0x1.b6b7e4e3726d3p-2", False)
    z = inner_z(0.7, -2.1)
    assert (float.hex(z.real), float.hex(z.imag)) == ("0x1.6e1211e85ea45p-2", "-0x1.345645af51d23p-2")
    assert float.hex(rez_formula(0.7, -2.1)) == "0x1.6e1211e85ea45p-2"


# ----------------------------------------------------------- pair weight


def test_pair_weight_pi_over_2_chain():
    phi, equal = pair_weight_from_projection(ISQ2, ISQ2, math.pi / 2, math.pi / 2)
    assert phi == pytest.approx(math.pi / 3, abs=1e-12)
    assert equal


def test_pair_weight_requires_normalized_bra():
    with pytest.raises(InputError):
        pair_weight_from_projection(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InputError):
        pair_weight_from_projection(math.nan, 0.5, 1.0, 1.0)


def test_pair_weight_reports_a_python_bool():
    for chis in ((math.pi / 2, math.pi / 2), (1.0, 1.0)):
        _, equal = pair_weight_from_projection(ISQ2, ISQ2, *chis)
        assert type(equal) is bool


def test_pair_weight_matches_simulation():
    rng = np.random.default_rng(77)
    for _ in range(30):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        chi1, chi2 = rng.uniform(0.2, math.pi - 0.2, 2)
        phi, _ = pair_weight_from_projection(v[0], v[1], chi1, chi2)
        st = build_state(chain_graph(["a", "b", "c"], [chi1, chi2])).amplitudes
        res = np.einsum("abc,b->ac", st.reshape(2, 2, 2), v)
        res /= np.linalg.norm(res)
        s = np.linalg.svd(res, compute_uv=False)
        assert s[0] * s[1] == pytest.approx(
            abs(1.0 - cmath.exp(-1j * phi)) / 4.0, abs=1e-10
        )


# ----------------------------------------------------------------- scans


def test_xlike_scan_small_resolution():
    r = xlike_uniqueness_scan(resolution=40)
    assert r["outliers"] == []
    assert r["solutions"] > 0
    assert sum(r["counts"].values()) == r["solutions"]


def test_ylike_scan_small_resolution():
    r = ylike_impossibility_scan(resolution=40)
    assert r["outliers"] == []
    assert r["at_pi"] == r["solutions"] > 0


# Reference formulations the row-by-row scans replaced: the full (chi1, chi2,
# delta) cube for the Y-like scan and the unhoisted per-row terms for the
# X-like scan. The scans must return equal dicts, outlier order included;
# the references list every outlier and the scans keep the first
# SCAN_OUTLIER_CAP of them besides the count.


def _ref_xlike_scan(resolution, tol):
    chis = -math.pi + 2.0 * math.pi * (np.arange(resolution) + 1) / resolution
    deltas = chis.copy()
    mag_as = np.array([0.3, ISQ2, 0.9])
    e1 = np.exp(-1j * chis)
    counts = {"case1": 0, "case2": 0, "pi_degenerate": 0}
    outliers, n_solutions = [], 0
    r = mag_as[None, None, :]
    b = np.sqrt(1.0 - mag_as**2)[None, None, :] * np.exp(1j * deltas)[None, :, None]
    for i1, chi1 in enumerate(chis):
        p1 = e1[i1]
        m11 = r + b
        m12 = r + b * p1
        m21 = r + b * e1[:, None, None]
        m22 = r + b * (p1 * e1)[:, None, None]
        res = np.maximum(
            np.abs(np.abs(m11) - np.abs(m22)), np.abs(np.abs(m12) - np.abs(m21))
        )
        res = np.maximum(res, np.abs(m11 * np.conj(m21) + m12 * np.conj(m22)))
        for i2, idd, ir in np.argwhere(res < tol):
            n_solutions += 1
            chi2, delta, mag = chis[i2], deltas[idd], mag_as[ir]
            near_half = abs(mag - ISQ2) < 1e-3
            if (
                abs(wrap_angle(chi1 - chi2)) < 1e-3
                and abs(wrap_angle(delta - chi1 - math.pi)) < 1e-3
                and near_half
            ):
                counts["case1"] += 1
            elif (
                abs(wrap_angle(chi1 + chi2)) < 1e-3
                and abs(wrap_angle(delta - math.pi)) < 1e-3
                and near_half
            ):
                counts["case2"] += 1
            elif (
                abs(wrap_angle(chi1 - math.pi)) < 1e-3
                and abs(wrap_angle(chi2 - math.pi)) < 1e-3
            ):
                counts["pi_degenerate"] += 1
            else:
                outliers.append((float(chi1), float(chi2), float(delta), float(mag)))
    return {
        "resolution": resolution,
        "tolerance": tol,
        "solutions": n_solutions,
        "counts": counts,
        "outliers": outliers[:SCAN_OUTLIER_CAP],
        "outlier_count": len(outliers),
    }


def _ref_ylike_scan(resolution, tol):
    chis = -math.pi + 2.0 * math.pi * (np.arange(resolution) + 1) / resolution
    deltas = chis.copy()
    nz = np.abs(chis) > 1e-9
    c1, c2, dl = chis[:, None, None], chis[None, :, None], deltas[None, None, :]
    base = np.cos(dl)
    res = np.abs(base - np.cos(dl - c1))
    res = np.maximum(res, np.abs(base - np.cos(dl - c2)))
    res = np.maximum(res, np.abs(base - np.cos(dl - c1 - c2)))
    res = np.where(nz[:, None, None] & nz[None, :, None], res, np.inf)
    hits = np.argwhere(res < tol)
    outliers, at_pi = [], 0
    for i1, i2, idd in hits:
        if (
            abs(wrap_angle(chis[i1] - math.pi)) < 1e-3
            and abs(wrap_angle(chis[i2] - math.pi)) < 1e-3
        ):
            at_pi += 1
        else:
            outliers.append((float(chis[i1]), float(chis[i2]), float(deltas[idd])))
    return {
        "resolution": resolution,
        "tolerance": tol,
        "solutions": int(len(hits)),
        "at_pi": at_pi,
        "outliers": outliers[:SCAN_OUTLIER_CAP],
        "outlier_count": len(outliers),
    }


@pytest.mark.parametrize("resolution", [24, 60, 96])
@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_scans_match_reference_formulations(resolution, tol):
    x = xlike_uniqueness_scan(resolution, tol)
    y = ylike_impossibility_scan(resolution, tol)
    assert x == _ref_xlike_scan(resolution, tol)
    assert y == _ref_ylike_scan(resolution, tol)
    if tol == 1e-2 and resolution >= 60:
        # the loose tolerance is there so that outlier order is compared
        assert x["outliers"] and y["outliers"]


@settings(max_examples=25, deadline=None)
@given(
    half=st.integers(1, 64),
    tol=st.sampled_from([1e-9, 1e-6, 1e-2]),
)
def test_scans_match_reference_formulations_on_any_even_grid(half, tol):
    resolution = 2 * half
    assert xlike_uniqueness_scan(resolution, tol) == _ref_xlike_scan(resolution, tol)
    assert ylike_impossibility_scan(resolution, tol) == _ref_ylike_scan(resolution, tol)


@pytest.mark.parametrize(
    "resolution, tol",
    [(13, 0.3), (25, 0.3), (31, 0.3), (49, 0.3), (15, 1e-6), (61, 1e-2), (99, 1e-9), (14, 5.0)],
)
def test_xlike_scan_matches_the_reference_on_odd_grids_and_loose_tolerances(resolution, tol):
    # an odd grid has no chi = 0 point and a loose tol puts many (chi1, chi2)
    # pairs in one sorted window, so the window search runs past width 1
    x = xlike_uniqueness_scan(resolution, tol)
    assert x == _ref_xlike_scan(resolution, tol)
    if tol >= 0.3:
        assert x["outlier_count"] > 0


@pytest.mark.parametrize("scan", [xlike_uniqueness_scan, ylike_impossibility_scan])
@pytest.mark.parametrize(
    "resolution, tol",
    [(0, 1e-6), (-4, 1e-6), (2.0, 1e-6), (True, 1e-6), ("8", 1e-6),
     (8, math.nan), (8, 0.0), (8, -1e-6), (8, math.inf)],
)
def test_scans_reject_bad_arguments(scan, resolution, tol):
    with pytest.raises(InputError):
        scan(resolution, tol)


def test_scans_accept_a_numpy_integer_resolution():
    assert xlike_uniqueness_scan(np.int64(24)) == xlike_uniqueness_scan(24)
    assert ylike_impossibility_scan(np.int64(24)) == ylike_impossibility_scan(24)


@pytest.mark.parametrize(
    "scan, resolution, hits",
    [(xlike_uniqueness_scan, 14, 3 * 14**3), (ylike_impossibility_scan, 24, 23**2 * 24)],
    ids=["xlike", "ylike"],
)
def test_scan_outlier_list_is_capped_but_counted(scan, resolution, hits):
    # tol = 5 makes every grid point a hit: |A| x chi1 x chi2 x delta for
    # the x-like scan, chi1 x chi2 x delta without the zero weight for the
    # y-like one; kept as tuples, the outliers took 1.4 and 3.2 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        r = scan(resolution, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r["solutions"] == hits
    known = sum(r["counts"].values()) if "counts" in r else r["at_pi"]
    assert r["outlier_count"] == hits - known > SCAN_OUTLIER_CAP
    assert len(r["outliers"]) == SCAN_OUTLIER_CAP
    assert peak <= 2**19


@pytest.mark.parametrize("scan", [xlike_uniqueness_scan, ylike_impossibility_scan])
def test_scan_traced_peak_stays_quadratic_in_resolution(scan):
    # NumPy reports its buffers to tracemalloc; a (res, res, res) float cube
    # at resolution 200 alone is 61 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        scan(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
