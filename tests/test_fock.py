from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from wgfusion.errors import InputError, InvalidContextError, InvalidUnitaryError, ShapeMismatchError
from wgfusion.fock import (
    FusionContext,
    _symmetrised_pairs,
    ModeUnitary,
    check_unitary_rows,
    enumerate_outcomes,
    enumerate_table,
    ginibre,
    haar_stack,
    oracle_enumerate,
    oracle_table,
    outcome_coeffs,
    pattern_indices,
    reduced_det_rho,
    relevant_norm_sq,
    same_detector_prob,
    type_i_marginal,
    type_i_matrix,
    type_ii_matrix,
)
from wgfusion.graphstate import PureState, build_state, chain_graph
from wgfusion.tolerances import ABORT_TOL

RNG = np.random.default_rng(3)


def _unit(n: int, rng) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_context(rng, left_qubits=2, right_qubits=2) -> FusionContext:
    # f1 perpendicular to f2 (logical-pair branches); f3, f4 arbitrary units
    f1 = _unit(1 << left_qubits, rng)
    raw = _unit(1 << left_qubits, rng)
    f2 = raw - np.vdot(f1, raw) * f1
    f2 /= np.linalg.norm(f2)
    f3 = _unit(1 << right_qubits, rng)
    f4 = _unit(1 << right_qubits, rng)
    return FusionContext(f1[None], f2[None], f3[None], f4[None])


def test_mode_unitary_validation():
    # ModeUnitary runs the stacked check on a stack of one; its errors keep
    # their own messages and chain no stacked error
    cases = [
        (np.ones((4, 4)), "ModeUnitary fails U U+ = I"),
        (np.full((4, 4), np.nan), "ModeUnitary fails U U+ = I"),
        ((1.0 + 1e-9) * np.eye(5), "ModeUnitary fails U U+ = I"),
        (np.eye(3), "ModeUnitary must be square with N >= 4"),  # at least 4 modes
        (np.eye(4)[:, :3], "ModeUnitary must be square with N >= 4"),
    ]
    for matrix, message in cases:
        with pytest.raises(InvalidUnitaryError) as exc:
            ModeUnitary(matrix)
        assert str(exc.value) == message
        assert exc.value.__cause__ is None


def _haar_unitary(n: int, rng) -> np.ndarray:
    """One Haar unitary drawn from rng: haar_stack of one ginibre draw."""
    return haar_stack(ginibre(n, rng))[0]


@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_haar_unitary_is_scipy_unitary_group_bit_for_bit(n):
    # SciPy is the reference: the same seeded draw gives the same matrix, so
    # every seeded ensemble of the verify checks is SciPy's ensemble
    for seed in range(300):
        ours = _haar_unitary(n, np.random.default_rng(seed))
        ref = unitary_group.rvs(n, random_state=np.random.default_rng(seed))
        assert np.array_equal(ours, ref), (n, seed)


@pytest.mark.parametrize("n", range(2, 9))
def test_haar_stack_rows_are_haar_unitary_bit_for_bit(n):
    # an ensemble draws ginibre per draw and maps the stack with one QR; each
    # row must be the matrix one draw's haar_stack makes from the same rng,
    # and k draws in one ginibre call must be k successive draws
    for seed in range(6):
        rng = np.random.default_rng(seed)
        stack = haar_stack(np.concatenate([ginibre(n, rng) for _ in range(20)] + [ginibre(n, rng, 20)]))
        rng = np.random.default_rng(seed)
        for k, row in enumerate(stack):
            assert np.array_equal(row, _haar_unitary(n, rng)), (n, seed, k)


def test_unitarity_check_names_the_first_bad_row():
    rng = np.random.default_rng(1)
    us = haar_stack(ginibre(5, rng, 6))
    check_unitary_rows(us)
    bad = us.copy()
    bad[3, 0, 0] += 1e-9  # |U U+ - I| about 2e-9, above UNITARY_TOL
    bad[5] *= 2.0
    with pytest.raises(InvalidUnitaryError, match=r"^row 3 fails U U\+ = I"):
        check_unitary_rows(bad)
    bad = us.copy()
    bad[2, 1, 3] = np.nan  # a NaN row fails too
    with pytest.raises(InvalidUnitaryError, match=r"^row 2 fails"):
        check_unitary_rows(bad)


def test_pattern_indices_are_shared_read_only_triu_indices():
    for n, k in ((4, 0), (4, 1), (8, 0), (8, 1)):
        iu, ju = pattern_indices(n, k)
        ref_i, ref_j = np.triu_indices(n, k)
        assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
        assert pattern_indices(n, k)[0] is iu
        with pytest.raises(ValueError):
            iu[0] = 1


def test_mode_unitary_json_roundtrip():
    u = ModeUnitary(unitary_group.rvs(5, random_state=1))
    data = json.loads(json.dumps(u.as_dict()))
    assert data["n"] == 5
    assert np.array_equal(ModeUnitary.from_dict(data).matrix, u.matrix)


def test_context_checks_shapes_then_unit_rows():
    unit = np.array([[1.0, 0.0]])
    for f1, f3 in (
        (unit[0], unit),  # not a row stack
        (np.ones((1, 3)) / math.sqrt(3.0), unit),  # not a qubit register
        (unit, np.tile(unit, (2, 1))),  # row counts differ
    ):
        with pytest.raises(InvalidContextError):
            FusionContext(f1, f1, f3, f3)
    units, nan = np.tile(unit, (2, 1)), np.array([[0.0, 1.0], [0.0, np.nan]])
    with pytest.raises(ShapeMismatchError, match="^row 1 not normalized"):
        FusionContext(units, nan, units, units)


def test_closed_form_requires_orthogonal_left_branches():
    # <f1|f2> = 0 is the closed form's premise (relevant_norm_sq has no left
    # overlap term), so the closed form refuses a context that breaks it; no
    # registered logical pair gives one, so the branches are drawn at random
    rng = np.random.default_rng(4)
    ctx = FusionContext(*(_unit(d, rng)[None] for d in (4, 4, 2, 2)))
    assert abs(np.vdot(ctx.f1[0], ctx.f2[0])) > 0.1
    u = ModeUnitary(_haar_unitary(5, rng))
    with pytest.raises(InvalidContextError, match="<f1|f2>"):
        enumerate_table(u.matrix[None], ctx)
    with pytest.raises(InvalidContextError, match="<f1|f2>"):
        enumerate_outcomes(ctx, u)
    # the oracle needs unit vectors only: the photons enter in orthogonal
    # modes, so the distribution is complete for any f1, f2
    probs, _ = oracle_table(u.matrix[None], ctx)
    assert abs(probs.sum() - 1.0) <= ABORT_TOL
    assert len(oracle_enumerate(ctx, u)) == 15


def test_one_fusion_wrappers_refuse_a_stack():
    rng = np.random.default_rng(6)
    one = _random_context(rng)
    two = FusionContext(*(np.concatenate([f, f]) for f in (one.f1, one.f2, one.f3, one.f4)))
    u = ModeUnitary(_haar_unitary(4, rng))
    for fn in (enumerate_outcomes, oracle_enumerate):
        with pytest.raises(InputError, match="need one fusion, got a context of 2 rows"):
            fn(two, u)


def test_fusion_matrices_are_unitary():
    for u in (type_i_matrix(), type_ii_matrix()):
        m = u.matrix
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)


def test_completeness_analytic_and_oracle():
    for k in range(5):
        rng = np.random.default_rng(100 + k)
        ctx = _random_context(rng)
        u = ModeUnitary(unitary_group.rvs(4 + k, random_state=rng))
        pa = sum(o.probability for o in enumerate_outcomes(ctx, u))
        po = sum(o.probability for o in oracle_enumerate(ctx, u))
        assert pa == pytest.approx(1.0, abs=1e-12)
        assert po == pytest.approx(1.0, abs=1e-12)


def test_analytic_matches_oracle_per_pattern():
    rng = np.random.default_rng(42)
    ctx = _random_context(rng)
    u = ModeUnitary(unitary_group.rvs(6, random_state=rng))
    ana = {o.pattern: o for o in enumerate_outcomes(ctx, u)}
    orc = {o.pattern: o for o in oracle_enumerate(ctx, u)}
    assert set(ana) == set(orc)
    for pat, o in ana.items():
        assert o.probability == pytest.approx(orc[pat].probability, abs=1e-12)
        if o.register_state is not None and orc[pat].register_state is not None:
            fid = abs(
                np.vdot(o.register_state.amplitudes, orc[pat].register_state.amplitudes)
            )
            assert fid == pytest.approx(1.0, abs=1e-10)


def test_same_detector_probability_formula():
    # the bosonic 1/2 in p_ii is what makes the distribution complete
    rng = np.random.default_rng(5)
    ctx = _random_context(rng)
    u = ModeUnitary(unitary_group.rvs(4, random_state=rng))
    orc = {o.pattern: o.probability for o in oracle_enumerate(ctx, u)}
    z = complex(ctx.z[0])
    for i in range(4):
        assert same_detector_prob(u.matrix, i, z) == pytest.approx(
            orc[(i, i)], abs=1e-12
        )


def test_relevant_norm_z_dependence():
    u = unitary_group.rvs(4, random_state=11)
    a, b, c, d = outcome_coeffs(u, 0, 2)
    n0 = relevant_norm_sq(a, b, c, d, 0.0)
    expect = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    assert n0 == pytest.approx(expect, abs=1e-12)
    z = 0.3 + 0.2j
    shift = 2 * (z * a * np.conj(b)).real + 2 * (z * c * np.conj(d)).real
    assert relevant_norm_sq(a, b, c, d, z) == pytest.approx(n0 + shift, abs=1e-12)


def test_reduced_det_rho_oracle_on_bell_register():
    # Bell-shaped register across the cut: det rho = 1/4
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    (det,) = reduced_det_rho(amps.reshape(1, 2, 2))
    assert det == pytest.approx(0.25, abs=1e-12)


def _schmidt_rank2_rows(rng: np.random.Generator, k: int, dl: int, dr: int) -> np.ndarray:
    """(k, dl, dr) normalized states of Schmidt rank <= 2 across the cut."""
    def vecs(d):
        return rng.normal(size=(k, 2, d)) + 1j * rng.normal(size=(k, 2, d))

    left, right = vecs(dl), vecs(dr)
    mats = np.einsum("kal,kar->klr", left, right)
    return mats / np.linalg.norm(mats, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("dl, dr", [(4, 2), (2, 4), (2, 2), (8, 2)])
def test_reduced_det_rho_closed_form_matches_the_full_eigvalsh(dl, dr):
    # a cut with a two-dimensional side is solved in closed form on that
    # side's Gram matrix; the full rho = M M+ through LAPACK is the reference
    mats = _schmidt_rank2_rows(np.random.default_rng(dl * 10 + dr), 200, dl, dr)
    mats[:20] = mats[:20, :, :1] * np.ones(dr) / math.sqrt(dr)  # product states: det rho = 0
    ev = np.linalg.eigvalsh(mats @ mats.conj().transpose(0, 2, 1))
    got = reduced_det_rho(mats)
    assert np.max(np.abs(got - ev[:, -1] * ev[:, -2])) <= 1e-15
    assert np.max(np.abs(got[:20])) <= 1e-15


def test_reduced_det_rho_keeps_lapack_on_wider_cuts():
    mats = _schmidt_rank2_rows(np.random.default_rng(44), 50, 4, 4)
    ev = np.linalg.eigvalsh(mats @ mats.conj().transpose(0, 2, 1))
    assert np.array_equal(reduced_det_rho(mats), ev[:, -1] * ev[:, -2])


def _square_symmetrised_pairs(x, y, iu, ju):
    """The N x N construction _symmetrised_pairs replaced: every mode pair's
    product, symmetrised, then the P patterns picked out."""
    pair = np.einsum("kix,kjy->kijxy", x, y)
    amp = pair + pair.transpose(0, 2, 1, 3, 4)
    amp *= 0.5
    k = np.arange(x.shape[1])
    amp[:, k, k] /= math.sqrt(2.0)
    return amp[:, iu, ju]


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("dx, dy", [(2, 2), (4, 2), (2, 4), (4, 4)])
def test_symmetrised_pairs_equal_the_square_construction_bit_for_bit(n, dx, dy):
    rng = np.random.default_rng(n * 100 + dx * 10 + dy)
    x = rng.normal(size=(7, n, dx)) + 1j * rng.normal(size=(7, n, dx))
    y = rng.normal(size=(7, n, dy)) + 1j * rng.normal(size=(7, n, dy))
    iu, ju = pattern_indices(n)
    got = _symmetrised_pairs(x, y, iu, ju)
    ref = _square_symmetrised_pairs(x, y, iu, ju)
    assert got.shape == ref.shape == (7, n * (n + 1) // 2, dx, dy)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _chain_context(wl: float, wr: float) -> FusionContext:
    """f1, f2 = endpoint branches of a 2-chain; perpendicular by construction
    via a logical-pair-like left side (|0>f1, |1>f2 with orthogonal markers)."""
    left = build_state(chain_graph(["x", "a"], [wl])).reshaped()
    f1 = left[:, 0] * math.sqrt(2)
    f2 = left[:, 1] * math.sqrt(2)
    # make them orthogonal by tagging with an extra qubit (pair branch picture)
    v1 = np.kron(np.array([1.0, 0.0]), f1)
    v2 = np.kron(np.array([0.0, 1.0]), f2)
    right = build_state(chain_graph(["b", "y"], [wr])).reshaped()
    g3 = right[0] * math.sqrt(2)
    g4 = right[1] * math.sqrt(2)
    return FusionContext(v1[None], v2[None], g3[None], g4[None])


def test_gram_overlap_matches_weight_formula():
    ctx = _chain_context(0.8, 1.1)
    expect = (1 + np.exp(1.1j)) / 4 * 2  # single neighbor: (1+e^{i chi})/2
    assert complex(ctx.z[0]) == pytest.approx(expect, abs=1e-12)


def test_type_i_marginal_distribution():
    ctx = _chain_context(0.9, -1.4)
    outs = enumerate_outcomes(ctx, type_i_matrix())
    marg = type_i_marginal(outs, ctx)
    assert marg["one_photon_d_H"][0] == pytest.approx(0.25, abs=1e-12)
    assert marg["one_photon_d_V"][0] == pytest.approx(0.25, abs=1e-12)
    assert marg["both_in_c"][0] == pytest.approx(0.25, abs=1e-12)
    assert marg["both_in_d"][0] == pytest.approx(0.25, abs=1e-12)
    # success branches carry the new dual-rail qubit coherently
    assert marg["one_photon_d_H"][1].num_qubits == 4


def test_type_i_probabilities_weight_independent():
    for (wl, wr) in ((0.3, 2.0), (math.pi, math.pi), (-1.0, 0.4)):
        ctx = _chain_context(wl, wr)
        marg = type_i_marginal(enumerate_outcomes(ctx, type_i_matrix()), ctx)
        for key in marg:
            assert marg[key][0] == pytest.approx(0.25, abs=1e-12)


def test_type_ii_cross_outcomes_are_bell():
    # cross-channel relevant outcomes of the type-II network are Bell projections
    u = type_ii_matrix().matrix
    for (i, j), sign in (((0, 2), 1), ((1, 3), 1)):
        a, b, c, d = outcome_coeffs(u, i, j)
        m = np.array([[a, b], [c, d]])
        # proportional to diag Bell: <00| + <11|
        assert abs(b) < 1e-12 and abs(c) < 1e-12
        assert a == pytest.approx(d, abs=1e-12)
    for (i, j) in ((0, 3), (1, 2)):
        # anti-diagonal Bell: <01| + <10|
        a, b, c, d = outcome_coeffs(u, i, j)
        assert abs(a) < 1e-12 and abs(d) < 1e-12
        assert abs(b) == pytest.approx(abs(c), abs=1e-12)


def test_identity_unitary_single_photon_channels():
    # identity network: no interference, photons stay in their channels;
    # every outcome pairs one a-mode with one b-mode
    ctx = _chain_context(0.5, 0.5)
    outs = enumerate_outcomes(ctx, ModeUnitary(np.eye(4)))
    live = [o for o in outs if o.probability > 1e-12]
    assert all(o.pattern[0] in (0, 1) and o.pattern[1] in (2, 3) for o in live)
    assert sum(o.probability for o in live) == pytest.approx(1.0, abs=1e-12)
