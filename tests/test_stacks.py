"""The batch axis: a stacked call is row for row the single-state call.

build_state over a (K, E) weight array, the X-like branch over a ChainStack,
the stacked fusion contexts of the generalized-oracle ensemble and the
stacked forms behind the probability scans (X-like probability, Type-II
probabilities, GHZ-to-pair projection) each run one code path; these
properties hold row k of a stack to the K = 1 call on row k's inputs, a
one-row chain or one-element arrays, so rows of a stack do not interact.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wgfusion import verify
from wgfusion.analysis import INV_SQRT2, hyperbola_projection, inner_z, pair_weight_from_projection
from wgfusion.errors import (
    InputError,
    InvalidGraphError,
    ShapeMismatchError,
    WgfError,
    ZeroOutcomeError,
)
from wgfusion.fock import ModeUnitary, ginibre, haar_stack
from wgfusion.graphstate import (
    PureState,
    WeightedGraph,
    build_state,
    chain_graph,
    fidelity_rows,
    fidelity_up_to_global_phase,
    wrap_angle,
)
from wgfusion.protocols import (
    ChainStack,
    ChainState,
    create_logical_qubit,
    fuse_type_i,
    fuse_type_ii,
    fusion_context_rows,
    ghz_pair_for_target_stack,
    ghz_pair_projection,
    ghz_pair_range,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    rez_formula,
    sample_outcomes,
    type_ii_probabilities_stack,
    weighted_pair_rows,
    xlike_probability_stack,
)

# nonzero weights, some outside (-pi, pi] so that the rows are wrapped
ANGLES = st.builds(
    lambda mag, sign, turns: sign * mag + 2.0 * math.pi * turns,
    st.floats(0.05, math.pi),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([0, 0, 0, 1, -2]),
)


def weight_stack(data, k: int, e: int) -> np.ndarray:
    rows = data.draw(st.lists(st.lists(ANGLES, min_size=e, max_size=e), min_size=k, max_size=k))
    return np.array(rows, dtype=float).reshape(k, e)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 4), data=st.data())
def test_stacked_build_rows_equal_single_builds(n, k, data):
    labels = tuple(f"q{i}" for i in range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = weight_stack(data, k, len(edges))
    shape = WeightedGraph(labels, tuple((labels[a], labels[b], 1.0) for a, b in edges))
    stack = build_state(shape, weights)
    assert stack.shape == (k, 1 << n)
    for row, w in zip(stack, weights):
        graph = WeightedGraph(labels, tuple((labels[a], labels[b], x) for (a, b), x in zip(edges, w)))
        assert np.array_equal(row, build_state(graph).amplitudes)


@pytest.mark.parametrize("bad", [0.0, 2.0 * math.pi, -4.0 * math.pi, math.nan, math.inf])
def test_stacked_build_refuses_a_row_that_drops_an_edge(bad):
    shape = WeightedGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)))
    with pytest.raises(InvalidGraphError):
        build_state(shape, [[0.4, 0.7], [0.3, bad]])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 7), k=st.integers(1, 4), data=st.data())
def test_stacked_xlike_rows_equal_single_chain_branches(n, k, data):
    """One or two X-like branches on a stack of chains: the second may act next to
    the first one's logical pair, so its Case-2 X takes the pair's logical qubit."""
    labels = [f"v{i}" for i in range(n)]
    weights = weight_stack(data, k, n - 1)
    first = data.draw(st.integers(1, n - 2))
    steps = [first]
    later = [i for i in range(1, n - 1) if abs(i - first) >= 2]
    if later and data.draw(st.booleans()):
        steps.append(data.draw(st.sampled_from(later)))
    for i in steps:  # vertex i's edges are weights[:, i - 1] and weights[:, i]
        for row in range(k):  # each row draws its own case
            case1 = data.draw(st.booleans())
            weights[row, i] = weights[row, i - 1] if case1 else -weights[row, i - 1]
    stack = make_chain_stack(labels, weights)
    chains = [make_chain(labels, w) for w in weights]
    for i in steps:
        stack = logical_pair_stack(stack, labels[i])
        chains = [logical_pair_stack(c, labels[i]) for c in chains]
        for row, w, one in zip(stack.rows, stack.weights, chains):
            assert np.array_equal(row, one.rows[0])
            assert w.tolist() == one.weights[0].tolist()
            assert stack.logical_pairs == one.logical_pairs


def test_case2_sign_flip_keeps_a_pi_weight_wrapped():
    # the Case-2 X on v1 flips its edge to v0; -pi wraps back to pi
    stack = make_chain_stack(["v0", "v1", "v2", "v3"], [[math.pi, 0.7, -0.7], [0.4, 0.7, -0.7]])
    after = logical_pair_stack(stack, "v2")
    assert after.weights[:, 0].tolist() == [math.pi, -0.4]


def _off_norm(row: np.ndarray) -> np.ndarray:
    return row * 1.01


def _mixed_bit(row: np.ndarray) -> np.ndarray:
    # amplitude where the pair {b, d} of (a, b, d) has bits 0, 1
    row[0b001] += 1e-6
    return row / np.linalg.norm(row)


def _nan(row: np.ndarray) -> np.ndarray:
    row[0] = math.nan
    return row


@pytest.mark.parametrize(
    "spoil, error",
    [(_off_norm, ShapeMismatchError), (_mixed_bit, InvalidGraphError), (_nan, ShapeMismatchError)],
    ids=["norm", "mixed-bit", "nan"],
)
def test_one_row_chains_refuse_as_chain_states_did(spoil, error):
    """A one-row ChainStack, a ChainState and a row of a two-row stack refuse a
    spoiled register with the error type a ChainState raised for it: the norm
    (PureState's check) first, then the forest, then the pair support."""
    chain = logical_pair_stack(make_chain(list("abcd"), [1.0, 0.7, 0.7]), "c")  # a-b=d
    row = spoil(chain.rows[0].copy())
    with pytest.raises(error) as one_row:
        ChainStack(chain.graph, chain.weights, row[None], chain.logical_pairs)
    with pytest.raises(error) as as_state:
        ChainState(chain.graph, PureState(chain.graph.n, row), chain.logical_pairs)
    with pytest.raises(error) as in_stack:
        rows = np.stack([chain.rows[0], row])
        ChainStack(chain.graph, np.repeat(chain.weights, 2, axis=0), rows, chain.logical_pairs)
    assert type(one_row.value) is type(as_state.value) is type(in_stack.value) is error


def test_stacked_xlike_takes_rows_of_two_cases():
    """Case-1 and Case-2 rows in one stack, with a near-pi Case-2 row (its
    failure split loses a sub-outcome) and a pi row (its complementary
    success takes Case 2): each row is bit for bit its one-row call."""
    near = math.pi - 5e-8
    weights = [[0.7, 0.7], [0.7, -0.7], [near, -near], [math.pi, math.pi]]
    stack = make_chain_stack(list("abc"), weights)
    pairs = logical_pair_stack(stack, "b")
    for k in range(len(weights)):
        one = logical_pair_stack(_row_chain(stack, k), "b")
        assert pairs.rows[k].tobytes() == one.rows[0].tobytes()
        assert pairs.weights[k].tobytes() == one.weights[0].tobytes()
        assert pairs.logical_pairs == one.logical_pairs
    singles = [create_logical_qubit(_row_chain(stack, k), "b") for k in range(len(weights))]
    assert [one[0].label for one in singles] == [f"success_case{c}" for c in (1, 2, 2, 1)]
    _assert_stack_matches(lambda: create_logical_qubit(stack, "b"), singles)


def test_stacked_xlike_names_the_first_unresolved_row_across_cases():
    """Rows 1 (Case 2) and 2 (Case 1) lie off their case and leave the new
    pair unresolved: the stack refuses row 1, as its one-row call does."""
    off = 6e-10  # within WEIGHT_TOL of the case, too far off to resolve the pair
    weights = [[0.7, 0.7, 0.5], [0.9, -0.9 + off, 0.5], [1.1, 1.1 + off, 0.5]]
    stack = make_chain_stack(list("abcd"), weights)
    with pytest.raises(WgfError) as one:
        logical_pair_stack(_row_chain(stack, 1), "b")
    for fn in (logical_pair_stack, create_logical_qubit):
        with pytest.raises(type(one.value)) as exc:
            fn(stack, "b")
        assert str(exc.value) == str(one.value)


def _reference_contexts(seed: int, draws: int):
    """The per-draw setup the stacked one replaced: make_chain, logical_pair_stack and
    fusion_context_rows on one-row chains for each draw, in _random_fusion_setup's rng order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        u = ModeUnitary(haar_stack(ginibre(int(rng.integers(4, 9)), rng))[0]).matrix
        w1 = float(rng.uniform(0.1, math.pi)) * float(rng.choice([-1.0, 1.0]))
        chi = float(rng.uniform(0.1, math.pi - 0.1))
        lw = [w1, chi, chi] if rng.uniform() < 0.5 else [w1, chi, wrap_angle(-chi)]
        left = logical_pair_stack(make_chain(["A", "B", "C", "D"], lw), "C")
        labels = ["v", "b"] if rng.uniform() < 0.5 else ["v", "b", "w"]
        right = make_chain(labels, verify._rand_weights(rng, len(labels) - 1))
        out.append((u, fusion_context_rows(left, ("B", "D"), right, "b", consume="D")))
    return out


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 40))
def test_stacked_fusion_setup_equals_the_per_draw_contexts(seed, draws):
    us, sizes, urows, lengths, rows, contexts = verify._random_fusion_setup(
        np.random.default_rng(seed), draws
    )
    assert sorted(us) == sorted(set(sizes.tolist()))
    for n, stack in us.items():
        assert sorted(urows[sizes == n]) == list(range(len(stack)))
    for i, (u, ref) in enumerate(_reference_contexts(seed, draws)):
        assert np.array_equal(us[sizes[i]][urows[i]], u)
        got = contexts[lengths[i]].take([rows[i]])
        for f in ("f1", "f2", "f3", "f4", "z"):
            a, b = getattr(got, f), getattr(ref, f)
            assert np.shape(a) == np.shape(b)
            assert np.max(np.abs(a - b)) <= 1e-15


def test_vanishing_xlike_branch_is_a_typed_refusal():
    chain = make_chain(list("abc"), [1e-7, 1e-7])  # eligible, above ZERO_WEIGHT
    prob = float(xlike_probability_stack(chain, "b")[0])
    for fn in (create_logical_qubit, logical_pair_stack):
        with pytest.raises(ZeroOutcomeError) as exc:
            fn(chain, "b")
        assert " b " in str(exc.value) and repr(prob) in str(exc.value)
    stack = make_chain_stack(list("abc"), [[0.9, 0.9], [1e-7, 1e-7]])
    with pytest.raises(ZeroOutcomeError):
        logical_pair_stack(stack, "b")


# The probability scans' stacked forms: row k of each is float.hex-equal to the
# K = 1 call on row k's inputs, and a stack holding a bad row raises the error
# type that the K = 1 call on the first bad row raises.


def _single_outcomes(calls) -> list:
    """Each K = 1 call's result, or the type of the error it raises."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except WgfError as exc:
            out.append(type(exc))
    return out


def _first_error(outcomes) -> type | None:
    return next((o for o in outcomes if isinstance(o, type)), None)


def _hex(x) -> tuple[str, ...]:
    x = complex(x)
    return float.hex(x.real), float.hex(x.imag)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), k=st.integers(1, 5), data=st.data())
def test_xlike_probability_stack_rows_equal_single_calls(n, k, data):
    """Case-1 and Case-2 rows mixed in one stack, maybe one ineligible row."""
    labels = [f"v{i}" for i in range(n)]
    i = data.draw(st.integers(1, n - 2))
    weights = weight_stack(data, k, n - 1)
    for row in range(k):  # vertex i's edges are weights[:, i - 1] and weights[:, i]
        case1 = data.draw(st.booleans())
        weights[row, i] = weights[row, i - 1] if case1 else -weights[row, i - 1]
    bad = data.draw(st.none() | st.integers(0, k - 1))
    if bad is not None:
        weights[bad, i] += data.draw(st.floats(0.1, 1.0))
        assume(abs(wrap_angle(weights[bad, i])) > 0.01)
    singles = _single_outcomes(
        [lambda w=w: float(xlike_probability_stack(make_chain(labels, list(w)), labels[i])[0])
         for w in weights]
    )
    stack = make_chain_stack(labels, weights)
    error = _first_error(singles)
    assert bad is not None or error is None  # eligible rows of either case never raise
    if error is not None:
        with pytest.raises(error) as exc:
            xlike_probability_stack(stack, labels[i])
        assert type(exc.value) is error
        return
    got = xlike_probability_stack(stack, labels[i])
    assert [float.hex(p) for p in got.tolist()] == [float.hex(p) for p in singles]


def _left_stack(data, k: int) -> ChainStack:
    """k logical-pair left chains A-B-D, one per row: row k's {B, D} is the
    X-like branch at C of its own A-B-C-D chain, of Case 1 or Case 2 as
    drawn for that row."""
    lefts = []
    for _ in range(k):
        chi = data.draw(ANGLES)
        weights = [data.draw(ANGLES), chi, chi if data.draw(st.booleans()) else -chi]
        lefts.append(logical_pair_stack(make_chain(list("ABCD"), weights), "C"))
    return ChainStack(
        lefts[0].graph,
        np.concatenate([one.weights for one in lefts]),
        np.concatenate([one.rows for one in lefts]),
        lefts[0].logical_pairs,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nr=st.integers(3, 5), k=st.integers(1, 5), data=st.data())
def test_type_ii_probabilities_stack_rows_equal_single_calls(nr, k, data):
    """One logical-pair left chain per row against a stack of 3-5-vertex right
    chains; one row's state may come from other weights than the row claims
    (a z mismatch)."""
    left = _left_stack(data, k)
    labels = [f"r{j}" for j in range(nr)]
    b = labels[data.draw(st.integers(0, nr - 1))]
    claimed = weight_stack(data, k, nr - 1)
    built = claimed.copy()
    bad = data.draw(st.sampled_from([None, None, None, data.draw(st.integers(0, k - 1))]))
    if bad is not None:
        built[bad] = weight_stack(data, 1, nr - 1)[0]
    stack = make_chain_stack(labels, claimed)
    stack = ChainStack(stack.graph, stack.weights, make_chain_stack(labels, built).rows)
    rights = [
        ChainState(chain_graph(labels, list(c)), PureState(nr, r)) for c, r in zip(claimed, stack.rows)
    ]
    singles = _single_outcomes(
        [
            lambda i=i, r=r: type_ii_probabilities_stack(_row_chain(left, i), ("B", "D"), r, b, "D")
            for i, r in enumerate(rights)
        ]
    )
    error = _first_error(singles)
    assert bad is not None or error is None
    if error is not None:
        with pytest.raises(error) as exc:
            type_ii_probabilities_stack(left, ("B", "D"), stack, b, consume="D")
        assert type(exc.value) is error
        return
    got = type_ii_probabilities_stack(left, ("B", "D"), stack, b, consume="D")
    for row, one in enumerate(singles):
        assert {lab: float.hex(p[row]) for lab, p in got.items()} == {
            lab: float.hex(p) for lab, (p,) in one.items()
        }


GHZ_ANGLES = ANGLES | st.just(0.0)  # a zero weight drops its edge from the chain
MAGNITUDES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_MAGNITUDES = NON_FINITE | st.floats(1.01, 3.0) | st.floats(-3.0, -0.01)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), data=st.data())
def test_ghz_pair_projection_rows_equal_single_calls(k, data):
    """(chi1, chi2, |A|) rows, zero weights and the poles |A| in {0, 1} among them;
    maybe one row with a non-finite angle or an |A| outside [0, 1]."""
    rows = [
        [data.draw(GHZ_ANGLES), data.draw(GHZ_ANGLES), data.draw(MAGNITUDES)] for _ in range(k)
    ]
    bad = data.draw(st.none() | st.integers(0, k - 1))
    if bad is not None:
        column = data.draw(st.integers(0, 2))
        rows[bad][column] = data.draw(BAD_MAGNITUDES if column == 2 else NON_FINITE)
    singles = _single_outcomes([lambda r=r: ghz_pair_projection(*zip(r)) for r in rows])
    error = _first_error(singles)
    assert (error is None) == (bad is None)
    if error is not None:
        with pytest.raises(error) as exc:
            ghz_pair_projection(*zip(*rows))
        assert type(exc.value) is error
        return
    kets, phis = ghz_pair_projection(*zip(*rows))
    assert kets.shape == (k, 2, 2) and phis.shape == (k,)
    for (one_kets, (phi,)), got_kets, got_phi in zip(singles, kets, phis.tolist()):
        assert float.hex(got_phi) == float.hex(phi)
        assert [_hex(c) for c in got_kets.ravel()] == [_hex(c) for c in one_kets.ravel()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), data=st.data())
def test_pair_weight_and_range_rows_equal_single_calls(k, data):
    """(A, B, chi1, chi2) rows on the unit sphere, zero weights and the poles
    |A| in {0, 1} among them: a K-row pair_weight_from_projection call gives
    the scalar calls' phi (float.hex) and both_outcomes_equal flag, and a
    K-row ghz_pair_range call their ranges (float.hex)."""
    rows = []
    for _ in range(k):
        mag = data.draw(MAGNITUDES)
        a = mag * cmath.exp(1j * data.draw(ANGLES))
        b = math.sqrt(1.0 - mag * mag) * cmath.exp(1j * data.draw(ANGLES))
        rows.append((a, b, data.draw(GHZ_ANGLES), data.draw(GHZ_ANGLES)))
    columns = [np.array(c) for c in zip(*rows)]
    phis, equal = pair_weight_from_projection(*columns)
    ranges = ghz_pair_range(*columns[2:])
    assert phis.shape == equal.shape == ranges.shape == (k,)
    for row, phi, eq, reach in zip(rows, phis.tolist(), equal.tolist(), ranges.tolist()):
        one_phi, one_eq = pair_weight_from_projection(*row)
        assert (float.hex(phi), eq) == (float.hex(one_phi), one_eq)
        assert float.hex(reach) == float.hex(ghz_pair_range(*row[2:]))


XIS = st.builds(lambda mag, sign: sign * mag, st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), d=st.integers(0, 3), per_row_mag=st.booleans(), data=st.data())
def test_closed_forms_rows_equal_single_calls(k, d, per_row_mag, data):
    """Weights wrapped or not, zero weights among them: a K-row inner_z call
    over d weight arrays (d = 0 is z = 1), a K-row rez_formula call and a
    K-row hyperbola_projection call (|A| = 1/sqrt2 or drawn) give the K
    scalar calls' values, float.hex of every real and imaginary part; the
    scalar calls keep their complex, float and TwoQubitProjection types."""
    chis = np.array([[data.draw(GHZ_ANGLES) for _ in range(d)] for _ in range(k)]).reshape(k, d)
    pairs = np.array([[data.draw(GHZ_ANGLES), data.draw(GHZ_ANGLES)] for _ in range(k)])
    chi_bfs = np.array([data.draw(GHZ_ANGLES) for _ in range(k)])
    xis = np.array([data.draw(XIS) for _ in range(k)])
    mags = np.array([data.draw(st.floats(0.05, 2.0)) if per_row_mag else INV_SQRT2 for _ in range(k)])
    zs = np.broadcast_to(inner_z(*chis.T), (k,))
    rez = rez_formula(*pairs.T)
    coefs = hyperbola_projection(chi_bfs, xis, mags)
    assert rez.shape == (k,) and coefs.shape == (k, 2, 2)
    for i in range(k):
        z = inner_z(*chis[i].tolist())
        assert type(z) is complex and _hex(zs[i]) == _hex(z)
        one = rez_formula(*pairs[i].tolist())
        assert type(one) is float and float.hex(float(rez[i])) == float.hex(one)
        p = hyperbola_projection(chi_bfs[i].item(), xis[i].item(), mags[i].item())
        entries = (p.a, p.b, p.c, p.d)
        assert all(type(c) is complex for c in entries)
        assert [_hex(c) for c in coefs[i].ravel()] == [_hex(c) for c in entries]


# The protocols behind verify's per-point protocol checks: every outcome that
# row k of a K-row call holds is, in order, the K = 1 call's outcome on row
# k's inputs (probabilities float.hex-equal, post-state rows array_equal,
# the same labels, corrections and good-failure flags), and a stack holding a
# bad row raises the error type of the K = 1 call on that row.


def _assert_row_outcomes(outs, k: int, singles) -> None:
    held = [(o, int(np.flatnonzero(o.rows == k)[0])) for o in outs if (o.rows == k).any()]
    assert [o.label for o, _ in held] == [s.label for s in singles]
    for (o, i), one in zip(held, singles):
        assert float.hex(float(o.probabilities[i])) == float.hex(one.probability)
        assert o.is_good_failure == one.is_good_failure
        assert [(c.vertex, c.name) for c in o.corrections_applied] == [
            (c.vertex, c.name) for c in one.corrections_applied
        ]
        for c, d in zip(o.corrections_applied, one.corrections_applied):
            assert np.array_equal(c.matrix[i] if c.matrix.ndim == 3 else c.matrix, d.matrix.reshape(2, 2))
        assert len(o.post_states) == len(one.post_states)
        for stack, chain in zip(o.post_states, one.post_states):
            assert np.array_equal(stack.rows[i], chain.state.amplitudes)
            assert [float.hex(w) for w in stack.weights[i].tolist()] == [
                float.hex(w) for *_, w in chain.graph.edges
            ]
            assert [e[:2] for e in stack.graph.edges] == [e[:2] for e in chain.graph.edges]
            assert stack.graph.vertices == chain.graph.vertices
            assert stack.logical_pairs == chain.logical_pairs


def _assert_stack_matches(stacked, singles) -> None:
    """stacked() against the K = 1 results (or error types) singles, one per row."""
    error = _first_error(singles)
    if error is not None:
        with pytest.raises(error) as exc:
            stacked()
        assert type(exc.value) is error
        return
    outs = stacked()
    for k, one in enumerate(singles):
        _assert_row_outcomes(outs, k, one)
    for o in outs:  # every held row is some row's outcome, each once
        assert np.array_equal(o.rows, np.unique(o.rows)) and len(o.probabilities) == len(o.rows)


def _row_chain(stack: ChainStack, k: int) -> ChainState:
    """Row k of a stack as the ChainState a single-chain caller holds."""
    edges = tuple((a, b, w) for (a, b, _), w in zip(stack.graph.edges, stack.weights[k].tolist()))
    graph = WeightedGraph(stack.graph.vertices, edges)
    return ChainState(graph, PureState(graph.n, stack.rows[k]), stack.logical_pairs)


# angles within reach of pi: pi itself (a second success), and just outside
# WEIGHT_TOL of it, where a failure sub-outcome falls below ZERO_PROB_CUTOFF
NEAR_PI = st.sampled_from([math.pi, math.pi - 5e-8, -(math.pi - 5e-8)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), k=st.integers(1, 5), data=st.data())
def test_create_logical_qubit_rows_equal_single_calls(n, k, data):
    """Each row's own eligibility case, pi and near-pi rows among the rest;
    maybe a logical pair formed first, and maybe one ineligible row."""
    labels = [f"v{j}" for j in range(n)]
    weights = weight_stack(data, k, n - 1)
    pair_at = None
    if n >= 5 and data.draw(st.booleans()):
        pair_at = data.draw(st.integers(1, n - 2))
        weights[:, pair_at] = weights[:, pair_at - 1]
    free = [j for j in range(1, n - 1) if pair_at is None or abs(j - pair_at) >= 2]
    assume(free)
    i = data.draw(st.sampled_from(free))
    for row in range(k):  # vertex i's edges are weights[:, i - 1] and weights[:, i]
        if data.draw(st.integers(0, 2)) == 0:
            weights[row, i - 1] = data.draw(NEAR_PI)
        case1 = data.draw(st.booleans())
        weights[row, i] = weights[row, i - 1] if case1 else -weights[row, i - 1]
    bad = data.draw(st.sampled_from([None, None, None, data.draw(st.integers(0, k - 1))]))
    if bad is not None:
        weights[bad, i] += data.draw(st.floats(0.1, 1.0))
        assume(abs(wrap_angle(weights[bad, i])) > 0.01)
    stack = make_chain_stack(labels, weights)
    if pair_at is not None:
        stack = logical_pair_stack(stack, labels[pair_at])
    singles = _single_outcomes(
        [lambda r=r: create_logical_qubit(_row_chain(stack, r), labels[i]) for r in range(k)]
    )
    assert bad is not None or _first_error(singles) is None
    _assert_stack_matches(lambda: create_logical_qubit(stack, labels[i]), singles)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nl=st.integers(2, 5), nr=st.integers(2, 5), k=st.integers(1, 4), data=st.data())
def test_fuse_type_i_rows_equal_single_calls(nl, nr, k, data):
    """Row-paired left and right chains, the left maybe carrying a logical pair,
    fused at endpoints, or refused at an interior vertex."""
    ll, rl = [f"l{j}" for j in range(nl)], [f"r{j}" for j in range(nr)]
    lw = weight_stack(data, k, nl - 1)
    paired = nl >= 4 and data.draw(st.booleans())
    if paired:
        lw[:, 1] = lw[:, 0]
    left = make_chain_stack(ll, lw)
    if paired:
        left = logical_pair_stack(left, ll[1])
    right = make_chain_stack(rl, weight_stack(data, k, nr - 1))
    end_b = data.draw(st.sampled_from(rl))
    singles = _single_outcomes(
        [
            lambda r=r: fuse_type_i(_row_chain(left, r), ll[-1], _row_chain(right, r), end_b, "c")
            for r in range(k)
        ]
    )
    assert (_first_error(singles) is None) == (end_b in (rl[0], rl[-1]))
    _assert_stack_matches(lambda: fuse_type_i(left, ll[-1], right, end_b, new_label="c"), singles)


def test_fuse_type_i_refuses_stacks_of_two_lengths():
    left = make_chain_stack(["a", "b"], [[0.4], [0.5]])
    right = make_chain_stack(["c", "d"], [[0.4]])
    with pytest.raises(InputError):
        fuse_type_i(left, "b", right, "c")


def test_post_state_type_follows_the_row_count():
    """A 3-row call returns ChainStack post-states, each outcome's rows in
    one stack, and refuses to be sampled; a one-row call, on a ChainState or a one-row stack, returns
    ChainStates whose graphs carry the row's weights."""
    weights = [[0.4, 1.1], [0.5, -0.9], [2.0, 0.3]]
    left = make_chain_stack(["a1", "a2", "a3"], weights)
    right = make_chain_stack(["b1", "b2", "b3"], weights[::-1])
    outs = fuse_type_i(left, "a3", right, "b1")
    posts = [p for o in outs for p in o.post_states]
    assert posts and all(type(p) is ChainStack and len(p.rows) == 3 for p in posts)
    # a 3-row outcome has no one probability to sample or report
    with pytest.raises(InputError, match="on 3 rows"):
        sample_outcomes(outs, 10, seed=1)
    for one_left, one_right in (
        (make_chain(["a1", "a2", "a3"], weights[1]), make_chain(["b1", "b2", "b3"], weights[1])),
        (left.take([1]), right.take([1])),
    ):
        outs = fuse_type_i(one_left, "a3", one_right, "b1")
        posts = [p for o in outs for p in o.post_states]
        assert posts and all(type(p) is ChainState for p in posts)
        assert [o.probability for o in outs] == [0.25] * 4
        merged = outs[0].post_states[0]
        assert [w for *_, w in merged.graph.edges] == merged.weights[0].tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nr=st.integers(3, 5), k=st.integers(1, 5), data=st.data())
def test_fuse_type_ii_rows_equal_single_calls(nr, k, data):
    """One logical-pair left chain per row against right chains whose rows
    make the b-side failures good (Case 2, or pi for both), vanish (tiny
    weights, so z is near 1) or neither; one row's state may come from other
    weights than the row claims (a z mismatch)."""
    left = _left_stack(data, k)
    labels = [f"r{j}" for j in range(nr)]
    j = data.draw(st.integers(1, nr - 2) | st.integers(0, nr - 1))  # mostly interior: good failures
    claimed = weight_stack(data, k, nr - 1)
    for row in range(k):
        kind = data.draw(st.sampled_from(["any", "case2", "case2", "pi", "tiny"]))
        if kind == "tiny":
            claimed[row] = 1e-7
        elif kind != "any" and 0 < j < nr - 1:  # b's edges are claimed[:, j - 1] and claimed[:, j]
            claimed[row, j] = -claimed[row, j - 1] if kind == "case2" else math.pi
            claimed[row, j - 1] = claimed[row, j - 1] if kind == "case2" else math.pi
    built = claimed.copy()
    bad = data.draw(st.sampled_from([None, None, None, data.draw(st.integers(0, k - 1))]))
    if bad is not None:
        built[bad] = weight_stack(data, 1, nr - 1)[0]
    stack = make_chain_stack(labels, claimed)
    stack = ChainStack(stack.graph, stack.weights, make_chain_stack(labels, built).rows)
    singles = _single_outcomes(
        [
            lambda r=r: fuse_type_ii(_row_chain(left, r), ("B", "D"), _row_chain(stack, r), labels[j], "D")
            for r in range(k)
        ]
    )
    assert bad is not None or _first_error(singles) is None
    _assert_stack_matches(
        lambda: fuse_type_ii(left, ("B", "D"), stack, labels[j], consume="D"), singles
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), data=st.data())
def test_ghz_pair_for_target_stack_rows_equal_single_calls(k, data):
    """(chi1, chi2, target) rows, zero weights (only phi = 0 reachable) and
    in-range targets among them; maybe one row with a non-finite angle or an
    out-of-range target."""
    rows = []
    for _ in range(k):
        c1, c2 = data.draw(GHZ_ANGLES), data.draw(GHZ_ANGLES)
        reach = ghz_pair_range(c1, c2) * data.draw(st.floats(0.0, 1.0) | st.just(1.0))
        rows.append([c1, c2, reach * data.draw(st.sampled_from([-1.0, 1.0]))])
    bad = data.draw(st.none() | st.integers(0, k - 1))
    if bad is not None:
        column = data.draw(st.integers(0, 2))
        if column == 2 and data.draw(st.booleans()):
            rows[bad][2] = ghz_pair_range(*rows[bad][:2]) + data.draw(st.floats(0.01, 0.5))
        else:
            rows[bad][column] = data.draw(NON_FINITE)
    singles = _single_outcomes([lambda r=r: ghz_pair_for_target_stack(*zip(r))[0] for r in rows])
    error = _first_error(singles)
    if error is not None:
        with pytest.raises(error) as exc:
            ghz_pair_for_target_stack(*zip(*rows))
        assert type(exc.value) is error
        return
    assert bad is None or rows[bad][2] > math.pi  # a target past pi wraps back into range
    kets = ghz_pair_for_target_stack(*zip(*rows))
    assert kets.shape == (k, 2, 2)
    for got, one in zip(kets, singles):
        assert [_hex(c) for c in got.ravel()] == [_hex(c) for c in one.ravel()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 6), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_fidelity_rows_equal_single_calls(n, k, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, k, 1 << n)) + 1j * rng.normal(size=(2, k, 1 << n))
    a, b = (x / np.linalg.norm(x, axis=1)[:, None] for x in (a, b))
    b[rng.random(k) < 0.3] = a[0]  # some rows compare equal states
    got = fidelity_rows(a, b)
    assert [float.hex(f) for f in got.tolist()] == [
        float.hex(fidelity_up_to_global_phase(PureState(n, x), PureState(n, y))) for x, y in zip(a, b)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(phis=st.lists(GHZ_ANGLES | st.just(1e-13) | st.just(-math.pi), min_size=1, max_size=6))
def test_weighted_pair_rows_equal_the_chain_builds(phis):
    """A phi that wraps below ZERO_WEIGHT drops its edge, as chain_graph drops it."""
    for row, phi in zip(weighted_pair_rows(phis), phis):
        assert np.array_equal(row, build_state(chain_graph(["b1", "b2"], [phi])).amplitudes)
