"""The batch axis: a stacked call is row for row the single-state call.

build_state over a (K, E) weight array, the X-like branch over a ChainStack
and the stacked fusion contexts of the generalized-oracle ensemble each
run one code path; these properties hold row k of a stack to the K = 1 call
on row k's inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgfusion import verify
from wgfusion.errors import InvalidGraphError, WeightsNotEligibleError, ZeroOutcomeError
from wgfusion.fock import ModeUnitary, haar_unitary
from wgfusion.graphstate import WeightedGraph, build_state, wrap_angle
from wgfusion.protocols import (
    create_logical_qubit,
    fusion_context,
    logical_pair_chain,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    xlike_probability,
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
        case1 = data.draw(st.booleans())
        weights[:, i] = weights[:, i - 1] if case1 else -weights[:, i - 1]
    stack = make_chain_stack(labels, weights)
    chains = [make_chain(labels, w) for w in weights]
    for i in steps:
        # weights near +-pi meet both cases, and Case 1 is preferred
        if len({create_logical_qubit(c, labels[i])[0].label for c in chains}) > 1:
            with pytest.raises(WeightsNotEligibleError):
                logical_pair_stack(stack, labels[i])
            return
        stack = logical_pair_stack(stack, labels[i])
        chains = [logical_pair_chain(c, labels[i]) for c in chains]
        for row, w, one in zip(stack.rows, stack.weights, chains):
            assert np.array_equal(row, one.state.amplitudes)
            assert w.tolist() == [chi for _, _, chi in one.graph.edges]
            assert stack.logical_pairs == one.logical_pairs


def test_case2_sign_flip_keeps_a_pi_weight_wrapped():
    # the Case-2 X on v1 flips its edge to v0; -pi wraps back to pi
    stack = make_chain_stack(["v0", "v1", "v2", "v3"], [[math.pi, 0.7, -0.7], [0.4, 0.7, -0.7]])
    after = logical_pair_stack(stack, "v2")
    assert after.weights[:, 0].tolist() == [math.pi, -0.4]


def test_stacked_xlike_refuses_rows_of_two_cases():
    stack = make_chain_stack(list("abc"), [[0.7, 0.7], [0.7, -0.7]])
    with pytest.raises(WeightsNotEligibleError):
        logical_pair_stack(stack, "b")


def _reference_contexts(seed: int, draws: int):
    """The per-draw setup the stacked one replaced: make_chain, logical_pair_chain and
    fusion_context for each draw, in _random_fusion_setup's rng order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        u = ModeUnitary(haar_unitary(int(rng.integers(4, 9)), rng)).matrix
        w1 = float(rng.uniform(0.1, math.pi)) * float(rng.choice([-1.0, 1.0]))
        chi = float(rng.uniform(0.1, math.pi - 0.1))
        lw = [w1, chi, chi] if rng.uniform() < 0.5 else [w1, chi, wrap_angle(-chi)]
        left = logical_pair_chain(make_chain(["A", "B", "C", "D"], lw), "C")
        labels = ["v", "b"] if rng.uniform() < 0.5 else ["v", "b", "w"]
        right = make_chain(labels, verify._rand_weights(rng, len(labels) - 1))
        ctx = fusion_context(left, ("B", "D"), right, "b", consume="D")
        out.append((u, ctx.f1.amplitudes, ctx.f2.amplitudes, ctx.f3.amplitudes, ctx.f4.amplitudes, ctx.z))
    return out


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 40))
def test_stacked_fusion_setup_equals_the_per_draw_contexts(seed, draws):
    us, lengths, rows, contexts = verify._random_fusion_setup(np.random.default_rng(seed), draws)
    for i, (u, *ref) in enumerate(_reference_contexts(seed, draws)):
        assert np.array_equal(us[i], u)
        got = [x[rows[i]] for x in contexts[lengths[i]]]
        for a, b in zip(got, ref):
            assert np.shape(a) == np.shape(b)
            assert np.max(np.abs(a - b)) <= 1e-15


def test_vanishing_xlike_branch_is_a_typed_refusal():
    chain = make_chain(list("abc"), [1e-7, 1e-7])  # eligible, above ZERO_WEIGHT
    prob = xlike_probability(chain, "b")
    for fn in (create_logical_qubit, logical_pair_chain):
        with pytest.raises(ZeroOutcomeError) as exc:
            fn(chain, "b")
        assert " b " in str(exc.value) and repr(prob) in str(exc.value)
    stack = make_chain_stack(list("abc"), [[0.9, 0.9], [1e-7, 1e-7]])
    with pytest.raises(ZeroOutcomeError):
        logical_pair_stack(stack, "b")
