"""Every protocol post-state is the state its graph and logical pairs describe.

The oracle is independent of the protocol code: contract the logical pairs
(union-find, so pairs sharing a member form one logical qubit), build the
weighted graph state over the contracted vertices, and copy each
representative's bit onto its partners.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgfusion.errors import (
    InvalidGraphError,
    NoLogicalPairError,
    NotEndpointError,
    WeightsNotEligibleError,
    WgfError,
    ZeroOutcomeError,
)
from wgfusion.graphstate import PureState, WeightedGraph, wrap_angle
from wgfusion.protocols import (
    ChainStack,
    ChainState,
    create_logical_qubit,
    fuse_type_i,
    fuse_type_ii,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    type_ii_probabilities_stack,
    xlike_probability_stack,
)

TOL = 1e-10


def encoding_oracle(graph, pairs) -> np.ndarray:
    """Amplitudes of the weighted graph state with each pair's bits tied."""
    rep = {v: v for v in graph.vertices}

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    for a, e in (tuple(p) for p in pairs):
        rep[find(e)] = find(a)
    roots = sorted({find(v) for v in graph.vertices}, key=graph.vertices.index)
    k, n = len(roots), graph.n
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    full = bits[:, [roots.index(find(v)) for v in graph.vertices]]
    phase = np.zeros(1 << k)
    for a, b, chi in graph.edges:
        phase += chi * full[:, graph.vertex_index(a)] * full[:, graph.vertex_index(b)]
    amps = np.zeros(1 << n, dtype=complex)
    amps[full @ (1 << np.arange(n - 1, -1, -1))] = np.exp(-1j * phase) / math.sqrt(1 << k)
    return amps


def oracle_distance(post: ChainStack) -> float:
    """Max amplitude deviation of a one-row stack from the encoding oracle,
    global phase aligned."""
    want = encoding_oracle(post.graph, post.logical_pairs)
    (got,) = post.rows
    overlap = np.vdot(want, got)
    if abs(overlap) < 0.5:
        return float("inf")
    return float(np.max(np.abs(got - want * overlap / abs(overlap))))


def test_oracle_reproduces_a_logical_pair_chain():
    # A-B=D-E: the logical pair {B, D} carries C's two neighbours as one qubit
    chain = logical_pair_stack(make_chain(list("ABCDE"), [0.4, 1.1, 1.1, 0.8]), "C")
    assert chain.logical_pairs == {frozenset({"B", "D"})}
    assert oracle_distance(chain) < TOL
    # without the pair, the same amplitudes are not the graph's state
    untied = ChainState(chain.graph, PureState(chain.graph.n, chain.rows[0]), frozenset())
    assert oracle_distance(untied) > 0.1


def test_pairs_sharing_a_member_form_one_logical_qubit():
    chain = logical_pair_stack(make_chain(list("ABCDEF"), [0.4, 0.4, 1.1, 1.1, 0.8]), "B")
    chain = logical_pair_stack(chain, "D")
    assert chain.logical_pairs == {frozenset("AC"), frozenset("CE")}
    assert oracle_distance(chain) < TOL


@pytest.mark.parametrize(
    "edges, pairs",
    [
        ((("x", "p", 0.5), ("x", "q", 0.7)), [("p", "q")]),
        # {p, q} and {q, r} are one logical qubit, which x meets twice
        ((("x", "p", 0.5), ("x", "r", 0.7)), [("p", "q"), ("q", "r")]),
    ],
    ids=["one-pair", "shared-member"],
)
def test_a_contracted_double_edge_is_a_cycle(edges, pairs):
    g = WeightedGraph(("x", "p", "q", "r"), edges)
    pairs = {frozenset(p) for p in pairs}
    state = PureState(4, encoding_oracle(g, pairs))
    with pytest.raises(InvalidGraphError, match="cycle"):
        ChainState(g, state, pairs)


# ------------------------------------- logical X and Z on a whole logical qubit


def _distribution_matches_the_oracle(outs) -> None:
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=TOL)
    for o in outs:
        for post in o.post_states:
            assert oracle_distance(post) < TOL


def test_failure_split_z_measures_a_pair_member_as_one_logical_qubit():
    # E's failure branch on A-B=D-E-F-G-H Z-measures D, so B goes with it
    weights = [0.4, 1.1, 1.1, 0.8, 0.8, 1.3, 1.3]
    chain = logical_pair_stack(make_chain(list("ABCDEFGH"), weights), "C")
    outs = create_logical_qubit(chain, "E")
    _distribution_matches_the_oracle(outs)
    fails = [o for o in outs if o.label.startswith("failure_z")]
    assert len(fails) == 4
    for o in fails:
        assert [p.graph.vertices for p in o.post_states] == [("A",), ("G", "H")]
        assert all(not p.logical_pairs for p in o.post_states)
    # outcome 1 on D's logical qubit corrects B's neighbour A
    assert [c.vertex for c in fails[3].corrections_applied] == ["A", "G"]


def test_case_2_correction_on_a_pair_member_is_a_logical_x():
    # E's Case-2 weights X-correct D, a member of {B, D}: B flips with it
    chain = logical_pair_stack(make_chain(list("ABCDEF"), [0.4, 1.1, 1.1, 0.8, -0.8]), "C")
    got = logical_pair_stack(chain, "E")
    assert got.logical_pairs == {frozenset("BD"), frozenset("DF")}
    assert got.graph.weight("A", "B") == pytest.approx(-0.4)
    assert oracle_distance(got) < TOL
    _distribution_matches_the_oracle(create_logical_qubit(chain, "E"))


# ------------------------------------------------------ Type-II trees


def _type_ii_tree() -> ChainStack:
    # D inherits B's edge A-B and b's edges v-b, b-w: deg(D) = 3
    left = logical_pair_stack(make_chain(list("ABCD"), [1.0, 0.7, 0.7]), "C")
    right = make_chain(["v", "b", "w", "x"], [0.9, 1.4, -1.4])
    outs = fuse_type_ii(left, ("B", "D"), right, "b")
    return next(o for o in outs if o.label == "success_plus").post_states[0]


def test_type_ii_success_at_an_interior_b_is_a_tree():
    tree = _type_ii_tree()
    assert sorted(v for v, _ in tree.graph.neighbors("D")) == ["A", "v", "w"]
    assert oracle_distance(tree) < TOL


def test_logical_qubit_on_a_type_ii_tree():
    # w's Case-2 weights (1.4, -1.4) X-correct its first neighbour D, which
    # has two more neighbours (A, v): both edges flip sign
    tree = _type_ii_tree()
    outs = create_logical_qubit(tree, "w")
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=TOL)
    for o in outs:
        for post in o.post_states:
            assert oracle_distance(post) < TOL
    got = logical_pair_stack(tree, "w")
    assert got.logical_pairs == {frozenset({"D", "x"})}
    assert got.graph.weight("A", "D") == pytest.approx(-1.0)
    assert got.graph.weight("D", "v") == pytest.approx(-0.9)
    assert oracle_distance(got) < TOL


def test_type_i_on_a_leaf_of_a_type_ii_tree():
    outs = fuse_type_i(_type_ii_tree(), "x", make_chain(["p", "q"], [0.5]), "p", new_label="c")
    assert [o.probability for o in outs] == pytest.approx([0.25] * 4, abs=TOL)
    merged = outs[0].post_states[0]
    assert merged.graph.degree("D") == 3 and merged.graph.degree("c") == 2
    for o in outs:
        for post in o.post_states:
            assert oracle_distance(post) < TOL


# -------------------------------------------- Type-II failures that are not good


def test_type_ii_failures_list_only_states_their_graphs_describe():
    rng = np.random.default_rng(5)
    not_good = 0
    for _ in range(60):
        chi = float(rng.uniform(0.2, 3.0)) * rng.choice([-1.0, 1.0])
        left = logical_pair_stack(make_chain(list("ABCDE"), [0.6, chi, chi, 1.2]), "C")
        n = int(rng.integers(2, 6))
        weights = list(rng.uniform(-math.pi, math.pi, n - 1))
        right = make_chain([f"r{i}" for i in range(n)], weights)
        b = f"r{int(rng.integers(n))}"
        for o in fuse_type_ii(left, ("B", "D"), right, b):
            for post in o.post_states:
                assert oracle_distance(post) < TOL
            if o.label.startswith("failure") and o.post_states:
                # the left post-state always; the right one only when good
                assert len(o.post_states) == (2 if o.is_good_failure else 1)
                not_good += not o.is_good_failure
    assert not_good == 120


# ----------------------------------------------------------- property

ANGLES = st.one_of(
    st.floats(0.05, math.pi).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([math.pi, math.pi / 2, -math.pi / 2]),
)
# a protocol may refuse an input with one of these; it never returns a wrong state.
# NoLogicalPairError includes an X-like projection of a logical-pair member: the
# paper forms a logical qubit only from a plain interior vertex, so create_logical_qubit
# and logical_pair_stack refuse a member instead of extending its pair.
REFUSALS = (WeightsNotEligibleError, NoLogicalPairError, NotEndpointError)


@st.composite
def eligible_chains(draw, prefix: str) -> tuple[ChainState, str]:
    """A chain with an interior vertex whose weights are Case 1 or Case 2."""
    n = draw(st.integers(3, 6))
    weights = draw(st.lists(ANGLES, min_size=n - 1, max_size=n - 1))
    k = draw(st.integers(1, n - 2))
    weights[k] = weights[k - 1] if draw(st.booleans()) else wrap_angle(-weights[k - 1])
    labels = [f"{prefix}{i}" for i in range(n)]
    return make_chain(labels, weights), labels[k]


@st.composite
def forests(draw) -> ChainStack:
    """A plain chain, a logical-pair chain, a Type-II tree, or a tree with a pair."""
    chain, v = draw(eligible_chains("r"))
    kind = draw(st.sampled_from(["chain", "pair", "tree", "tree+pair"]))
    if kind == "chain":
        return chain
    if kind == "pair":
        return logical_pair_stack(chain, v)
    left = logical_pair_stack(*draw(eligible_chains("l")))
    pair = tuple(next(iter(left.logical_pairs)))
    b = draw(st.sampled_from(chain.graph.vertices))
    outs = fuse_type_ii(left, pair, chain, b, consume=draw(st.sampled_from(pair)))
    tree = draw(st.sampled_from([o for o in outs if o.label.startswith("success")])).post_states[0]
    if kind == "tree+pair" and v in tree.graph.vertices:
        try:
            return logical_pair_stack(tree, v)
        except REFUSALS:
            pass
    return tree


def _post_states(fn, *args) -> list[ChainStack]:
    try:
        outs = fn(*args)
    except REFUSALS:
        return []
    if isinstance(outs, ChainStack):
        return [outs]
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=TOL)
    return [post for o in outs for post in o.post_states]


@settings(max_examples=60, deadline=None)
@given(forests(), eligible_chains("x"), st.data())
def test_every_post_state_matches_the_encoding_oracle(base, other, data):
    posts = [base]
    for v in base.graph.vertices:
        posts += _post_states(create_logical_qubit, base, v)
        posts += _post_states(logical_pair_stack, base, v)
        posts += _post_states(fuse_type_i, base, v, make_chain(["p", "q"], [0.8]), "p")
    left = logical_pair_stack(*other)
    pair = tuple(next(iter(left.logical_pairs)))
    b = data.draw(st.sampled_from(base.graph.vertices))
    posts += _post_states(fuse_type_ii, left, pair, base, b)
    for post in posts:
        assert oracle_distance(post) < TOL


# ----------------------------------------- weights at and near the eligible set

# Offsets from an eligible case that WEIGHT_TOL admits: the X-like branch of a
# row off by delta keeps mixed-bit amplitudes of order delta on its new pair.
OFFSETS = st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-10, -1e-10, 9e-10, -9e-10])
# ordinary weights, pi, and tiny eligible ones from 1e-8 to 1e-3, whose weak
# success branch amplifies round-off by 1/sqrt(p)
NEAR_BASES = ANGLES | st.floats(-8.0, -3.0).map(lambda e: 10.0**e) | st.just(math.pi)
# what a protocol may answer such a row with, besides a checked post-state
NEAR_REFUSALS = (WeightsNotEligibleError, ZeroOutcomeError)


def _answers(call, one_chain: bool) -> None:
    """call() returns checked post-states or raises NEAR_REFUSALS; the
    post-states of a one-chain call also match the encoding oracle."""
    try:
        outs = call()
    except NEAR_REFUSALS:
        return
    if one_chain:
        posts = [outs] if isinstance(outs, ChainStack) else [p for o in outs for p in o.post_states]
        for post in posts:
            assert oracle_distance(post) < TOL


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), k=st.integers(1, 3), data=st.data())
def test_an_eligible_vertex_is_answered_never_refused_as_a_graph(n, k, data):
    """X-like projections at an interior vertex whose weights meet a case
    exactly or within WEIGHT_TOL, one chain at a time and as a stack, maybe
    next to a logical pair formed first: every call returns checked
    post-states or raises WeightsNotEligibleError or ZeroOutcomeError,
    never InvalidGraphError."""
    labels = [f"v{j}" for j in range(n)]
    i = data.draw(st.integers(1, n - 2))
    case1 = data.draw(st.booleans())
    pair_at = data.draw(st.sampled_from([None] + [j for j in range(1, n - 1) if abs(j - i) >= 2]))
    rows = []
    for _ in range(k):  # vertex i's edges are w[i - 1] and w[i]
        w = data.draw(st.lists(ANGLES, min_size=n - 1, max_size=n - 1))
        w[i - 1] = data.draw(NEAR_BASES)
        w[i] = (w[i - 1] if case1 else -w[i - 1]) + data.draw(OFFSETS)
        if pair_at is not None:
            w[pair_at] = w[pair_at - 1]
        rows.append(w)

    def paired(chains):
        return chains if pair_at is None else logical_pair_stack(chains, labels[pair_at])

    for w in rows:
        chain = paired(make_chain(labels, w))
        _answers(lambda: create_logical_qubit(chain, labels[i]), one_chain=True)
        _answers(lambda: logical_pair_stack(chain, labels[i]), one_chain=True)
    stack = paired(make_chain_stack(labels, rows))
    _answers(lambda: create_logical_qubit(stack, labels[i]), one_chain=False)
    _answers(lambda: logical_pair_stack(stack, labels[i]), one_chain=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), data=st.data())
def test_a_near_eligible_good_failure_is_answered_never_refused_as_a_graph(k, data):
    """Type-II fusion at a right vertex b whose weights meet Case 2, or pi for
    both, exactly or within WEIGHT_TOL: the good-failure branch is computed
    only where it resolves its new pair."""
    left = logical_pair_stack(make_chain(list("ABCD"), [math.pi] * 3), "C")
    rows = []
    for _ in range(k):
        x, d = data.draw(NEAR_BASES), data.draw(OFFSETS)
        rows.append([math.pi, math.pi + d] if data.draw(st.booleans()) else [x, -x + d])
    for w in rows:
        right = make_chain(["v", "b", "w"], w)
        _answers(lambda: fuse_type_ii(left, ("B", "D"), right, "b", "D"), one_chain=True)
    stack = make_chain_stack(["v", "b", "w"], rows)
    lefts = left.take(np.zeros(k, dtype=int))
    _answers(lambda: fuse_type_ii(lefts, ("B", "D"), stack, "b", "D"), one_chain=False)


# ------------------------------------------------ probability-only paths


def _result(fn, *args):
    """fn's value, or the type and message of the WgfError it raises."""
    try:
        return fn(*args)
    except WgfError as exc:
        return type(exc), str(exc)


def _xlike_probability(chain, a) -> float:
    """xlike_probability_stack on a one-row chain."""
    return float(xlike_probability_stack(chain, a)[0])


def _type_ii_probabilities(*args) -> dict[str, float]:
    """type_ii_probabilities_stack on a one-row right chain."""
    return {label: float(p[0]) for label, p in type_ii_probabilities_stack(*args).items()}


def _primary_probability(chain, a) -> float:
    return create_logical_qubit(chain, a)[0].probability


def _type_ii_table(*args) -> dict[str, float]:
    return {o.label: o.probability for o in fuse_type_ii(*args)}


def _assert_probabilities_match_the_protocols(base, left, pair, b, consume) -> None:
    for v in base.graph.vertices:
        assert _result(_xlike_probability, base, v) == _result(_primary_probability, base, v)
    args = (left, pair, base, b, consume)
    assert _result(_type_ii_probabilities, *args) == _result(_type_ii_table, *args)


@settings(max_examples=60, deadline=None)
@given(forests(), eligible_chains("x"), st.data())
def test_probability_paths_equal_the_protocol_outcomes(base, other, data):
    # exact equality: the protocols take their probabilities from the same helpers
    left = logical_pair_stack(*other)
    pair = tuple(next(iter(left.logical_pairs)))
    b = data.draw(st.sampled_from(base.graph.vertices))
    consume = data.draw(st.sampled_from(pair + (None,)))
    _assert_probabilities_match_the_protocols(base, left, pair, b, consume)


def test_probability_paths_equal_the_protocol_outcomes_on_seeded_chains():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        weights = list(rng.uniform(-math.pi, math.pi, n - 1))
        k = int(rng.integers(1, n - 1))
        # two in three draws are eligible at k, as Case 1 or Case 2
        flip = rng.integers(3)
        if flip < 2:
            weights[k] = weights[k - 1] if flip == 0 else wrap_angle(-weights[k - 1])
        chain = make_chain([f"r{i}" for i in range(n)], weights)
        base = logical_pair_stack(chain, f"r{k}") if flip < 2 and rng.integers(2) else chain
        chi = float(rng.uniform(0.2, 3.0))
        left = logical_pair_stack(make_chain(list("ABCDE"), [0.6, chi, -chi, 1.2]), "C")
        b = base.graph.vertices[int(rng.integers(base.graph.n))]
        consume = ["B", "D", None][int(rng.integers(3))]
        _assert_probabilities_match_the_protocols(base, left, ("B", "D"), b, consume)


def test_probability_paths_refuse_like_the_protocols():
    chain = make_chain(list("abcde"), [1.0, 0.7, 0.7, 0.4])
    paired = logical_pair_stack(chain, "c")  # pair {b, d}
    left = logical_pair_stack(make_chain(list("ABCD"), [1.0, 0.7, 0.7]), "C")
    # x - p - y with p's bit copied onto q: p is an interior pair member
    g = WeightedGraph(("x", "p", "q", "y"), (("x", "p", 0.6), ("p", "y", 0.6)))
    pq = {frozenset({"p", "q"})}
    member = ChainState(g, PureState(4, encoding_oracle(g, pq)), pq)
    xlike = [
        (chain, "a", WeightsNotEligibleError),  # degree 1
        (chain, "b", WeightsNotEligibleError),  # weights (1.0, 0.7): neither case
        (member, "p", NoLogicalPairError),  # a pair member
    ]
    for base, a, error in xlike:
        want = _result(_primary_probability, base, a)
        assert want[0] is error
        assert _result(_xlike_probability, base, a) == want
    type_ii = [
        (left, ("B", "D"), chain, "c", "A"),  # consume outside the pair
        (left, ("B", "D"), paired, "b", None),  # b in a right-hand logical pair
        (left, ("A", "B"), chain, "c", None),  # not a registered pair
    ]
    for args in type_ii:
        want = _result(_type_ii_table, *args)
        assert want[0] is NoLogicalPairError
        assert _result(_type_ii_probabilities, *args) == want
