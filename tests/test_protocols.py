from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from wgfusion.errors import (
    InputError,
    InvalidGraphError,
    NoLogicalPairError,
    NotAchievableError,
    NotEndpointError,
    WeightsNotEligibleError,
)
from wgfusion.fock import ModeUnitary, oracle_enumerate, type_ii_matrix
from wgfusion.graphstate import (
    PureState,
    WeightedGraph,
    build_state,
    chain_graph,
    fidelity_rows,
    fidelity_up_to_global_phase,
    project_qubit,
    wrap_angle,
)
from wgfusion import protocols
from wgfusion.protocols import (
    ChainState,
    OutcomeStack,
    create_logical_qubit,
    fuse_generalized,
    fuse_type_i,
    fuse_type_ii,
    fusion_context_rows,
    ghz_pair_for_target_stack,
    ghz_pair_projection,
    ghz_pair_range,
    local_equivalent_rows,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    rez_formula,
    sample_outcomes,
    type_ii_probabilities_stack,
    weighted_pair_rows,
)


def _success(outcomes):
    return [o for o in outcomes if o.label.startswith("success")]


def _logical_left(weights):
    chain = make_chain(["A", "B", "C", "D"], weights)
    return _success(create_logical_qubit(chain, "C"))[0].post_states[0]


# ---------------------------------------------------------------- type I


def test_type_i_two_2chains_gives_3chain():
    left = make_chain(["a", "b"], [0.9])
    right = make_chain(["c", "d"], [-1.7])
    outs = fuse_type_i(left, "b", right, "c", new_label="m")
    assert [o.probability for o in outs] == pytest.approx([0.25] * 4, abs=1e-12)
    post = _success(outs)[0].post_states[0]
    # the merged vertex inherits both neighbors and weights
    assert dict(post.graph.neighbors("m")) == {"a": pytest.approx(0.9), "d": pytest.approx(-1.7)}
    target = build_state(post.graph)
    assert fidelity_up_to_global_phase(post.state, target) == pytest.approx(1.0, abs=1e-10)


def test_type_i_pi_weights_graph_state():
    left = make_chain(["a", "b"], [math.pi])
    right = make_chain(["c", "d"], [math.pi])
    outs = fuse_type_i(left, "b", right, "c", new_label="m")
    post = _success(outs)[0].post_states[0]
    merged = build_state(post.graph)
    assert fidelity_up_to_global_phase(post.state, merged) == pytest.approx(1.0, abs=1e-10)
    assert all(abs(abs(w) - math.pi) < 1e-12 for _, _, w in post.graph.edges)


def test_type_i_requires_endpoints():
    left = make_chain(["a", "b", "c"], [1.0, 1.0])
    right = make_chain(["d", "e"], [1.0])
    with pytest.raises(NotEndpointError):
        fuse_type_i(left, "b", right, "d")


def test_type_i_failures_are_z_measured_chains():
    left = make_chain(["a", "b", "c"], [0.6, 1.2])
    right = make_chain(["d", "e", "f"], [-0.5, 0.8])
    outs = fuse_type_i(left, "c", right, "d")
    for o in outs:
        if not o.label.startswith("failure"):
            continue
        assert len(o.post_states) == 2
        for post in o.post_states:
            target = build_state(post.graph)
            assert fidelity_up_to_global_phase(post.state, target) == pytest.approx(
                1.0, abs=1e-10
            )


# ------------------------------------------------------- logical qubit


def test_logical_qubit_case1_probability():
    chi = math.pi / 2
    outs = create_logical_qubit(make_chain(list("abcde"), [1.0, chi, chi, 0.7]), "c")
    succ = _success(outs)
    assert len(succ) == 1
    assert succ[0].probability == pytest.approx(0.25, abs=1e-12)
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


def test_logical_qubit_pi_both_outcomes_succeed():
    outs = create_logical_qubit(make_chain(list("abcd"), [1.0, math.pi, math.pi]), "c")
    succ = _success(outs)
    assert len(succ) == 2
    assert sum(o.probability for o in succ) == pytest.approx(1.0, abs=1e-12)


def test_logical_qubit_rejects_ineligible_weights():
    with pytest.raises(WeightsNotEligibleError):
        create_logical_qubit(make_chain(list("abcd"), [1.0, 0.4, 1.1]), "c")


def test_logical_qubit_case2_matches_case1_with_flipped_edge():
    # Case 2 (chi1 = -chi, chi2 = chi) output graph records the flipped phi1
    chi = 0.8
    out1 = _success(create_logical_qubit(make_chain(list("abcd"), [0.9, chi, chi]), "c"))[0]
    out2 = _success(create_logical_qubit(make_chain(list("abcd"), [0.9, -chi, chi]), "c"))[0]
    g1 = out1.post_states[0].graph
    g2 = out2.post_states[0].graph
    assert g1.weight("a", "b") == pytest.approx(0.9)
    assert g2.weight("a", "b") == pytest.approx(-0.9)
    assert out1.probability == pytest.approx(out2.probability, abs=1e-12)
    # both successes leave a valid logical pair
    for out in (out1, out2):
        assert out.post_states[0].pair_support_ok(frozenset({"b", "d"}))


def test_logical_qubit_failure_split_recovers_chains():
    outs = create_logical_qubit(make_chain(list("abcde"), [1.0, 0.7, 0.7, 1.3]), "c")
    fails = [o for o in outs if o.label.startswith("failure")]
    assert len(fails) == 4
    for o in fails:
        for post in o.post_states:
            target = build_state(post.graph)
            assert fidelity_up_to_global_phase(post.state, target) == pytest.approx(
                1.0, abs=1e-10
            )


def test_failure_split_keeps_a_logical_pair_in_one_component():
    # G's failure branches Z-measure F and H; the pair {B, D} (C measured
    # out) joins A-B and D-E into one post-state: the logical chain A-B=D-E
    weights = [0.4, 1.1, 1.1, 0.8, 0.9, 1.3, 1.3]
    chain = logical_pair_stack(make_chain(list("ABCDEFGH"), weights), "C")
    outs = create_logical_qubit(chain, "G")
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    want = logical_pair_stack(make_chain(list("ABCDE"), weights[:4]), "C")
    fails = [o for o in outs if o.label.startswith("failure_z")]
    assert len(fails) == 4
    for o in fails:
        (post,) = o.post_states
        assert post.graph.vertices == ("A", "B", "D", "E")
        assert post.logical_pairs == {frozenset({"B", "D"})}
        assert post.pair_support_ok(frozenset({"B", "D"}))
        assert fidelity_rows(post.rows, want.rows)[0] == pytest.approx(1.0, abs=1e-10)


def test_chain_with_unknown_pair_member_is_an_invalid_graph():
    g = chain_graph(["a", "b"], [0.5])
    with pytest.raises(InvalidGraphError, match="logical pair member not in graph"):
        ChainState(g, build_state(g), {frozenset({"a", "z"})})


def test_chain_with_a_one_member_pair_is_an_invalid_graph():
    g = chain_graph(["a", "b"], [0.5])
    with pytest.raises(InvalidGraphError, match="two members"):
        ChainState(g, build_state(g), {frozenset({"a"})})


@pytest.mark.parametrize(
    "weights",
    [[1.0, 0.7, 0.7, 1.3], [0.9, -0.8, 0.8, 1.3], [1.0, math.pi, math.pi, -0.4]],
    ids=["case1", "case2", "pi"],
)
def test_logical_pair_chain_is_the_primary_success_post_state(weights):
    chain = make_chain(list("abcde"), weights)
    want = _success(create_logical_qubit(chain, "c"))[0].post_states[0]
    got = logical_pair_stack(chain, "c")
    assert got.graph == want.graph
    assert got.logical_pairs == want.logical_pairs == {frozenset({"b", "d"})}
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.rows, want.rows)


def _pair_member_of_degree_two() -> ChainState:
    # x - p - y with p copied onto q: logical pair {p, q}, p interior
    amps = build_state(chain_graph(["x", "p", "y"], [0.6, 0.6])).amplitudes.reshape(2, 2, 2)
    enc = np.zeros((2, 2, 2, 2), dtype=complex)
    for bit in (0, 1):
        enc[:, bit, bit, :] = amps[:, bit, :]
    g = WeightedGraph(("x", "p", "q", "y"), (("x", "p", 0.6), ("p", "y", 0.6)))
    return ChainState(g, PureState(4, enc.reshape(-1)), {frozenset({"p", "q"})})


@pytest.mark.parametrize(
    "chain, vertex, error",
    [
        (make_chain(list("abcd"), [1.0, 0.7, 0.7]), "a", WeightsNotEligibleError),
        (make_chain(list("abcd"), [1.0, 0.4, 1.1]), "c", WeightsNotEligibleError),
        (_pair_member_of_degree_two(), "p", NoLogicalPairError),
    ],
    ids=["endpoint", "ineligible", "in-pair"],
)
def test_logical_pair_chain_raises_like_create_logical_qubit(chain, vertex, error):
    for fn in (create_logical_qubit, logical_pair_stack):
        with pytest.raises(error):
            fn(chain, vertex)


# ------------------------------------------------------------- type II


def test_type_ii_success_merges_chains():
    left = _logical_left([1.0, 0.7, 0.7])
    right = make_chain(["v", "w"], [0.9])
    outs = fuse_type_ii(left, ("B", "D"), right, "v", consume="D")
    succ = {o.label: o for o in _success(outs)}
    assert succ["success_plus"].probability == pytest.approx(0.25, abs=1e-12)
    assert succ["success_minus"].probability == pytest.approx(0.25, abs=1e-12)
    for o in succ.values():
        post = o.post_states[0]
        target = build_state(post.graph)
        assert fidelity_up_to_global_phase(post.state, target) == pytest.approx(
            1.0, abs=1e-10
        )


def test_type_ii_failure_probabilities_match_rez():
    chi = 1.1
    left = _logical_left([math.pi] * 3)
    right = make_chain(["v", "b", "w"], [chi, wrap_angle(-chi)])
    outs = {o.label: o for o in fuse_type_ii(left, ("B", "D"), right, "b", consume="D")}
    rez = rez_formula(chi, -chi)
    assert rez == pytest.approx((1 + math.cos(chi)) / 2, abs=1e-12)
    assert outs["failure_b_minus"].probability == pytest.approx((1 - rez) / 4, abs=1e-12)
    assert outs["failure_b_plus"].probability == pytest.approx((1 + rez) / 4, abs=1e-12)
    assert outs["failure_b_minus"].is_good_failure
    assert outs["failure_b_minus"].probability == pytest.approx(
        (1 - math.cos(chi)) / 8, abs=1e-12
    )


def test_type_ii_all_pi_failures_good_quarter_each():
    left = _logical_left([math.pi] * 3)
    right = make_chain(["v", "b", "w"], [math.pi, math.pi])
    outs = fuse_type_ii(left, ("B", "D"), right, "b", consume="D")
    for o in outs:
        assert o.probability == pytest.approx(0.25, abs=1e-12)
        if o.label.startswith("failure"):
            assert o.is_good_failure


def test_type_ii_requires_registered_pair():
    left = make_chain(["A", "B"], [1.0])
    right = make_chain(["v", "w"], [0.9])
    with pytest.raises(NoLogicalPairError):
        fuse_type_ii(left, ("A", "B"), right, "v")


def test_consume_outside_the_pair_is_refused():
    left = _logical_left([1.0, 0.7, 0.7])  # vertices A, B, D; pair {B, D}
    right = make_chain(["v", "b", "w"], [1.0, 1.0])
    calls = (
        lambda c: fuse_type_ii(left, ("B", "D"), right, "b", consume=c),
        lambda c: fusion_context_rows(left, ("B", "D"), right, "b", consume=c),
        lambda c: fuse_generalized(left, ("B", "D"), right, "b", type_ii_matrix(), consume=c),
    )
    for call in calls:
        for outside in ("A", 0):
            with pytest.raises(NoLogicalPairError):
                call(outside)
    probs = [
        [o.probability for o in fuse_type_ii(left, ("B", "D"), right, "b", consume=c)]
        for c in ("D", 2, "B", 1, None)
    ]
    assert probs[0] == probs[1] and probs[2] == probs[3] == probs[4]


# ---------------------------------------------------------- generalized


def test_generalized_reproduces_type_ii_distribution():
    left = _logical_left([1.0, 0.7, 0.7])
    right = make_chain(["v", "b", "w"], [0.9, wrap_angle(-0.9)])
    qouts = {o.label: o.probability for o in fuse_type_ii(left, ("B", "D"), right, "b", consume="D")}
    ctx, fouts = fuse_generalized(left, ("B", "D"), right, "b", type_ii_matrix(), consume="D")
    p = {o.pattern: o.probability for o in fouts}
    # cross-channel Bell patterns aggregate into the success branches
    assert p[(0, 2)] + p[(1, 3)] == pytest.approx(qouts["success_plus"], abs=1e-12)
    assert p[(0, 3)] + p[(1, 2)] == pytest.approx(qouts["success_minus"], abs=1e-12)
    assert p[(0, 0)] + p[(1, 1)] == pytest.approx(qouts["failure_b_minus"], abs=1e-12)
    assert p[(2, 2)] + p[(3, 3)] == pytest.approx(qouts["failure_b_plus"], abs=1e-12)


def test_generalized_matches_oracle():
    rng = np.random.default_rng(8)
    left = _logical_left([1.0, 0.9, 0.9])
    right = make_chain(["v", "b"], [1.3])
    u = ModeUnitary(unitary_group.rvs(5, random_state=rng))
    ctx, fouts = fuse_generalized(left, ("B", "D"), right, "v", u, consume="D")
    orc = {o.pattern: o.probability for o in oracle_enumerate(ctx, u)}
    for o in fouts:
        assert o.probability == pytest.approx(orc[o.pattern], abs=1e-12)
    assert sum(orc.values()) == pytest.approx(1.0, abs=1e-12)


def test_generalized_takes_one_chain_each():
    left = _logical_left([1.0, 0.9, 0.9])
    right = make_chain_stack(["v", "b"], [[1.3], [0.4]])
    with pytest.raises(InputError, match="row-paired stacks of 1 and 2 rows"):
        fuse_generalized(left, ("B", "D"), right, "v", type_ii_matrix(), consume="D")
    with pytest.raises(InputError, match="need one fusion, got a context of 2 rows"):
        fuse_generalized(left.take([0, 0]), ("B", "D"), right, "v", type_ii_matrix(), consume="D")


# every public protocol on a left and a right chain, on a logical-pair left
# A-B-D and a right v-b-w
TWO_CHAIN_CALLS = {
    "fuse_type_i": lambda left, right: fuse_type_i(left, "A", right, "v"),
    "fuse_type_ii": lambda left, right: fuse_type_ii(left, ("B", "D"), right, "b", "D"),
    "type_ii_probabilities_stack": lambda left, right: type_ii_probabilities_stack(
        left, ("B", "D"), right, "b", "D"
    ),
    "fusion_context_rows": lambda left, right: fusion_context_rows(left, ("B", "D"), right, "b", "D"),
    "fuse_generalized": lambda left, right: fuse_generalized(
        left, ("B", "D"), right, "b", type_ii_matrix(), "D"
    ),
}


def test_the_pairing_table_lists_every_two_chain_protocol():
    two_chain = {
        name
        for name, fn in inspect.getmembers(protocols, inspect.isfunction)
        if fn.__module__ == protocols.__name__
        and not name.startswith("_")
        and {"left", "right"} <= set(inspect.signature(fn).parameters)
    }
    assert two_chain == set(TWO_CHAIN_CALLS)


@pytest.mark.parametrize("name", sorted(TWO_CHAIN_CALLS))
def test_two_chain_protocols_take_row_paired_stacks(name):
    left = logical_pair_stack(make_chain_stack(list("ABCD"), [[1.0, 0.7, 0.7], [0.4, 1.2, 1.2]]), "C")
    right = make_chain_stack(["v", "b", "w"], [[0.9, -0.9], [1.3, 0.4], [math.pi, math.pi]])
    with pytest.raises(InputError, match=r"^row-paired stacks of 2 and 3 rows$"):
        TWO_CHAIN_CALLS[name](left, right)


def test_generalized_identity_keeps_photons_in_channels():
    left = _logical_left([1.0, 0.7, 0.7])
    right = make_chain(["v", "b"], [0.4])
    ctx, fouts = fuse_generalized(left, ("B", "D"), right, "v", ModeUnitary(np.eye(4)), consume="D")
    live = [o for o in fouts if o.probability > 1e-12]
    assert all(o.pattern[0] in (0, 1) and o.pattern[1] in (2, 3) for o in live)
    assert sum(o.probability for o in live) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- GHZ


def _ghz_pair(chi1: float, chi2: float, mag_a: float):
    """The GHZ-to-pair basis of one row, as its (projection, complement) kets, and phi."""
    kets, phis = ghz_pair_projection([chi1], [chi2], [mag_a])
    assert kets.shape == (1, 2, 2) and phis.shape == (1,)
    return tuple(kets[0]), float(phis[0])


def test_ghz_pi_full_range():
    (proj, comp), phi = _ghz_pair(math.pi, math.pi, 1 / math.sqrt(2))
    assert phi == pytest.approx(math.pi, abs=1e-12)
    assert ghz_pair_range(math.pi, math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_ghz_zero_magnitude_is_z_measurement():
    (_proj, _comp), phi = _ghz_pair(1.0, 0.5, 0.0)
    assert phi == pytest.approx(0.0, abs=1e-12)


def test_ghz_pi_over_2_gives_pi_over_3():
    (proj, comp), phi = _ghz_pair(math.pi / 2, math.pi / 2, 1 / math.sqrt(2))
    assert phi == pytest.approx(math.pi / 3, abs=1e-12)
    # brute-force 3-qubit oracle: both outcomes are the pi/3 pair up to locals
    ghz = build_state(chain_graph(["a", "b", "c"], [math.pi / 2, math.pi / 2]))
    pair = weighted_pair_rows([math.pi / 3]).reshape(2, 2)
    red, probs = project_qubit(np.tile(ghz.amplitudes, (2, 1)), 1, np.stack([proj, comp]))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert local_equivalent_rows(red.reshape(2, 2, 2), pair)[2].all()


def _for_target(chi1: float, chi2: float, phi: float):
    """The GHZ-to-pair basis of one target: its (projection, complement) kets."""
    return ghz_pair_for_target_stack([chi1], [chi2], [phi])[0]


def test_ghz_for_target_inversion_and_range():
    for t in (0.2, -1.1, 3.0):
        _for_target(math.pi, math.pi, t)  # pi case covers every target
    with pytest.raises(NotAchievableError):
        _for_target(math.pi / 2, math.pi / 2, math.pi)
    # phi_target = 0 solved by |A| = 0
    proj, comp = _for_target(1.0, 0.7, 0.0)
    assert abs(proj[0]) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------ sampling


def test_sampling_is_deterministic():
    left = make_chain(["a", "b"], [0.9])
    right = make_chain(["c", "d"], [-1.7])
    outs = fuse_type_i(left, "b", right, "c")
    s1 = sample_outcomes(outs, 200, seed=42)
    s2 = sample_outcomes(outs, 200, seed=42)
    assert s1 == s2
    freq = {lab: s1.count(lab) / 200 for lab in set(s1)}
    assert all(abs(f - 0.25) < 0.12 for f in freq.values())


def test_sampling_refuses_incomplete_distributions():
    outs = fuse_type_i(make_chain(["a", "b"], [0.9]), "b", make_chain(["c", "d"], [-1.7]), "c")
    with pytest.raises(InputError):
        sample_outcomes(outs[:1], 10, seed=1)  # sums to 0.25
    bad = [_outcome("x", 1.1), _outcome("y", -0.1)]
    with pytest.raises(InputError):
        sample_outcomes(bad, 10, seed=1)  # sums to 1 with a negative entry
    # round-off below 1e-10 is tolerated and clipped
    ok = [_outcome("x", 1.0 + 5e-11), _outcome("y", -5e-11)]
    assert sample_outcomes(ok, 10, seed=1) == ["x"] * 10


def _outcome(label: str, p: float) -> OutcomeStack:
    """A one-row outcome with probability p and no post-state."""
    return OutcomeStack(label, np.arange(1), np.array([p]), [])


def test_sampling_refuses_a_nan_probability():
    outs = [_outcome("x", math.nan), _outcome("y", 1.0)]
    with pytest.raises(InputError, match="not a complete distribution"):
        sample_outcomes(outs, 10, seed=1)


@pytest.mark.parametrize("args", [(math.inf, 0.5), (0.5, math.nan)])
def test_ghz_pair_range_refuses_a_non_finite_weight(args):
    with pytest.raises(InputError, match="finite"):
        ghz_pair_range(*args)


@pytest.mark.parametrize(
    "args", [(math.nan, 1.0, 0.5), (1.0, math.inf, 0.5), (1.0, 1.0, math.nan)]
)
def test_ghz_pair_projection_refuses_non_finite_input(args):
    # a plain InputError at entry: not the ShapeMismatchError of the projection's
    # norm check, nor NotAchievableError's verdict on the range of |A|
    with pytest.raises(InputError) as exc:
        ghz_pair_projection(*([x] for x in args))
    assert type(exc.value) is InputError


def test_ghz_input_refusals_come_before_verdicts_and_name_their_first_bad_row():
    # row 0 holds a verdict (|A| outside [0, 1], a target out of range), a later
    # row an input error (a non-finite angle, a NaN |A|): the input error wins
    with pytest.raises(InputError, match="in row 1") as exc:
        ghz_pair_projection([1.0, 1.0], [1.0, math.nan], [2.0, 0.5])
    assert type(exc.value) is InputError
    with pytest.raises(InputError, match="nan in row 2"):
        ghz_pair_projection([1.0] * 3, [1.0] * 3, [2.0, 0.5, math.nan])
    with pytest.raises(NotAchievableError, match=r"got 2\.0 in row 1"):
        ghz_pair_projection([1.0] * 3, [1.0] * 3, [0.5, 2.0, -1.0])
    chis = [math.pi / 2] * 3
    with pytest.raises(InputError, match="in row 2") as exc:
        ghz_pair_for_target_stack(chis, chis, [math.pi, 0.1, math.inf])
    assert type(exc.value) is InputError
    with pytest.raises(NotAchievableError, match="range cap 1.047198 in row 0"):
        ghz_pair_for_target_stack(chis, chis, [math.pi, 0.1, 3.0])


@pytest.mark.parametrize("args", [(math.nan, 0.5, 0.3), (0.5, 0.5, math.inf)])
def test_ghz_pair_for_target_refuses_a_non_finite_angle(args):
    # an input error, not NotAchievableError's out-of-range verdict
    with pytest.raises(InputError, match="finite") as exc:
        _for_target(*args)
    assert not isinstance(exc.value, NotAchievableError)

