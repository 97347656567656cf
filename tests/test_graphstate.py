from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wgfusion.errors import (
    CapExceededError,
    IndexClashError,
    InvalidGraphError,
    NonUnitaryGateError,
    ShapeMismatchError,
    ZeroOutcomeError,
)
from wgfusion.graphstate import (
    LocalGate,
    PAULI_Z,
    PureState,
    QubitProjection,
    WeightedGraph,
    apply_local,
    apply_phase_edge,
    attach_vertex,
    build_state,
    chain_graph,
    equal_up_to_prescribed_corrections,
    fidelity_up_to_global_phase,
    move_qubit,
    phase_gate,
    plus_state,
    project_qubit,
    wrap_angle,
)

RNG = np.random.default_rng(7)


def test_wrap_angle_principal_branch():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.3 + 2 * math.pi) == pytest.approx(0.3)
    assert wrap_angle(-0.3 - 4 * math.pi) == pytest.approx(-0.3)


def test_graph_drops_zero_weight_edges():
    g = WeightedGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1e-15)))
    assert g.edges == (("a", "b", 1.0),)
    assert g.degree("c") == 0


def test_graph_rejects_unknown_endpoint_and_self_loop():
    with pytest.raises(InvalidGraphError):
        WeightedGraph(("a",), (("a", "b", 1.0),))
    with pytest.raises(InvalidGraphError):
        WeightedGraph(("a", "b"), (("a", "a", 1.0),))


def test_graph_json_roundtrip():
    g = chain_graph(["x", "y", "z"], [0.5, -2.0])
    g2 = WeightedGraph.from_json(g.to_json())
    assert g2 == g


# weights inside and outside (-pi, pi], near the 1e-12 drop cutoff, and on the branch cut
WEIGHTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e-11, 1e-11),
    st.sampled_from([math.pi, -math.pi, 2 * math.pi, 0.0, 1e-12, -1e-12]),
)


@st.composite
def weighted_graphs(draw):
    labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple(
        (b, a, draw(WEIGHTS)) if draw(st.booleans()) else (a, b, draw(WEIGHTS))
        for a, b in chosen
    )
    return WeightedGraph(tuple(labels), edges)


@given(weighted_graphs())
def test_graph_dict_roundtrip(g):
    assert WeightedGraph.from_dict(g.as_dict()) == g
    assert WeightedGraph.from_json(g.to_json()) == g


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
def test_graph_rejects_non_finite_weight(chi):
    doc = {"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "chi": chi}]}
    with pytest.raises(InvalidGraphError):
        WeightedGraph.from_dict(doc)


@given(st.floats(-1e6, 1e6))
def test_wrap_angle_principal_congruent_idempotent(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)


@pytest.mark.parametrize("k", [1, -1, 3, -7, 10**6, -(10**6)])
def test_wrap_angle_pi_and_multiples_of_two_pi(k):
    assert wrap_angle(math.pi) == wrap_angle(-math.pi) == math.pi
    assert wrap_angle(k * 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)
    w = wrap_angle(math.pi + k * 2.0 * math.pi)
    assert -math.pi < w <= math.pi
    assert abs(w) == pytest.approx(math.pi, abs=1e-9)


def test_build_state_pi_weights_is_graph_state():
    # chi = pi must reproduce the CZ-built graph state
    g = chain_graph(["a", "b", "c"], [math.pi, math.pi])
    st = build_state(g)
    amps = plus_state(3).amplitudes.copy()
    for (qa, qb) in ((0, 1), (1, 2)):
        for idx in range(8):
            if (idx >> (2 - qa)) & 1 and (idx >> (2 - qb)) & 1:
                amps[idx] *= -1.0
    assert np.allclose(st.amplitudes, amps, atol=1e-12)


def test_build_state_recursion_matches_attach_vertex():
    weights = [0.7, -1.3, 2.1]
    g = chain_graph(["a", "b", "c", "d"], weights)
    st = build_state(g)
    # rebuild by attaching vertices one at a time at the end of the register
    cur = plus_state(1)
    for k, w in enumerate(weights):
        cur = attach_vertex(cur, k + 1, [(k, w)])
    assert fidelity_up_to_global_phase(st, cur) == pytest.approx(1.0, abs=1e-12)


def test_build_state_qubit_cap():
    g = WeightedGraph(tuple(f"v{i}" for i in range(25)), ())
    with pytest.raises(CapExceededError):
        build_state(g)


def test_apply_phase_edge_is_symmetric_diag():
    st = plus_state(2)
    out = apply_phase_edge(st, 0, 1, 0.9)
    expect = np.array([1, 1, 1, np.exp(-0.9j)]) / 2.0
    assert np.allclose(out.amplitudes, expect)


def test_move_qubit_roundtrip():
    amps = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    st = PureState(3, amps / np.linalg.norm(amps))
    moved = move_qubit(move_qubit(st, 0, 2), 2, 0)
    assert np.allclose(moved.amplitudes, st.amplitudes)


def test_local_gate_unitarity_enforced():
    with pytest.raises(NonUnitaryGateError):
        LocalGate(0, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_local_z_on_plus():
    st = plus_state(1)
    out = apply_local(st, LocalGate(0, PAULI_Z))
    assert np.allclose(out.amplitudes, np.array([1, -1]) / math.sqrt(2))


def test_project_qubit_probabilities_sum_to_one():
    g = chain_graph(["a", "b", "c"], [1.1, -0.4])
    st = build_state(g)
    s = 1.0 / math.sqrt(2.0)
    _, p0 = project_qubit(st, QubitProjection(1, (s, s)))
    _, p1 = project_qubit(st, QubitProjection(1, (s, -s)))
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_project_qubit_zero_outcome():
    st = PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ZeroOutcomeError):
        project_qubit(st, QubitProjection(0, (0.0, 1.0)))
    out, p = project_qubit(st, QubitProjection(0, (0.0, 1.0)), allow_zero=True)
    assert out is None and p < 1e-14


def test_project_qubit_index_check():
    with pytest.raises(IndexClashError):
        project_qubit(plus_state(2), QubitProjection(5, (1.0, 0.0)))


def test_equal_up_to_prescribed_corrections():
    g = chain_graph(["a", "b"], [math.pi])
    st = build_state(g)
    flipped = apply_local(st, LocalGate(0, PAULI_Z))
    assert not equal_up_to_prescribed_corrections(flipped, st, [])
    assert equal_up_to_prescribed_corrections(flipped, st, [LocalGate(0, PAULI_Z)])


def test_phase_gate_matches_edge_phase():
    st = plus_state(2)
    via_edge = apply_phase_edge(st, 0, 1, 1.7)
    # conditioning on qubit 0 = 1 the edge acts as a phase gate on qubit 1
    cond = via_edge.reshaped()[1].reshape(-1) * math.sqrt(2.0)
    direct = apply_local(plus_state(1), LocalGate(0, phase_gate(-1.7)))
    assert np.allclose(cond, direct.amplitudes)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PureState(1, [math.nan, 1.0]), ShapeMismatchError),
        (lambda: LocalGate(0, [[math.nan, 0.0], [0.0, 1.0]]), NonUnitaryGateError),
        (lambda: QubitProjection(0, (math.nan, 1.0)), ShapeMismatchError),
    ],
    ids=["state", "gate", "projection"],
)
def test_validators_reject_nan(build, error):
    with pytest.raises(error):
        build()
