from __future__ import annotations

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgfusion.errors import (
    CapExceededError,
    IndexClashError,
    InputError,
    InvalidGraphError,
    NonUnitaryGateError,
    ShapeMismatchError,
)
from wgfusion.graphstate import (
    DEFAULT_QUBIT_CAP,
    PAULI_Z,
    PureState,
    WeightedGraph,
    apply_local,
    apply_phase_edge,
    attach_vertex,
    build_state,
    chain_graph,
    eigvalsh_2x2,
    fidelity_rows,
    fidelity_up_to_global_phase,
    phase_gate,
    project_qubit,
    wrap_angle,
)
from wgfusion.protocols import ChainState


def plus_state(n: int) -> PureState:
    """|+>^n: the state of an edgeless graph."""
    return build_state(WeightedGraph(tuple(f"q{i}" for i in range(n)), ()))


def json_roundtrip(g: WeightedGraph) -> WeightedGraph:
    """g through the graph-JSON text the CLI reads."""
    return WeightedGraph.from_dict(json.loads(json.dumps(g.as_dict())))


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
    assert json_roundtrip(g) == g


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
    assert json_roundtrip(g) == g


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
    with pytest.raises(CapExceededError):
        attach_vertex(plus_state(DEFAULT_QUBIT_CAP), 0, [(0, 1.0)])


def test_build_state_cap_is_checked_before_the_table_is_allocated():
    g = WeightedGraph(tuple(f"v{i}" for i in range(DEFAULT_QUBIT_CAP + 1)), ())
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            build_state(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 21-qubit table would be 32 MiB


@pytest.mark.parametrize(
    "graph, amps",
    [
        (WeightedGraph((), ()), [1.0]),
        (WeightedGraph(("a",), ()), [1.0 / math.sqrt(2.0)] * 2),
    ],
    ids=["n0", "n1"],
)
def test_build_state_of_zero_and_one_vertex(graph, amps):
    built = build_state(graph)
    assert built.num_qubits == graph.n
    assert np.array_equal(built.amplitudes, np.array(amps, dtype=complex))
    assert np.array_equal(built.amplitudes, ref_build_state(graph))


def test_build_state_twenty_qubit_chain_matches_the_closed_form():
    n = DEFAULT_QUBIT_CAP
    rng = np.random.default_rng(2026)
    weights = rng.uniform(-math.pi, math.pi, n - 1)
    built = build_state(chain_graph([f"q{i}" for i in range(n)], list(weights)))
    for idx in rng.integers(0, 1 << n, 64):
        bits = [(int(idx) >> (n - 1 - q)) & 1 for q in range(n)]
        phase = sum(w * bits[q] * bits[q + 1] for q, w in enumerate(weights))
        expect = 2.0 ** (-n / 2) * cmath.exp(-1j * phase)
        assert abs(built.amplitudes[idx] - expect) <= 1e-15


def test_apply_phase_edge_is_symmetric_diag():
    st = plus_state(2)
    out = apply_phase_edge(st, 0, 1, 0.9)
    expect = np.array([1, 1, 1, np.exp(-0.9j)]) / 2.0
    assert np.allclose(out.amplitudes, expect)


def test_local_gate_unitarity_enforced():
    with pytest.raises(NonUnitaryGateError, match="^gate row 0 is not unitary$"):
        apply_local(plus_state(1).amplitudes[None], 0, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_local_z_on_plus():
    out = apply_local(plus_state(1).amplitudes[None], 0, PAULI_Z)
    assert np.allclose(out, np.array([[1, -1]]) / math.sqrt(2))


def test_project_qubit_probabilities_sum_to_one():
    g = chain_graph(["a", "b", "c"], [1.1, -0.4])
    rows = build_state(g).amplitudes[None]
    s = 1.0 / math.sqrt(2.0)
    _, p0 = project_qubit(rows, 1, [[s, s]])
    _, p1 = project_qubit(rows, 1, [[s, -s]])
    assert p0[0] + p1[0] == pytest.approx(1.0, abs=1e-12)


def test_project_qubit_zero_outcome():
    # the kernel reports the vanishing probability, refuses nothing and
    # leaves the row finite; the caller refuses or drops it
    red, probs = project_qubit(np.array([[1.0, 0.0]], dtype=complex), 0, np.array([[0.0, 1.0]]))
    assert probs[0] == 0.0 and np.isfinite(red).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_project_qubit_matches_the_take_formula_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = PureState(n, amps / np.linalg.norm(amps))
    arr = state.reshaped()
    for t in range(n):
        ab = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = ab / np.linalg.norm(ab)
        got, prob = project_qubit(state.amplitudes[None], t, np.array([[a, b]]))
        # asarray: at n = 1 np.take returns NumPy scalars, whose multiply rounds
        # apart from the array loop the views go through
        sl0, sl1 = (np.asarray(np.take(arr, bit, axis=t)) for bit in (0, 1))
        red = (np.conj(a) * sl0 + np.conj(b) * sl1).reshape(-1)
        assert prob[0] == float(np.vdot(red, red).real)
        assert np.array_equal(got[0], red / math.sqrt(prob[0]))


def test_project_qubit_index_check():
    for target in (2, 5, -1):
        with pytest.raises(IndexClashError):
            project_qubit(plus_state(2).amplitudes[None], target, [[1.0, 0.0]])


def test_equal_up_to_prescribed_corrections():
    g = chain_graph(["a", "b"], [math.pi])
    rows = build_state(g).amplitudes[None]
    flipped = apply_local(rows, 0, PAULI_Z)
    assert fidelity_rows(flipped, rows)[0] == pytest.approx(0.0, abs=1e-12)
    fixed = apply_local(flipped, 0, PAULI_Z)
    assert fidelity_rows(fixed, rows)[0] == pytest.approx(1.0, abs=1e-12)


def test_phase_gate_matches_edge_phase():
    st = plus_state(2)
    via_edge = apply_phase_edge(st, 0, 1, 1.7)
    # conditioning on qubit 0 = 1 the edge acts as a phase gate on qubit 1
    cond = via_edge.reshaped()[1].reshape(-1) * math.sqrt(2.0)
    direct = apply_local(plus_state(1).amplitudes[None], 0, phase_gate(-1.7))
    assert np.allclose(cond, direct[0])


ONE_QUBIT = np.array([[1.0, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PureState(1, [math.nan, 1.0]), ShapeMismatchError),
        (lambda: apply_local(ONE_QUBIT, 0, [[math.nan, 0.0], [0.0, 1.0]]), NonUnitaryGateError),
        (lambda: project_qubit(ONE_QUBIT, 0, [[math.nan, 1.0]]), ShapeMismatchError),
    ],
    ids=["state", "gate", "projection"],
)
def test_validators_reject_nan(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_projection_rejects_a_coefficient_whose_square_overflows(big):
    # |x|^2 overflows for a finite |x| above about 1e154: ShapeMismatchError,
    # not Python's OverflowError
    for coef in (big, -big, complex(big, big), complex(0.3, -big)):
        for coefficients in ((coef, 0.0), (0.6, coef)):
            with pytest.raises(ShapeMismatchError, match="not normalized"):
                project_qubit(ONE_QUBIT, 0, [coefficients])


@pytest.mark.parametrize("bad", [1.0 + 1e-9, math.nan, 1e200])
def test_ket_rows_check_names_the_first_bad_row(bad):
    # project_qubit checks every ket of a (K, 2) stack and names the first bad row
    rows = np.tile(plus_state(2).amplitudes, (4, 1))
    kets = np.tile(np.array([1.0, 0.0], dtype=complex), (4, 1))
    project_qubit(rows, 1, kets)
    kets[2, 0] = kets[3, 1] = bad
    with pytest.raises(ShapeMismatchError, match="^ket row 2 not normalized"):
        project_qubit(rows, 1, kets)


# Every malformed input to the two kernels, on a (2, 8) stack of 3-qubit
# rows: (id, call, the typed error it must raise, its message). None may
# escape as a bare ValueError or pass unchecked.
STACK = np.tile(build_state(chain_graph(["a", "b", "c"], [0.4, 1.2])).amplitudes, (2, 1))
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
KET = [[1.0, 0.0]]
REFUSALS = [
    ("gate-target-3", lambda: apply_local(STACK, 3, HADAMARD), IndexClashError, "^target 3 out of range for 3 qubits$"),
    ("ket-target-3", lambda: project_qubit(STACK, 3, KET), IndexClashError, "^target 3 out of range for 3 qubits$"),
    ("gate-target-minus-1", lambda: apply_local(STACK, -1, HADAMARD), IndexClashError, "^target -1 out of range"),
    ("ket-target-minus-1", lambda: project_qubit(STACK, -1, KET), IndexClashError, "^target -1 out of range"),
    ("gate-3x3", lambda: apply_local(STACK, 0, np.eye(3)), NonUnitaryGateError, r"^gates of shape \(3, 3\)"),
    ("gate-4d", lambda: apply_local(STACK, 0, np.ones((2, 2, 2, 2))), NonUnitaryGateError, "^gates of shape"),
    ("gate-not-unitary", lambda: apply_local(STACK, 0, np.diag([1.0, 2.0])), NonUnitaryGateError, "^gate row 0 is not unitary$"),
    ("gates-3-for-2-rows", lambda: apply_local(STACK, 0, np.stack([HADAMARD] * 3)), InputError, "^3 gates for 2 rows: need 1 or 2$"),
    ("kets-3-for-2-rows", lambda: project_qubit(STACK, 0, KET * 3), InputError, "^3 kets for 2 rows: need 1 or 2$"),
    ("ket-not-normalized", lambda: project_qubit(STACK, 0, [[1.0, 1.0]]), ShapeMismatchError, "^ket row 0 not normalized$"),
    ("ket-1d", lambda: project_qubit(STACK, 0, [1.0, 0.0]), ShapeMismatchError, r"^kets of shape \(2,\)"),
    ("ket-of-3", lambda: project_qubit(STACK, 0, [[1.0, 0.0, 0.0]]), ShapeMismatchError, r"^kets of shape \(1, 3\)"),
    ("rows-of-6", lambda: project_qubit(STACK[:, :6], 0, KET), ShapeMismatchError, r"^rows of shape \(2, 6\)"),
    ("rows-1d", lambda: apply_local(STACK[0], 0, HADAMARD), ShapeMismatchError, r"^rows of shape \(8,\)"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_row_kernels_refuse_malformed_input_with_typed_errors(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


# ---- bit-view layer against the per-index mask loops it replaced ----------


def _bit_of(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) & (1 << (n - 1 - q))).astype(bool)


def ref_apply_phase_edge(amps, n, a, b, chi):
    out = amps.copy()
    out[_bit_of(n, a) & _bit_of(n, b)] *= np.exp(-1j * chi)
    return out


def ref_build_state(graph, edges=None):
    """The gate-by-gate product over edges (default graph.edges) applied to |+>^n."""
    amps = np.full(1 << graph.n, 1.0 / math.sqrt(1 << graph.n), dtype=complex)
    for a, b, chi in graph.edges if edges is None else edges:
        amps = ref_apply_phase_edge(
            amps, graph.n, graph.vertex_index(a), graph.vertex_index(b), chi
        )
    return amps


def recursion_order(graph):
    """graph.edges grouped by earlier endpoint, last vertex first, stable within
    a group: the order in which the vertex recursion multiplies the phases."""
    return sorted(graph.edges, key=lambda e: -graph.vertex_index(e[0]))


def ref_attach_vertex(amps, n, new_qubit, neighbor_weights):
    branch = amps.copy()
    for b, chi in neighbor_weights:
        branch[_bit_of(n, b)] *= np.exp(-1j * chi)
    out = (np.concatenate([amps, branch]) / math.sqrt(2.0)).reshape([2] * (n + 1))
    order = list(range(1, n + 1))
    order.insert(new_qubit, 0)
    return out.transpose(order).reshape(-1)


def ref_pair_support_ok(amps, n, qa, qe, tol=1e-12):
    mixed = _bit_of(n, qa) != _bit_of(n, qe)
    return float(np.max(np.abs(amps[mixed]), initial=0.0)) < tol


@st.composite
def dense_graphs(draw, max_qubits=12):
    n = draw(st.integers(0, max_qubits))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    # WEIGHTS holds pi, weights that wrap and weights that drop to zero
    edges = tuple((f"q{a}", f"q{b}", draw(WEIGHTS)) for a, b in chosen)
    return WeightedGraph(tuple(f"q{i}" for i in range(n)), edges)


# mixed-bit amplitudes below, at and above the 1e-12 pair-support tolerance;
# None keeps the graph state as built
MIXED = st.sampled_from([None, 0.0, 1e-13, 9.999e-13, 1e-12, 1.0001e-12, 1e-9])


@settings(max_examples=60, deadline=None)
@given(dense_graphs(), st.data())
def test_bit_views_match_the_mask_loops_bit_for_bit(graph, data):
    n = graph.n
    built = build_state(graph)
    assert np.array_equal(built.amplitudes, ref_build_state(graph, recursion_order(graph)))
    # in graph.edges order the products round differently: at most about one
    # ulp of an amplitude per edge
    bound = (len(graph.edges) + 1) * 2.0**-52 * 2.0 ** (-n / 2)
    assert np.max(np.abs(built.amplitudes - ref_build_state(graph)), initial=0.0) <= bound
    amps = built.amplitudes
    for new_qubit in range(n + 1):
        nbrs = [(b, data.draw(WEIGHTS)) for b in range(n) if data.draw(st.booleans())]
        got = attach_vertex(built, new_qubit, nbrs).amplitudes
        assert np.array_equal(got, ref_attach_vertex(amps, n, new_qubit, nbrs))
    if n < 2:
        return
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    chi = data.draw(WEIGHTS)
    got = apply_phase_edge(built, a, b, chi).amplitudes
    assert np.array_equal(got, ref_apply_phase_edge(amps, n, a, b, chi))

    # a pair-free ChainState on the edgeless graph carries any state
    eps = data.draw(MIXED)
    table = amps.copy()
    mixed = _bit_of(n, a) != _bit_of(n, b)
    if eps is not None:
        table[mixed] = 0.0
        table /= math.sqrt(np.vdot(table, table).real)
        k = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        table[np.flatnonzero(mixed)[k]] = eps * np.exp(1j * chi)
    chain = ChainState(WeightedGraph(graph.vertices, ()), PureState(n, table))
    got = chain.pair_support_ok(frozenset({graph.vertices[a], graph.vertices[b]}))
    assert got == ref_pair_support_ok(table, n, a, b)


@pytest.mark.parametrize("chi", [math.inf, -math.inf])
def test_wrap_angle_refuses_an_infinite_angle(chi):
    with pytest.raises(InputError, match="finite"):
        wrap_angle(chi)


def test_wrap_angle_refuses_a_nan_angle():
    # math.remainder passes a NaN through; wrap_angle must not
    with pytest.raises(InputError, match="finite"):
        wrap_angle(math.nan)



# Hermitian PSD 2x2 stacks for the closed-form eigen-solver: G G+ of a random
# complex G, a rank-1 G (one zero column), a multiple of I (degenerate) or a
# diagonal matrix, each row at a drawn scale.
RHO_KINDS = st.lists(st.sampled_from(["full", "rank1", "degenerate", "diagonal"]), min_size=1, max_size=12)


def _psd_stack(seed: int, kinds: list[str], scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rho = np.empty((len(kinds), 2, 2), dtype=complex)
    for k, kind in enumerate(kinds):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if kind == "rank1":
            g[:, 1] = 0.0
        rho[k] = g @ g.conj().T
        if kind == "degenerate":
            rho[k] = rng.uniform(0.0, 2.0) * np.eye(2)
        elif kind == "diagonal":
            rho[k] = np.diag(rng.uniform(0.0, 2.0, 2))
    return scale * rho


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), RHO_KINDS, st.sampled_from([1e-9, 1.0, 1e6]))
def test_eigvalsh_2x2_matches_lapack_on_psd_stacks(seed, kinds, scale):
    rho = _psd_stack(seed, kinds, scale)
    got = eigvalsh_2x2(rho)
    ref = np.linalg.eigvalsh(rho)
    assert got.shape == ref.shape
    assert (got[:, 0] <= got[:, 1]).all()
    # both backward stable: agreement within a few ulps of the larger eigenvalue
    assert (np.abs(got - ref) <= 8.0 * np.finfo(float).eps * ref[:, 1:]).all()
    for k, kind in enumerate(kinds):
        if kind == "degenerate":  # zero radical: both roots are the diagonal, exactly
            assert got[k, 0] == got[k, 1] == rho[k, 0, 0].real


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
def test_eigvalsh_2x2_keeps_a_nan(entry):
    rho = np.stack([np.eye(2, dtype=complex), np.diag([1.0, 2.0]).astype(complex)])
    rho[1][entry] = math.nan
    got = eigvalsh_2x2(rho)
    assert np.array_equal(got[0], [1.0, 1.0])
    assert np.isnan(got[1]).all()
