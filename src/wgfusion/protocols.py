"""Fusion protocol drivers on weighted chains and the trees fusion builds.

Each driver returns the exhaustive outcome distribution (analysis mode);
sample_outcomes provides the seeded Monte Carlo mode on top of it.

Register convention: a chain's qubits are ordered by its graph's vertex
list; projecting a vertex out removes its register position.

A ChainStack holds K >= 1 chains of one shape as (K, 2^n) rows, and a
ChainState is its K = 1 case: one chain, whose graph carries its own
weights. Each protocol runs one pass over the rows of its stacks, so each
row of a K-row call is bit for bit the one-row call on that row's chain.
A protocol on two chains takes row-paired stacks: left row k goes with
right row k, and stacks of different row counts are an InputError.
ChainStack.take repeats one chain to pair it with every row of another
stack.

- fuse_type_i, create_logical_qubit and fuse_type_ii return OutcomeStacks;
  the post-states are ChainStates when the call had one row (K = 1),
  ChainStacks otherwise;
- logical_pair_stack: the X-like branch of create_logical_qubit with its
  corrections, and no failure branch;
- xlike_probability_stack and type_ii_probabilities_stack: the outcome
  probabilities alone, with no post-state built;
- fusion_context_rows: the FusionContext of row-paired stacks, one row
  per pair (fuse_generalized reads it on one chain each);
- ghz_pair_projection and ghz_pair_for_target_stack: the GHZ-to-pair
  basis over (K,) angle arrays, every row in one pass, as (K, 2, 2) kets,
  with its stacked 3-qubit simulation check;
- local_equivalent_rows and weighted_pair_rows: the 2-qubit local-unitary
  match and the weighted pair states.

A stacked protocol returns OutcomeStacks: each outcome on the rows that
have it. An outcome below ZERO_PROB_CUTOFF in some rows is absent from
exactly those rows, as it is from the one-row call. The X-like steps
(create_logical_qubit, logical_pair_stack, xlike_probability_stack) take
stacks that mix Case-1 (chi1 = chi2) and Case-2 (chi1 = -chi2 mod 2pi)
rows: one eligibility rule on arrays (_near) gives each row its own case's
bra and corrections. The closed forms (rez_formula, ghz_pair_range, and inner_z
in fuse_type_ii's z check) take (K,) arrays; a scalar call is their K = 1 row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import inner_z, pair_weight_from_projection
from .errors import (
    InputError,
    InvalidGraphError,
    NoLogicalPairError,
    NotAchievableError,
    NotEndpointError,
    NumericalAbortError,
    WeightsNotEligibleError,
    ZeroOutcomeError,
)
from .fock import FusionContext, FusionOutcome, ModeUnitary, enumerate_outcomes
from .graphstate import (
    PureState,
    WeightedGraph,
    _angle_arrays,
    _finite_angles,
    apply_local,
    build_state,
    chain_graph,
    check_unit_rows,
    kron_rows,
    normalized_rows,
    phase_gate,
    project_qubit,
    weight_rows,
    wrap_angle,
    _wrap_rows,
    z_rotation,
    PAULI_X,
    PAULI_Z,
)
from .tolerances import (
    ABORT_TOL,
    BOUND_SLACK,
    INVERSION_TOL,
    LU_MATCH_TOL,
    PAIR_SUPPORT_TOL,
    PROB_SUM_TOL,
    SCHMIDT_TOL,
    WEIGHT_TOL,
    ZERO_PROB_CUTOFF,
    ZERO_RANGE,
    ZERO_WEIGHT,
)


def _pair_support_rows(graph: WeightedGraph, pair, rows: np.ndarray) -> np.ndarray:
    """Per row of a (K, 2^n) stack: do the pair's mixed-bit amplitudes all vanish?

    A NaN amplitude fails its row (ndarray.max keeps a NaN).
    """
    qa, qe = sorted(graph.vertex_index(v) for v in pair)
    split = rows.reshape(len(rows), 1 << qa, 2, 1 << (qe - qa - 1), 2, -1)
    worst = np.maximum(
        np.abs(split[:, :, 0, :, 1]).max(axis=(1, 2, 3)),
        np.abs(split[:, :, 1, :, 0]).max(axis=(1, 2, 3)),
    )
    return worst < PAIR_SUPPORT_TOL


def _check_pair_support(graph: WeightedGraph, pairs, rows: np.ndarray) -> None:
    for pair in pairs:
        ok = _pair_support_rows(graph, pair, rows)
        if not ok.all():
            row = f" in row {np.flatnonzero(~ok)[0]}" if len(rows) > 1 else ""
            raise InvalidGraphError(
                f"logical pair {set(pair)} has mixed-bit amplitude support{row}"
            )


@dataclass(eq=False)
class ChainStack:
    """K >= 1 weighted forests of one shape with their dense states and logical pairs.

    graph gives the shape: vertices and edge endpoints, in weight-column
    order (its own weights are not read). weights[k] holds the weights of
    graph.edges in row k and rows[k] that row's 2^n amplitudes; the logical
    pairs are shared.

    Invariant, checked on construction in this order: every row is a unit
    vector; contracting each logical pair to a single vertex leaves a forest
    (no cycle, no doubled edge, no edge inside a pair), checked once since
    it depends on the shape alone; every logical pair has |00>/|11> support
    only, in every row. Chains are the common case; Type-I and Type-II
    fusion glue two trees at one vertex.
    """

    graph: WeightedGraph
    weights: np.ndarray
    rows: np.ndarray
    logical_pairs: frozenset[frozenset[str]] = frozenset()

    def __post_init__(self):
        self.logical_pairs = frozenset(frozenset(p) for p in self.logical_pairs)
        if self.weights.shape[1:] != (len(self.graph.edges),) or self.rows.shape != (
            len(self.weights),
            1 << self.graph.n,
        ):
            raise InvalidGraphError("state stack does not match graph and weight rows")
        check_unit_rows(self.rows)
        _check_forest_after_contraction(self.graph, self.logical_pairs)
        _check_pair_support(self.graph, self.logical_pairs, self.rows)

    def take(self, idx) -> ChainStack:
        """The stack of rows idx, in that order."""
        return ChainStack(self.graph, self.weights[idx], self.rows[idx], self.logical_pairs)

    def pair_support_rows(self, pair: frozenset[str]) -> np.ndarray:
        """Per row, as a (K,) bool array: are the pair's mixed-bit amplitudes
        all below PAIR_SUPPORT_TOL?"""
        return _pair_support_rows(self.graph, pair, self.rows)


class ChainState(ChainStack):
    """One weighted forest: the K = 1 ChainStack.

    Its graph carries its own weights, which make its one weight row. state
    views its one amplitude row as a PureState, without a copy.
    """

    def __init__(self, graph: WeightedGraph, state: PureState, logical_pairs=frozenset()):
        super().__init__(graph, _edge_weights(graph), state.amplitudes[None], logical_pairs)

    @classmethod
    def _of(cls, r: _Rows) -> ChainState:
        """The one row of r as a ChainState, its graph reweighted by that row."""
        graph = _reweighted(r.graph, r.weights[0])
        chain = cls.__new__(cls)
        ChainStack.__init__(chain, graph, _edge_weights(graph), r.rows, r.pairs)
        return chain

    @property
    def state(self) -> PureState:
        return PureState(self.graph.n, self.rows[0])

    def pair_support_ok(self, pair: frozenset[str]) -> bool:
        return bool(self.pair_support_rows(pair)[0])


def _edge_weights(graph: WeightedGraph) -> np.ndarray:
    """The (1, E) weight row of a single graph."""
    return np.array([[chi for _, _, chi in graph.edges]])


class _Rows(NamedTuple):
    """K forests of one shape as bare arrays, their invariants not yet checked:
    the fields of a ChainStack, in its order, which checks them."""

    graph: WeightedGraph
    weights: np.ndarray
    rows: np.ndarray
    pairs: frozenset

    @staticmethod
    def of(chains: ChainStack) -> _Rows:
        """The fields of a checked stack."""
        return _Rows(chains.graph, chains.weights, chains.rows, chains.logical_pairs)

    def take(self, idx) -> _Rows:
        """The rows at positions idx; every row, copying nothing, when idx is None."""
        if idx is None:
            return self
        return _Rows(self.graph, self.weights[idx], self.rows[idx], self.pairs)


def _where(mask: np.ndarray) -> np.ndarray | None:
    """Positions where mask holds, or None when it holds in every row."""
    return None if mask.all() else np.flatnonzero(mask)


def _pick(x: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """x at positions idx along its first axis; x itself when idx is None."""
    return x if idx is None else x[idx]


def _drop(graph: WeightedGraph, weights: np.ndarray, vertices) -> tuple[WeightedGraph, np.ndarray]:
    """The shape without vertices, and the weight columns of the edges it keeps."""
    column = _edge_columns(graph)
    for v in vertices:
        graph = graph.without_vertex(v)
    return graph, weights[:, [column[frozenset((x, y))] for x, y, _ in graph.edges]]


def _reweighted(shape: WeightedGraph, weights) -> WeightedGraph:
    """The graph of one weight row over shape.edges."""
    return WeightedGraph(
        shape.vertices, tuple((a, b, w) for (a, b, _), w in zip(shape.edges, weights.tolist()))
    )


def _components(adj: dict[str, set[str]]) -> list[set[str]]:
    """Connected components of an adjacency mapping, in order of first vertex."""
    comps: list[set[str]] = []
    seen: set[str] = set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _logical_class(pairs, v: str) -> set[str]:
    """v and every vertex tied to it by a chain of logical pairs: one logical qubit."""
    members, todo = {v}, [v]
    while todo:
        x = todo.pop()
        for pair in pairs:
            if x in pair:
                new = pair - members
                members |= new
                todo += new
    return members


def _check_forest_after_contraction(graph: WeightedGraph, pairs) -> None:
    for pair in pairs:
        if not pair.issubset(graph.vertices):
            raise InvalidGraphError("logical pair member not in graph")
        if len(pair) != 2:
            raise InvalidGraphError(f"logical pair {set(pair)} does not have two members")
    # each logical qubit contracts to its first member
    rep: dict[str, str] = {}
    for v in graph.vertices:
        if v not in rep:
            rep.update(dict.fromkeys(_logical_class(pairs, v), v))
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices if rep[v] == v}
    for a, b, _ in graph.edges:
        ra, rb = rep[a], rep[b]
        if ra == rb:
            raise InvalidGraphError("edge inside a contracted logical pair")
        adj[ra].add(rb)
        adj[rb].add(ra)
    # a forest on k vertices in c components has k - c edges; a contracted
    # edge doubled by two pair members counts as a cycle
    if len(graph.edges) != len(adj) - len(_components(adj)):
        raise InvalidGraphError("contracted graph contains a cycle")


def make_chain(labels: list[str], weights: list[float]) -> ChainState:
    g = chain_graph(labels, weights)
    return ChainState(g, build_state(g))


def make_chain_stack(labels: list[str], weights) -> ChainStack:
    """make_chain for K weight rows in one build: row k has the consecutive
    edge weights weights[k], wrapped; build_state's refusals apply."""
    shape = chain_graph(labels, [math.pi] * (len(labels) - 1))
    weights = weight_rows(shape, weights)
    return ChainStack(_reweighted(shape, weights[0]), weights, build_state(shape, weights))


@dataclass
class Correction:
    """A prescribed local correction, recorded after being applied.

    matrix is the 2x2 gate, or a (K, 2, 2) stack of one gate per row when
    the correction was applied to a stack.
    """

    vertex: str
    name: str
    matrix: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {"vertex": self.vertex, "gate": self.name}


@dataclass
class OutcomeStack:
    """One outcome of a protocol call, on the stack rows that have it.

    rows holds the positions of those rows in the input stack, ascending;
    probabilities[i] and row i of every post-state stack belong to input
    row rows[i], and each correction's matrix is one 2x2 gate or an (R, 2, 2)
    stack over the same rows. An outcome that a row does not have (below
    ZERO_PROB_CUTOFF, or of another good-failure kind) leaves that row out,
    so one label may head two OutcomeStacks with disjoint rows. Row k's
    outcome list is the OutcomeStacks that hold k, in list order: the
    one-row call's list, bit for bit. A one-row call's outcomes hold its
    one row, with ChainState post-states; probability and as_dict read such
    an outcome.
    """

    label: str
    rows: np.ndarray
    probabilities: np.ndarray
    post_states: list[ChainStack]
    corrections_applied: list[Correction] = field(default_factory=list)
    is_good_failure: bool = False

    @property
    def probability(self) -> float:
        """The probability of a one-row outcome, as a float; InputError for
        an outcome on more rows."""
        if len(self.probabilities) != 1:
            raise InputError(f"need a one-row outcome, got one on {len(self.probabilities)} rows")
        (p,) = self.probabilities.tolist()
        return p

    def as_dict(self) -> dict:
        """The JSON report of a one-row outcome."""
        return {
            "label": self.label,
            "probability": self.probability,
            "post_graphs": [
                {**s.graph.as_dict(), "logical_pairs": [sorted(p) for p in s.logical_pairs]}
                for s in self.post_states
            ],
            "corrections": [c.as_dict() for c in self.corrections_applied],
            "is_good_failure": self.is_good_failure,
        }


class _Branch(NamedTuple):
    """An OutcomeStack before its post-states are checked."""

    label: str
    rows: np.ndarray
    probs: np.ndarray
    posts: list[_Rows]
    corr: list[Correction]
    good: bool = False


def _outcomes(branches: list[_Branch], k: int) -> list[OutcomeStack]:
    """The branches of a call on k rows as OutcomeStacks, each post-state
    checked once: as the ChainState of its one row when k = 1, else as a
    ChainStack."""
    check = ChainState._of if k == 1 else lambda p: ChainStack(*p)
    return [
        OutcomeStack(b.label, b.rows, b.probs, [check(p) for p in b.posts], b.corr, b.good)
        for b in branches
    ]


def _pick_corr(corr: list[Correction], idx: np.ndarray | None) -> list[Correction]:
    """The corrections with each per-row gate stack cut to the rows idx."""
    if idx is None:
        return corr
    return [
        Correction(c.vertex, c.name, _pick(c.matrix, idx) if c.matrix.ndim == 3 else c.matrix)
        for c in corr
    ]


def _branch_rows(rows: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(2)-scaled slices of one qubit of every row: the f-branch vectors of the recursion."""
    k = len(rows)
    split = rows.reshape(k, 1 << qubit, 2, -1)
    return (
        split[:, :, 0].reshape(k, -1) * math.sqrt(2.0),
        split[:, :, 1].reshape(k, -1) * math.sqrt(2.0),
    )


def _corrected(graph: WeightedGraph, rows: np.ndarray, corrections: list[Correction]) -> np.ndarray:
    """(K, 2^n) rows with each correction's gate applied at its vertex's register position."""
    for c in corrections:
        rows = apply_local(rows, graph.vertex_index(c.vertex), c.matrix)
    return rows


def _z_measure(r: _Rows, v: str, s: int):
    """Z-measure the logical qubit of v (v and the vertices tied to it by
    logical pairs) with outcome s, in every row of r.

    Every member is projected onto |s> and removed. For s = 1 each member's
    neighbour, which the forest invariant puts outside the logical qubit,
    gets phase(+chi) of their edge to undo the phase the cut edge leaves.
    A row in which a projection falls below ZERO_PROB_CUTOFF has no such
    outcome. Returns (live, post, probabilities, corrections): live the
    positions of the rows that have it (None for every row), and the rest
    on those rows alone.
    """
    graph = r.graph
    members = sorted(_logical_class(r.pairs, v), key=graph.vertex_index)
    ket = np.array([[1.0 - s, s]], dtype=complex)
    rows, probs, low = r.rows, 1.0, False
    for m in reversed(members):  # back to front, so the earlier positions stay put
        rows, p = project_qubit(rows, graph.vertex_index(m), ket)
        probs = probs * p
        low = low | (p < ZERO_PROB_CUTOFF)
    live = _where(~low)
    if live is not None and not live.size:
        return live, r.take(live), probs[live], []
    weights = _pick(r.weights, live)
    column = _edge_columns(graph)
    corr = [
        Correction(w, "phase(+chi)", phase_gate(weights[:, column[frozenset((m, w))]]))
        for m in members
        for w, _ in graph.neighbors(m)
        if s == 1
    ]
    graph, weights = _drop(graph, weights, members)
    pairs = frozenset(q for q in r.pairs if q.isdisjoint(members))
    post = _Rows(graph, weights, _corrected(graph, _pick(rows, live), corr), pairs)
    return live, post, _pick(probs, live), corr


def _resolve_vertex(chain: ChainStack, v) -> str:
    if isinstance(v, str):
        chain.graph.vertex_index(v)  # raises if unknown
        return v
    return chain.graph.vertices[int(v)]


def _split_rows(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor every row of a (K, 2^a, 2^b) stack of exactly-product states
    across the cut: one stacked SVD. Returns the (K, 2^a) and (K, 2^b) factors."""
    u, s, vh = np.linalg.svd(mats, full_matrices=False)
    if s.shape[1] > 1:
        bad = np.flatnonzero(~(s[:, 1] <= SCHMIDT_TOL))  # a NaN fails too
        if bad.size:
            row = f" (row {bad[0]})" if len(mats) > 1 else ""
            raise NumericalAbortError(f"state is not a product across the requested cut{row}")
    return u[:, :, 0], vh[:, 0, :]


def _paired(left: ChainStack, right: ChainStack) -> int:
    """The row count K of row-paired stacks, left row k with right row k;
    InputError when the stacks differ in row count."""
    k = len(left.rows)
    if len(right.rows) != k:
        raise InputError(f"row-paired stacks of {k} and {len(right.rows)} rows")
    return k


def _type_i_branches(left, end_a, right, end_b, new_label: str | None) -> list[_Branch]:
    """fuse_type_i of left row k with right row k, for every k."""
    a = _resolve_vertex(left, end_a)
    b = _resolve_vertex(right, end_b)
    for chain, v in ((left, a), (right, b)):
        if chain.graph.degree(v) != 1:
            raise NotEndpointError(f"{v} has degree {chain.graph.degree(v)} != 1")
        if any(v in p for p in chain.logical_pairs):
            raise NotEndpointError(f"{v} is part of a logical pair")
    k = _paired(left, right)
    lr, rr = _Rows.of(left), _Rows.of(right)
    c = new_label or f"{a}*{b}"
    (na, chi_a), = lr.graph.neighbors(a)
    (nb, chi_b), = rr.graph.neighbors(b)

    f1, f2 = _branch_rows(lr.rows, lr.graph.vertex_index(a))
    f3, f4 = _branch_rows(rr.rows, rr.graph.vertex_index(b))
    lg, lw = _drop(lr.graph, lr.weights, [a])
    rg, rw = _drop(rr.graph, rr.weights, [b])
    merged = WeightedGraph(
        (c,) + lg.vertices + rg.vertices,
        ((c, na, chi_a), (c, nb, chi_b)) + lg.edges + rg.edges,
    )
    ends = [
        r.weights[:, [_edge_columns(r.graph)[frozenset((v, n))]]]
        for r, v, n in ((lr, a, na), (rr, b, nb))
    ]
    weights = np.hstack(ends + [lw, rw])
    pairs = lr.pairs | rr.pairs

    out = []
    for sign, label, corr in (
        (+1.0, "success_plus", []),
        (-1.0, "success_minus", [Correction(c, "Z", PAULI_Z)]),
    ):
        # (f1 x f3, sign f2 x f4)/sqrt2 filled in place: branch states are unit
        # vectors, so this is a unit vector
        vec = np.empty((k, 2 * f1.shape[1] * f3.shape[1]), dtype=complex)
        halves = vec.reshape(k, 2, f1.shape[1], f3.shape[1])
        np.multiply(f1[:, :, None], f3[:, None, :], out=halves[:, 0])
        np.multiply(f2[:, :, None], f4[:, None, :], out=halves[:, 1])
        np.multiply(halves[:, 1], sign, out=halves[:, 1])
        vec /= math.sqrt(2.0)
        post = _Rows(merged, weights, _corrected(merged, vec, corr), pairs)
        out.append(_Branch(label, np.arange(k), np.full(k, 0.25), [post], corr))

    # a failure Z-measures the endpoints: a -> sa on the left, b -> sb on the
    # right; two photons in d leave (1, 0)
    for label, sa, sb in (("failure_two_photon", 1, 0), ("failure_zero_photon", 0, 1)):
        posts, corr = [], []
        for r, v, s in ((lr, a, sa), (rr, b, sb)):
            live, post, _, cz = _z_measure(r, v, s)
            if live is not None:
                raise ZeroOutcomeError(f"Z measurement of endpoint {v} has a vanishing outcome")
            posts.append(post)
            corr += cz
        out.append(_Branch(label, np.arange(k), np.full(k, 0.25), posts, corr))
    return out


def fuse_type_i(
    left: ChainStack, end_a, right: ChainStack, end_b, new_label: str | None = None
) -> list[OutcomeStack]:
    """Endpoint-merging fusion of left row k with right row k, for every k:
    four outcomes at probability 1/4 each.

    Success branches create a new vertex c inheriting both endpoints'
    neighbors and weights; failures Z-measure both endpoints out. The
    stacks must hold the same number of rows (else InputError); row k of
    every outcome is bit for bit the call on row k's two chains.
    """
    return _outcomes(_type_i_branches(left, end_a, right, end_b, new_label), len(left.rows))


def _edge_columns(graph: WeightedGraph) -> dict[frozenset[str], int]:
    """Column of each edge, keyed by its endpoints, in a weight row over graph.edges."""
    return {frozenset((x, y)): i for i, (x, y, _) in enumerate(graph.edges)}


def _near(x: np.ndarray) -> np.ndarray:
    """Per entry: does the angle x wrap to within WEIGHT_TOL of 0? The one
    test behind every X-like eligibility case."""
    return np.abs(_wrap_rows(x)) < WEIGHT_TOL


def _xlike_plan(graph: WeightedGraph, weights: np.ndarray, pairs, a: str):
    """Eligibility of interior vertex a for an X-like projection in every weight row,
    and each row's primary bra.

    graph is the shape and weights its (K, E) weight rows, chi1 and chi2 a's
    edges to b1 and b2. Case 1: chi1 = chi2. Case 2: chi1 = -chi2 mod 2pi.
    chi = pi meets both, and Case 1 is taken then. Returns (b1, b2, case1,
    chis, bs), b1 before b2 in vertex order, and (K,) arrays: case1[k]
    whether row k takes Case 1 (else Case 2), chis[k] its chi (chi1 for
    Case 1, chi2 for Case 2) and bs[k] the B of its primary bra <0| + B<1|,
    B = -e^{i chi_k} for Case 1 and B = -1 for Case 2. The first row that
    meets neither case raises WeightsNotEligibleError.
    """
    nbs = graph.neighbors(a)
    if len(nbs) != 2:
        raise WeightsNotEligibleError(f"{a} is not interior (degree {len(nbs)})")
    if any(a in p for p in pairs):
        raise NoLogicalPairError(f"{a} already belongs to a logical pair")
    (b1, _), (b2, _) = sorted(nbs, key=lambda t: graph.vertices.index(t[0]))
    column = _edge_columns(graph)
    chi1, chi2 = (weights[:, column[frozenset((a, b))]] for b in (b1, b2))
    case1 = _near(chi1 - chi2)
    bad = np.flatnonzero(~case1 & ~_near(chi1 + chi2))
    if bad.size:
        k = bad[0]
        raise WeightsNotEligibleError(
            f"weights ({float(chi1[k]):.6g}, {float(chi2[k]):.6g}) satisfy neither eligibility case"
        )
    chis = np.where(case1, chi1, chi2)
    return b1, b2, case1, chis, np.where(case1, -np.exp(1j * chis), -1.0)


def logical_pair_stack(stack: ChainStack, a) -> ChainStack:
    """Post-state of create_logical_qubit's primary success branch only, on
    every row of a stack, as one X-like projection over its rows.

    Same eligibility rules and errors as create_logical_qubit, the refusal
    of a logical-pair member and the ZeroOutcomeError of a vanishing branch
    included; no failure branch is computed. Rows may meet different
    eligibility cases: each takes its own case's corrections. Row k of the
    result is bit for bit the call on row k's chain.
    """
    r = _Rows.of(stack)
    a = _resolve_vertex(stack, a)
    b1, b2, case1, _, bs = _xlike_plan(r.graph, r.weights, r.pairs, a)
    branches = _xlike_success(r, a, b1, b2, bs, case1)
    post = branches[0].posts[0]
    if len(branches) > 1:  # one branch per case: back to stack row order
        order = np.argsort(np.concatenate([br.rows for br in branches]))
        weights, rows = (
            np.concatenate([getattr(br.posts[0], f) for br in branches])[order]
            for f in ("weights", "rows")
        )
        post = post._replace(weights=weights, rows=rows)
    return ChainStack(*post)


def xlike_probability_stack(stack: ChainStack, a) -> np.ndarray:
    """Probability of create_logical_qubit's primary success outcome in every
    row of a stack, and nothing else, as one projection over its rows.

    Returns (K,) floats, row k bit for bit the one that outcome carries in
    row k, (1 - cos chi)/4 on a plain chain; no correction, failure branch
    or post-state is built. Rows may meet different eligibility cases,
    since each row's bra is its own; a row that meets neither raises
    WeightsNotEligibleError.
    """
    a = _resolve_vertex(stack, a)
    *_, bs = _xlike_plan(stack.graph, stack.weights, stack.logical_pairs, a)
    return _project_bra(stack.rows, stack.graph.vertex_index(a), bs)[1]


def create_logical_qubit(chain: ChainStack, a) -> list[OutcomeStack]:
    """Project an interior vertex to turn its two neighbors into a logical
    pair, in every row of a stack.

    Success probability (1 - cos chi)/4; at chi = pi the complementary
    projection also succeeds (total probability 1). Otherwise the complement
    is a failure carrying the Z-measurement recovery split.
    xlike_probability_stack gives the primary success probability alone.

    a must be a plain interior vertex, as in the paper, which forms a logical
    qubit from one. A vertex that already belongs to a logical pair is outside
    that scope: it raises NoLogicalPairError rather than extending the pair.
    Eligible weights so small that the success branch's probability falls
    below ZERO_PROB_CUTOFF raise ZeroOutcomeError, naming a and the
    probability: the branch has no state to return. A success branch that
    leaves a logical pair mixed-bit amplitudes at or above PAIR_SUPPORT_TOL
    is refused as well (_xlike_success).

    Rows may meet different eligibility cases. Each case's success is its
    own outcome, success_case1 or success_case2, on the rows of that case;
    rows at chi = pi also get the complementary success, with the other
    case's corrections, and the others the failure split, whose
    sub-outcomes below ZERO_PROB_CUTOFF leave out just the rows where they
    vanish. Row k of every outcome is bit for bit the call on row k's chain.
    """
    return _outcomes(_create_logical_branches(chain, a), len(chain.rows))


def _create_logical_branches(chains: ChainStack, a) -> list[_Branch]:
    r = _Rows.of(chains)
    a = _resolve_vertex(chains, a)
    b1, b2, case1, chis, bs = _xlike_plan(r.graph, r.weights, r.pairs, a)
    out = _xlike_success(r, a, b1, b2, bs, case1)
    # the complementary bra <0| - B<1|: a success at chi = pi, else the failure split
    at_pi = _near(chis - math.pi)
    every = np.arange(len(chis))
    if at_pi.any():
        idx = _where(at_pi)
        comp = _xlike_success(r.take(idx), a, b1, b2, -_pick(bs, idx), ~_pick(case1, idx))
        out += [br._replace(rows=_pick(every, idx)[br.rows]) for br in comp]
    if not at_pi.all():
        idx = _where(~at_pi)
        split = _xlike_failure_split(r.take(idx), a, b1, b2, -_pick(bs, idx))
        out += [br._replace(rows=_pick(every, idx)[br.rows]) for br in split]
    return out


def _project_bra(rows: np.ndarray, qubit: int, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """project_qubit of one qubit with row k's bra (<0| + bs[k]<1|)/norm.

    np.hypot rounds |B| as abs() does a single complex, so row k is bit for
    bit the one-row call."""
    nrm = np.sqrt(1.0 + np.hypot(bs.real, bs.imag) ** 2)
    kets = np.empty((len(bs), 2), dtype=complex)
    kets[:, 0], kets[:, 1] = 1.0 / nrm, np.conj(bs) / nrm
    return project_qubit(rows, qubit, kets)


def _xlike_rows(r: _Rows, a: str, b1: str, b2: str, bs: np.ndarray, case1: np.ndarray):
    """The X-like branch of a, with its prescribed corrections, on every row of r.

    Row k projects a with the bra <0| + bs[k]<1| and takes the corrections
    of Case 1 where case1[k] holds, else those of Case 2. Every row is
    projected at once; a row whose probability falls below ZERO_PROB_CUTOFF
    raises ZeroOutcomeError naming a and the probability. The corrections
    differ by case, so the branch comes as one success_case1 or
    success_case2 _Branch per case present, Case 1 first, each holding the
    graph after the branch, its weight rows, the corrected rows and the
    logical pairs. Returns (branches, probabilities, resolved), the last
    two over every row of r: resolved[k] whether every logical pair, the
    new one {b1, b2} included, has mixed-bit amplitudes below
    PAIR_SUPPORT_TOL in row k. The invariants are checked where a post
    becomes a ChainStack.
    """
    red, probs = _project_bra(r.rows, r.graph.vertex_index(a), bs)
    low = np.flatnonzero(probs < ZERO_PROB_CUTOFF)
    if low.size:
        raise ZeroOutcomeError(
            f"X-like projection of {a} has probability {float(probs[low[0]])!r}, "
            f"below the zero cutoff {ZERO_PROB_CUTOFF}"
        )
    g, w = _drop(r.graph, r.weights, [a])
    column = _edge_columns(r.graph)
    pairs = r.pairs | {frozenset({b1, b2})}
    branches, resolved = [], np.empty(len(probs), dtype=bool)
    for case, mask in (("case1", case1), ("case2", ~case1)):
        if not mask.any():
            continue
        idx = _where(mask)  # None only when no row has the other case: the flips may write w
        ng, weights = g, _pick(w, idx)
        chi = _pick(r.weights[:, column[frozenset((a, b1 if case == "case1" else b2))]], idx)
        corr: list[Correction] = []
        if case == "case2":
            # logical X on b1's logical qubit: X on every member flips the sign of
            # each member edge; phase(+phi) on the neighbour absorbs the
            # single-qubit phase the flip leaves
            members = sorted(_logical_class(r.pairs, b1), key=ng.vertex_index)
            ncol = _edge_columns(ng)
            corr += [Correction(m, "X", PAULI_X) for m in members]
            corr += [
                Correction(c, "phase(+phi1)", phase_gate(weights[:, ncol[frozenset((m, c))]]))
                for m in members
                for c, _ in ng.neighbors(m)
            ]
            flip = [i for i, (x, y, _) in enumerate(ng.edges) if x in members or y in members]
            f = weights[:, flip]
            weights[:, flip] = np.where(f == math.pi, f, -f)  # wrap_angle(-f) for f in (-pi, pi]
            ng = _reweighted(ng, weights[0])
        # diagonal, so it acts on the logical qubit from b1 alone
        corr.append(Correction(b1, "zrot((pi-chi)/2)", z_rotation((math.pi - chi) / 2.0)))
        post = _Rows(ng, weights, _corrected(ng, _pick(red, idx), corr), pairs)
        rows = _pick(np.arange(len(probs)), idx)
        resolved[rows] = np.logical_and.reduce([_pair_support_rows(ng, p, post.rows) for p in pairs])
        branches.append(_Branch(f"success_{case}", rows, _pick(probs, idx), [post], corr))
    return branches, probs, resolved


def _xlike_success(r: _Rows, a: str, b1: str, b2: str, bs: np.ndarray, case1: np.ndarray):
    """_xlike_rows for a success, which must resolve its logical pairs in every row.

    Eligibility admits weights within WEIGHT_TOL of a case, but a row off
    it by delta keeps mixed-bit amplitudes of order delta on the new pair,
    and dividing by the branch norm sqrt(p) amplifies them and the
    round-off of the cancellations that remove them, on every pair. The
    first row left at or above PAIR_SUPPORT_TOL, in row order over both
    cases, is refused: WeightsNotEligibleError when its weights are off its
    case, ZeroOutcomeError when they meet it exactly and only the round-off
    of a weak branch is left. Returns the branches, one per case present.
    """
    branches, probs, resolved = _xlike_rows(r, a, b1, b2, bs, case1)
    if not resolved.all():
        k = int(np.flatnonzero(~resolved)[0])
        column = _edge_columns(r.graph)
        chi1, chi2 = (float(r.weights[k, column[frozenset((a, b))]]) for b in (b1, b2))
        delta = wrap_angle(chi1 - chi2 if case1[k] else chi1 + chi2)
        if delta == 0.0:
            raise ZeroOutcomeError(
                f"X-like projection of {a} has probability {float(probs[k])!r}, too small "
                f"to resolve its logical pairs below PAIR_SUPPORT_TOL"
            )
        case = "case1" if case1[k] else "case2"
        raise WeightsNotEligibleError(
            f"weights ({chi1!r}, {chi2!r}) lie {delta:.3g} off {case}: the X-like branch "
            f"of {a} leaves logical-pair mixed-bit amplitudes above PAIR_SUPPORT_TOL"
        )
    return branches


def _xlike_failure_split(r: _Rows, a: str, b1: str, b2: str, bs: np.ndarray) -> list[_Branch]:
    """Failure branch on every row of r: project a with row k's complement
    bra <0| + bs[k]<1|, then Z-measure b1, b2.

    Each Z measurement takes the whole logical qubit of b1 (then of b2): every
    member is projected onto the outcome and removed, with phase(+chi) on the
    members' neighbours for outcome 1. b1 and b2 are never in one logical
    qubit, since a would close a cycle with it. Each of the four sub-outcomes
    splits the rest into its components (either side of a may be empty). A
    row whose complement or sub-outcome falls below ZERO_PROB_CUTOFF lacks
    that outcome; branch rows are positions in r.
    """
    red, p_a = _project_bra(r.rows, r.graph.vertex_index(a), bs)
    live = _where(~(p_a < ZERO_PROB_CUTOFF))
    rows = _pick(np.arange(len(red)), live)
    if not rows.size:
        return []
    g_a, w_a = _drop(r.graph, _pick(r.weights, live), [a])
    base, p_a = _Rows(g_a, w_a, _pick(red, live), r.pairs), _pick(p_a, live)
    out: list[_Branch] = []
    for s1 in (0, 1):
        live1, r1, p1, corr1 = _z_measure(base, b1, s1)
        if not len(r1.rows):
            continue
        rows1, p1 = _pick(rows, live1), _pick(p_a, live1) * p1
        for s2 in (0, 1):
            live2, r2, p2, corr2 = _z_measure(r1, b2, s2)
            if not len(r2.rows):
                continue
            out.append(
                _Branch(
                    f"failure_z{s1}{s2}",
                    _pick(rows1, live2),
                    _pick(p1, live2) * p2,
                    _split_components(r2),
                    _pick_corr(corr1, live2) + corr2,
                )
            )
    return out


def _split_components(r: _Rows) -> list[_Rows]:
    """Split (possibly disconnected) forest rows into per-component rows.

    Each logical pair links its members like an edge, so the pair and both
    members' edges end up in one component. Each component is factored out
    of every row by one stacked SVD; the rows must be unit vectors, since
    the factors are.
    """
    graph = r.graph
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for a, b in [(a, b) for a, b, _ in graph.edges] + [tuple(p) for p in r.pairs]:
        adj[a].add(b)
        adj[b].add(a)
    check_unit_rows(r.rows)
    out = []
    k = len(r.rows)
    rest, remaining = list(graph.vertices), r.rows
    # an empty register still yields one (empty) post-state
    for comp in _components(adj) or [set()]:
        order = [v for v in rest if v in comp]
        if len(order) < len(rest):
            # move component qubits to the front, then factor
            others = [v for v in rest if v not in comp]
            perm = [0] + [rest.index(v) + 1 for v in order + others]
            arr = remaining.reshape((k,) + (2,) * len(rest)).transpose(perm)
            sub, remaining = _split_rows(arr.reshape(k, 1 << len(order), -1))
            rest = others
        else:
            sub = remaining
        gsub, weights = _drop(graph, r.weights, [v for v in graph.vertices if v not in comp])
        out.append(_Rows(gsub, weights, sub, frozenset(p for p in r.pairs if p <= comp)))
    return out


def rez_formula(chi_bf, chi_bf2=0.0):
    """Re z = [1 + cos chi_bf + cos chi_bf' + cos(chi_bf + chi_bf')]/4: a float
    for scalars, the (K,) Re z for (K,) arrays of one shape, row k bit for bit
    the scalar call. InputError for a non-finite weight, naming its first bad row."""
    scalar = np.ndim(chi_bf) == 0
    c1, c2 = _angle_arrays(np.atleast_1d(chi_bf), np.atleast_1d(chi_bf2))
    _finite_angles(c1, c2)
    out = (1.0 + np.cos(c1) + np.cos(c2) + np.cos(c1 + c2)) / 4.0
    return float(out[0]) if scalar else out


def _pair_members(left: ChainStack, pair, consume) -> tuple[str, str]:
    """(consumed member a, kept member e) of a registered logical pair.

    a is consume if given, which must be a member, else the member first in
    vertex order.
    """
    p = frozenset(_resolve_vertex(left, v) for v in pair)
    if p not in left.logical_pairs:
        raise NoLogicalPairError(f"{set(p)} is not a registered logical pair")
    if consume is None:
        a, e = sorted(p, key=left.graph.vertices.index)
        return a, e
    a = _resolve_vertex(left, consume)
    if a not in p:
        raise NoLogicalPairError(f"consume vertex {a} is not a member of {set(p)}")
    (e,) = p - {a}
    return a, e


def _type_ii_branches(left: ChainStack, pair, right: ChainStack, b, consume):
    """Everything fuse_type_ii computes before its first post-state, for left
    row k fused with right row k, for every k.

    Returns (a, e, b, successes, failures): successes holds (label, sign,
    vecs, probs) for the two Bell outcomes, vecs the (K, 2^(n_l + n_r - 2))
    unnormalized merged states; failures holds (label, sa, sb, vl, probs)
    for the two X-type product outcomes, vl the (K, 2^(n_l - 1))
    unnormalized left states; probs are (K,) arrays. The numeric z of every
    row must match the formula within ABORT_TOL, else NumericalAbortError
    names the first row that does not.
    """
    a, e = _pair_members(left, pair, consume)
    b = _resolve_vertex(right, b)
    if any(b in p for p in right.logical_pairs):
        raise NoLogicalPairError(f"{b} belongs to a logical pair on the right chain")
    _paired(left, right)

    f1, f2 = _branch_rows(left.rows, left.graph.vertex_index(a))
    f3, f4 = _branch_rows(right.rows, right.graph.vertex_index(b))
    zs = np.vecdot(f4, f3)  # branch states are unit vectors
    column = _edge_columns(right.graph)
    chis = right.weights[:, [column[frozenset((b, v))] for v, _ in right.graph.neighbors(b)]]
    expect = np.broadcast_to(inner_z(*chis.T), zs.shape)  # z = 1 for a b with no edge
    bad = np.flatnonzero(~(np.abs(zs - expect) <= ABORT_TOL))
    if bad.size:
        k = bad[0]
        where = f" in row {k}" if len(zs) > 1 else ""
        raise NumericalAbortError(f"z mismatch{where}: numeric {complex(zs[k])}, formula {complex(expect[k])}")

    kron1, kron2 = kron_rows(f1, f3), kron_rows(f2, f4)
    successes = []
    for sign, label in ((+1.0, "success_plus"), (-1.0, "success_minus")):
        vecs = (kron1 + sign * kron2) / (2.0 * math.sqrt(2.0))
        successes.append((label, sign, vecs, np.vecdot(vecs, vecs).real))
    failures = []
    for sa, sb, label in ((+1, -1, "failure_b_minus"), (-1, +1, "failure_b_plus")):
        vl = (f1 + sa * f2) / 2.0
        vr = (f3 + sb * f4) / 2.0
        failures.append((label, sa, sb, vl, np.vecdot(vl, vl).real * np.vecdot(vr, vr).real))
    return a, e, b, successes, failures


def type_ii_probabilities_stack(
    left: ChainStack, pair, right: ChainStack, b, consume: str | None = None
) -> dict[str, np.ndarray]:
    """The four outcome probabilities of fuse_type_ii, by label, and nothing
    else, for left row k against right row k, for every k.

    Same checks and errors as fuse_type_ii, the numeric-vs-formula check of
    z and the row pairing included. Returns the (K,) probabilities by label,
    row k bit for bit the ones fuse_type_ii carries on row k's two chains;
    no post-state is built. The z check runs on every row; the first row
    that fails it raises.
    """
    *_, successes, failures = _type_ii_branches(left, pair, right, b, consume)
    return {label: probs for label, *_, probs in successes + failures}


def fuse_type_ii(
    left: ChainStack, pair, right: ChainStack, b, consume: str | None = None
) -> list[OutcomeStack]:
    """Bell-measure one logical pair member against a qubit of other chains.

    Success outcomes (<00| +/- <11|, total probability 1/2) merge the chains:
    the kept pair member e inherits the logical vertex's and b's neighbors.
    Failure outcomes are X-type with probabilities (1 -/+ Re z)/4; the
    b-side <0|-<1| branch is a good failure under Case-2 weights on b. A
    failure that is not good destroys the right graph's structure, so it
    lists only the left post-state. type_ii_probabilities_stack gives the
    four probabilities alone.

    Left row k is fused with right row k, for every k, in one pass: the
    stacks must hold the same number of rows (else InputError), so each row
    may carry its own left chain, of either eligibility case. Row k of
    every outcome is bit for bit the call on row k's two chains. A failure
    label heads one OutcomeStack per kind of row: those below
    ZERO_PROB_CUTOFF (no post-state), those whose right branch is not good
    and those whose right branch is good.
    """
    return _outcomes(_type_ii_outcomes(left, pair, right, b, consume), len(right.rows))


def _type_ii_outcomes(left: ChainStack, pair, right: ChainStack, b, consume):
    """fuse_type_ii of left row k with right row k, for every k, as _Branches."""
    a, e, b, successes, failures = _type_ii_branches(left, pair, right, b, consume)
    lr, rr = _Rows.of(left), _Rows.of(right)
    every = np.arange(len(rr.rows))
    lg, lw = _drop(lr.graph, lr.weights, [a])
    rg, rw = _drop(rr.graph, rr.weights, [b])
    # e inherits the logical vertex's edges (already on a and e) plus b's edges
    at_a = [(x, y, w) for x, y, w in lr.graph.edges if a in (x, y)]
    moved = tuple((e if x == a else x, e if y == a else y, w) for x, y, w in at_a)
    nbs = rr.graph.neighbors(b)
    extra = tuple((e, v, w) for v, w in nbs)
    merged = WeightedGraph(lg.vertices + rg.vertices, lg.edges + moved + rg.edges + extra)
    # failures: X-type product projections; left side always collapses the
    # pair into a plain vertex e carrying the logical vertex's edges.
    left_graph = WeightedGraph(lg.vertices, lg.edges + moved)
    lcol, rcol = _edge_columns(lr.graph), _edge_columns(rr.graph)
    left_weights = np.hstack([lw, lr.weights[:, [lcol[frozenset((x, y))] for x, y, _ in at_a]]])
    weights = np.hstack([left_weights, rw, rr.weights[:, [rcol[frozenset((b, v))] for v, _ in nbs]]])
    pairs_left = frozenset(p for p in lr.pairs if a not in p)

    out: list[_Branch] = []
    for label, sign, vecs, probs in successes:
        corr = [Correction(e, "Z", PAULI_Z)] if sign < 0 else []
        rows = _corrected(merged, vecs / np.sqrt(probs)[:, None], corr)
        post = _Rows(merged, weights, rows, pairs_left | rr.pairs)
        out.append(_Branch(label, every, probs, [post], corr))

    for label, sa, sb, vl, probs in failures:
        low = probs < ZERO_PROB_CUTOFF
        if low.any():
            out.append(_Branch(label, np.flatnonzero(low), probs[low], [], []))
        if low.all():
            continue
        live = _where(~low)
        rows, probs = _pick(every, live), _pick(probs, live)
        corr = [Correction(e, "Z", PAULI_Z)] if sa < 0 else []
        sl = _corrected(left_graph, normalized_rows(_pick(vl, live)), corr)
        lpost = _Rows(left_graph, _pick(left_weights, live), sl, pairs_left)
        good = _good_right_failure(rr.take(live), b, sb)
        if good is None:
            out.append(_Branch(label, rows, probs, [lpost], corr))
            continue
        ok, post, good_corr = good
        if not ok.all():
            rest = np.flatnonzero(~ok)
            out.append(_Branch(label, rows[rest], probs[rest], [lpost.take(rest)], corr))
        idx = _where(ok)
        posts = [lpost.take(idx), post]
        out.append(_Branch(label, _pick(rows, idx), _pick(probs, idx), posts, corr + good_corr, True))
    return out


def _good_right_failure(r: _Rows, b: str, sb: int):
    """The X-like branch of b's projection onto (<0| + sb <1|)/sqrt2 in the rows where it is good.

    Good means b is interior, the row's weights match the bra's
    eligibility case and the branch resolves its logical pairs (below
    PAIR_SUPPORT_TOL; see _xlike_success). Returns (ok, post, corrections):
    ok the (K,) mask of the good rows and the branch on those rows; None
    when no row is good, since elsewhere the residual is not a weighted
    graph state.
    """
    nbs = sorted(r.graph.neighbors(b), key=lambda t: r.graph.vertices.index(t[0]))
    if len(nbs) != 2:
        return None
    (b1, _), (b2, _) = nbs
    column = _edge_columns(r.graph)
    chi1, chi2 = (r.weights[:, column[frozenset((b, v))]] for v in (b1, b2))
    if sb < 0:  # <0| - <1| is the Case-2 bra (B = -1)
        ok = _near(chi1 + chi2)
    else:  # <0| + <1| is the Case-1 bra only at chi = pi (B = -e^{i pi})
        ok = _near(chi1 - math.pi) & _near(chi2 - math.pi)
    if not ok.any():
        return None
    bs = np.full(int(ok.sum()), float(sb))
    (branch,), _, resolved = _xlike_rows(r.take(_where(ok)), b, b1, b2, bs, bs > 0)
    ok[ok] = resolved
    if not ok.any():
        return None
    idx = _where(resolved)
    return ok, branch.posts[0].take(idx), _pick_corr(branch.corr, idx)


def fusion_context_rows(
    left: ChainStack, pair, right: ChainStack, b, consume: str | None = None
) -> FusionContext:
    """The FusionContext of fusing a member of left's logical pair with b of
    right, left row k with right row k, for every k: one context row per
    pair. Stacks of different row counts are an InputError.

    The consumed member a (consume, else the member first in vertex order)
    gives f1, f2 = the |0>_a, |1>_a slices of each left row (e stays), and
    b gives f3, f4 on the right; each slice is normalized. A registered
    logical pair has |00>/|11> support only, so f1 is orthogonal to f2.
    """
    a, _ = _pair_members(left, pair, consume)
    b = _resolve_vertex(right, b)
    _paired(left, right)
    fs = _branch_rows(left.rows, left.graph.vertex_index(a))
    fs += _branch_rows(right.rows, right.graph.vertex_index(b))
    return FusionContext(*(normalized_rows(f) for f in fs))


def fuse_generalized(
    left: ChainStack, pair, right: ChainStack, b, u: ModeUnitary, consume: str | None = None
) -> tuple[FusionContext, list[FusionOutcome]]:
    """Generalized fusion of one left chain with one right chain through an
    arbitrary mode unitary.

    fusion_context_rows, then the fock layer's enumerate_outcomes, which
    takes one fusion: stacks of different row counts are refused by the
    first, a context of more than one row by the second (both InputError).
    Returns the one-row context (for analysis hooks) plus the full outcome
    list.
    """
    ctx = fusion_context_rows(left, pair, right, b, consume)
    return ctx, enumerate_outcomes(ctx, u)


def weighted_pair_rows(phis) -> np.ndarray:
    """The 2-vertex weighted graph state of every phi of a (K,) array, as a
    (K, 4) stack: a phi that wraps below ZERO_WEIGHT has no edge in its row
    (|++>)."""
    return _chain_rows(["b1", "b2"], np.asarray(phis, dtype=float)[:, None])


def _chain_rows(labels: list[str], weights) -> np.ndarray:
    """build_state(chain_graph(labels, weights[k])).amplitudes for every row k
    of K weight rows, as a (K, 2^n) stack.

    As in chain_graph, a weight that wraps below ZERO_WEIGHT drops its
    edge; the rows that keep the same edges share one stacked build_state.
    A non-finite weight raises InvalidGraphError.
    """
    weights = np.array(weights, dtype=float).reshape(-1, len(labels) - 1)
    if not np.isfinite(weights).all():
        raise InvalidGraphError("non-finite weight in a weight row")
    keep = np.abs(_wrap_rows(weights)) >= ZERO_WEIGHT

    def shape(kept) -> WeightedGraph:
        edges = tuple((x, y, math.pi) for x, y, k in zip(labels, labels[1:], kept) if k)
        return WeightedGraph(tuple(labels), edges)

    out = np.empty((len(keep), 1 << len(labels)), dtype=complex)
    kinds, kind = np.unique(keep, axis=0, return_inverse=True)
    for i, kept in enumerate(kinds):
        rows = np.flatnonzero(kind.reshape(-1) == i)
        out[rows] = build_state(shape(kept.tolist()), weights[rows][:, kept])
    return out


def local_equivalent_rows(mc: np.ndarray, mt: np.ndarray):
    """Single-qubit unitaries (A, B) with (A x B)|candidate> = |target>, for
    stacks of candidate and target amplitude matrices: mc and mt are
    (..., 2, 2) arrays whose leading axes broadcast against each other.

    Two 2-qubit pure states are local-unitary equivalent iff their Schmidt
    spectra agree; the rotations come straight out of the two SVDs, one
    stacked SVD per side. Returns A, B and the verdicts, one per broadcast
    row: a row holds iff its Schmidt spectra agree and (A x B) maps its
    candidate onto its target, both within LU_MATCH_TOL (a NaN fails).
    """
    uc, sc, vhc = np.linalg.svd(mc)
    ut, st, vht = np.linalg.svd(mt)
    a = ut @ uc.conj().mT
    b = (vhc.conj().mT @ vht).mT
    # verify exactly; degenerate Schmidt spectra may need no more than this
    out = a @ mc @ b.mT
    ok = np.abs(sc - st).max(axis=-1) <= LU_MATCH_TOL
    ok &= np.abs(out - mt).max(axis=(-2, -1)) <= LU_MATCH_TOL
    return a, b, ok


def ghz_pair_projection(chi1, chi2, mag_a) -> tuple[np.ndarray, np.ndarray]:
    """Measurement bases on the middle GHZ qubit yielding a weighted pair, for
    every row k of the (K,) arrays chi1, chi2, mag_a.

    Returns (kets, phis): kets[k, 0] is row k's projection ket and
    kets[k, 1] its complement ket, as project_qubit takes them (it applies
    the conjugate bra), and phis[k] the pair weight. Both outcomes of a row
    produce the 2-qubit weighted graph state with the same weight phi (up to
    diagonal local corrections), with arg B = arg A + (chi1 + chi2 + pi)/2
    and phi = +/- arccos(1 - 2|A|^2|B|^2 (1-cos chi1)(1-cos chi2)).

    The bras are arrays, the weights one pair_weight_from_projection call,
    and the simulation that checks the bases is stacked: one GHZ build and
    one target build (a build per edge pattern, should a weight drop its
    edge), one project_qubit over both outcomes of every row, which checks
    every ket's norm, and one stacked local-unitary check. Input refusals
    come before verdicts, each naming its first bad row: InputError for a
    non-finite angle, then for a NaN |A|; then NotAchievableError for |A|
    outside [0, 1], a row with no realizable outcome, or an outcome the
    simulation does not confirm, in that order.
    """
    chi1, chi2, mag_a = _angle_arrays(chi1, chi2, mag_a)
    _finite_angles(chi1, chi2)
    bad = np.flatnonzero(np.isnan(mag_a))
    if bad.size:
        raise InputError(f"|A| must be a number, got nan in row {bad[0]}")
    bad = np.flatnonzero(~((0.0 <= mag_a) & (mag_a <= 1.0)))
    if bad.size:
        raise NotAchievableError(f"|A| must lie in [0, 1], got {float(mag_a[bad[0]])!r} in row {bad[0]}")
    mag_b = np.sqrt(np.maximum(0.0, 1.0 - mag_a * mag_a))
    bra_a, bra_b = mag_a + 0j, mag_b * np.exp(1j * ((chi1 + chi2 + math.pi) / 2.0))
    phis, _ = pair_weight_from_projection(bra_a, bra_b, chi1, chi2)
    # the projection ket is the conjugate of the bra (A, B); the complement
    # applies the bra (B*, -A*)
    kets = np.stack([np.conj(bra_a), np.conj(bra_b), bra_b, -bra_a], axis=1).reshape(-1, 2, 2)
    # verify both outcomes by direct 3-qubit simulation: each must be
    # local-unitary matchable to the weighted pair with the SAME phi;
    # rows 2k and 2k + 1 are row k's projection and complement
    ghz = _chain_rows(["b1", "a", "b2"], np.stack([chi1, chi2], axis=1))
    target = weighted_pair_rows(phis)
    red, probs = project_qubit(np.repeat(ghz, 2, axis=0), 1, kets.reshape(-1, 2))
    live = ~(probs < ZERO_PROB_CUTOFF)  # zero-probability outcomes (poles |A| in {0,1}) drop out
    check_unit_rows(red[live])
    _, _, match = local_equivalent_rows(red.reshape(-1, 2, 2, 2), target.reshape(-1, 1, 2, 2))
    live = live.reshape(-1, 2)
    bad = np.flatnonzero(~live.any(axis=1))
    if bad.size:
        raise NotAchievableError(f"no realizable outcome in row {bad[0]}")
    bad = np.flatnonzero((live & ~match).any(axis=1))
    if bad.size:
        raise NotAchievableError(f"simulated outcome is not the weighted pair the formula predicts in row {bad[0]}")
    return kets, phis


def ghz_pair_range(chi1, chi2):
    """Maximum |phi| reachable: arccos(1 - (1-cos chi1)(1-cos chi2)/2).

    Scalars give a float, (K,) arrays a (K,) array, row k bit for bit the
    scalar call. InputError for a non-finite weight, naming its first bad row.
    """
    c1, c2 = _angle_arrays(np.atleast_1d(chi1), np.atleast_1d(chi2))
    _finite_angles(c1, c2)
    out = np.arccos(np.clip(1.0 - 0.5 * (1.0 - np.cos(c1)) * (1.0 - np.cos(c2)), -1.0, 1.0))
    return float(out[0]) if np.ndim(chi1) == 0 else out


def ghz_pair_for_target_stack(chi1, chi2, phi_target) -> np.ndarray:
    """The GHZ-to-pair bases of the (K,) arrays chi1, chi2, phi_target, as
    ghz_pair_projection's (K, 2, 2) kets: row k's projection and complement
    yield the pair weight phi_target[k].

    Inverts the phi formula for |A| (closed form) on every row at once; the
    bases come from one ghz_pair_projection call over every row, so row k
    is bit for bit the K = 1 call on row k. Input refusals come before
    verdicts, and each names its first bad row: InputError for a
    non-finite angle; then NotAchievableError for a nonzero target on a
    zero-weight edge, then for a target out of range, then for a failed
    inversion check.
    """
    chi1, chi2, phi_target = _angle_arrays(chi1, chi2, phi_target)
    _finite_angles(chi1, chi2, phi_target)
    denom = (1.0 - np.cos(chi1)) * (1.0 - np.cos(chi2))
    inverted = ~(denom < ZERO_RANGE)
    t = (1.0 - np.cos(phi_target)) / (2.0 * np.where(inverted, denom, 1.0))
    bad = np.flatnonzero(~inverted & ~(np.abs(_wrap_rows(phi_target)) < ZERO_WEIGHT))
    if bad.size:
        raise NotAchievableError(f"a zero-weight edge forces phi = 0 in row {bad[0]}")
    bad = np.flatnonzero(inverted & ~(t <= 0.25 + BOUND_SLACK))
    if bad.size:
        cap = ghz_pair_range(chi1[bad[0]], chi2[bad[0]])
        raise NotAchievableError(f"|phi_target| exceeds the range cap {cap:.6f} in row {bad[0]}")
    mags = np.where(inverted, np.sqrt((1.0 - np.sqrt(np.maximum(0.0, 1.0 - 4.0 * t))) / 2.0), 0.0)
    kets, phis = ghz_pair_projection(chi1, chi2, mags)
    gap = np.abs(np.abs(_wrap_rows(phis)) - np.abs(_wrap_rows(phi_target)))
    bad = np.flatnonzero(inverted & ~(gap <= INVERSION_TOL))
    if bad.size:
        raise NotAchievableError(f"inversion check failed in row {bad[0]}")
    return kets


def sample_outcomes(outcomes: list, n: int, seed: int) -> list[str]:
    """Monte Carlo mode: draw n outcome labels with the injected seed.

    Each outcome (a one-row call's OutcomeStack or a FusionOutcome)
    supplies probability and label. The distribution must be complete:
    InputError unless every probability is >= -PROB_SUM_TOL and they sum to
    1 within PROB_SUM_TOL. Only that round-off is clipped away before
    sampling.
    """
    rng = np.random.default_rng(seed)
    probs = np.array([o.probability for o in outcomes], dtype=float)
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN fails too
        raise InputError(f"not a complete distribution: probabilities sum to {total!r}")
    if np.any(probs < -PROB_SUM_TOL):
        raise InputError(f"negative probability {float(probs.min())!r}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    labels = [o.label for o in outcomes]
    idx = rng.choice(len(outcomes), size=n, p=probs)
    return [labels[i] for i in idx]
