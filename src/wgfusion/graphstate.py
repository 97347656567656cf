"""Weighted graph states as dense pure states.

A weighted graph assigns a phase weight chi in (-pi, pi] to each edge; the
associated n-qubit state is built from |+>^n by applying e^{-i chi |11><11|}
along every edge. chi = pi recovers the ordinary graph-state CZ edge.
build_state computes it by the one-vertex recursion
    (|0>|phi> + |1> prod_b e^{-i chi |1><1|_b} |phi>)/sqrt2,
all vertices at once in one table; attach_vertex is the same recursion applied
to one vertex.

Batch axis: the dense kernels act on a (K, 2^n) stack of K states that share
one register, one row per state. build_state takes a graph shape plus a
(K, E) weight array, project_qubit projects one qubit of every row onto one
ket (or that row's ket) and apply_local applies one 2x2 gate (or one per
row) to one qubit; a single state is their K = 1 stack. Each checks its
target and its gates or kets itself. build_state has one kernel path:
build_state(graph) is row 0 of the one-row stack of the graph's own
weights, so a stacked row is bit for bit the single-state result.

Bit-ordering convention (shared by all modules): qubit 0 is the MOST
significant bit of the amplitude index, i.e. basis index
    idx = sum_q bit_q << (n - 1 - q).
Global phase is ignored in all equality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    IndexClashError,
    InputError,
    InvalidGraphError,
    NonUnitaryGateError,
    ShapeMismatchError,
)
from .tolerances import (
    DEFAULT_QUBIT_CAP,
    NORM_TOL,
    STATE_NORM_TOL,
    ZERO_PROB_CUTOFF,
    ZERO_WEIGHT,
)


def _finite_angles(*angles: np.ndarray) -> None:
    """InputError unless every angle of the (K,) arrays of one shape is finite
    (a NaN or inf weight names no edge), naming the first bad row."""
    ok = np.isfinite(angles)
    if not ok.all():
        k = np.flatnonzero(~ok.all(axis=0))[0]
        raise InputError(f"angles must be finite, got {tuple(float(x[k]) for x in angles)!r} in row {k}")


def _angle_arrays(*xs) -> tuple[np.ndarray, ...]:
    """The arguments as float (complex if complex) arrays of one shape (K >= 1,), else InputError."""
    xs = tuple(np.asarray(x, dtype=complex if np.iscomplexobj(x) else float) for x in xs)
    if xs[0].ndim != 1 or not len(xs[0]) or any(x.shape != xs[0].shape for x in xs):
        shapes = ", ".join(str(x.shape) for x in xs)
        raise InputError(f"need {len(xs)} (K >= 1,) arrays, got shapes {shapes}")
    return xs


def wrap_angle(chi: float) -> float:
    """Normalize an angle into (-pi, pi]; InputError for an infinite or NaN angle."""
    try:
        out = math.remainder(chi, 2.0 * math.pi)
    except ValueError:  # math.remainder refuses an infinite dividend
        raise InputError(f"angle must be finite, got {chi!r}") from None
    if out <= -math.pi:
        out += 2.0 * math.pi
    elif out != out:  # math.remainder passes a NaN through; only a NaN differs from itself
        raise InputError(f"angle must be finite, got {chi!r}")
    return out


def _wrap_rows(x: np.ndarray) -> np.ndarray:
    """wrap_angle on every entry of an array, bit for bit; a NaN passes through."""
    big = np.abs(x) >= math.pi  # math.remainder leaves |x| < pi as it is
    if big.any():
        x = x.copy()
        x[big] = [wrap_angle(v) for v in x[big].tolist()]
    return x


@dataclass(frozen=True)
class WeightedGraph:
    """Vertices plus phase-weighted edges.

    Edges are stored canonically as (a, b, chi) with a, b vertex labels in
    vertex order and chi normalized into (-pi, pi]. Edges whose normalized
    weight is (numerically) zero are dropped: zero weight means "no edge".
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise InvalidGraphError("duplicate vertex labels")
        seen = set()
        canon = []
        for a, b, chi in self.edges:
            if a not in index or b not in index:
                raise InvalidGraphError(f"edge endpoint not in vertices: ({a},{b})")
            if a == b:
                raise InvalidGraphError(f"self-loop on {a}")
            key = (min(index[a], index[b]), max(index[a], index[b]))
            if key in seen:
                raise InvalidGraphError(f"duplicate edge ({a},{b})")
            seen.add(key)
            chi = float(chi)
            if not math.isfinite(chi):
                raise InvalidGraphError(f"non-finite weight {chi} on ({a},{b})")
            w = wrap_angle(chi)
            if abs(w) < ZERO_WEIGHT:
                continue  # zero weight == no edge
            if index[a] > index[b]:
                a, b = b, a
            canon.append((a, b, w))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InvalidGraphError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: str) -> list[tuple[str, float]]:
        """Neighbors of v with edge weights."""
        out = []
        for a, b, chi in self.edges:
            if a == v:
                out.append((b, chi))
            elif b == v:
                out.append((a, chi))
        return out

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def weight(self, a: str, b: str) -> float:
        for x, y, chi in self.edges:
            if {x, y} == {a, b}:
                return chi
        return 0.0

    def as_dict(self) -> dict:
        """The graph-JSON document {"vertices": [...], "edges": [{"a", "b", "chi"}, ...]}."""
        return {
            "vertices": list(self.vertices),
            "edges": [{"a": a, "b": b, "chi": chi} for a, b, chi in self.edges],
        }

    @staticmethod
    def parse_dict(doc: dict) -> tuple[tuple[str, ...], tuple[tuple[str, str, float], ...]]:
        """(vertices, edges) of a graph-JSON document, weights as written.

        Keys other than "vertices" and "edges" are ignored; nothing is validated
        beyond the shape, so the caller sees the raw weights before wrapping.
        """
        try:
            verts = tuple(str(v) for v in doc["vertices"])
            edges = tuple(
                (str(e["a"]), str(e["b"]), float(e["chi"])) for e in doc["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidGraphError(f"malformed graph JSON: {exc}") from exc
        return verts, edges

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightedGraph":
        """Inverse of as_dict."""
        return cls(*cls.parse_dict(doc))


def chain_graph(labels: list[str], weights: list[float]) -> WeightedGraph:
    """Path graph over labels with consecutive edge weights."""
    if len(weights) != len(labels) - 1:
        raise InvalidGraphError("need len(labels)-1 weights for a chain")
    edges = tuple(
        (labels[i], labels[i + 1], weights[i]) for i in range(len(weights))
    )
    return WeightedGraph(tuple(labels), edges)


@dataclass
class PureState:
    """Dense amplitude table over an n-qubit register, normalized to STATE_NORM_TOL."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != 1 << self.num_qubits:
            raise ShapeMismatchError(
                f"{self.amplitudes.size} amplitudes for {self.num_qubits} qubits"
            )
        nrm = math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(nrm - 1.0) <= STATE_NORM_TOL:  # a NaN norm fails too
            raise ShapeMismatchError(f"state not normalized: |psi| = {nrm}")

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.num_qubits)


def _sum_abs_sq(*coefficients: complex) -> float:
    """sum |c|^2 over the coefficients, summed left to right.

    abs(c) ** 2 raises OverflowError for a finite |c| above about 1e154;
    that sum is returned as inf instead, so a norm guard refuses it.
    """
    total = 0.0
    try:
        for c in coefficients:
            total += abs(c) ** 2
    except OverflowError:
        return math.inf
    return float(total)


def check_ket_rows(kets: np.ndarray) -> None:
    """project_qubit's normalization check on every ket of a (K, 2) stack.

    Raises ShapeMismatchError naming the first row k whose |c0|^2 + |c1|^2
    is off 1 by more than NORM_TOL (a NaN fails too, and a square that
    overflows counts as inf).
    """
    with np.errstate(over="ignore"):
        dev = np.abs((np.abs(kets) ** 2).sum(axis=-1) - 1.0)
    bad = np.flatnonzero(~(dev <= NORM_TOL))
    if bad.size:
        raise ShapeMismatchError(f"ket row {bad[0]} not normalized")


# Common gates.
_IDENTITY = np.eye(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _diagonal_gates(d0, d1) -> np.ndarray:
    """diag(d0, d1): one 2x2 gate, or a (K, 2, 2) stack for (K,) arrays of entries."""
    gates = np.zeros(np.shape(d1) + (2, 2), dtype=complex)
    gates[..., 0, 0] = d0
    gates[..., 1, 1] = d1
    return gates


def phase_gate(phi) -> np.ndarray:
    """diag(1, e^{i phi}) == e^{i phi |1><1|}; a (K,) array of angles gives K gates."""
    return _diagonal_gates(1.0, np.exp(1j * phi))


def z_rotation(theta) -> np.ndarray:
    """e^{i theta Z} = diag(e^{i theta}, e^{-i theta}); a (K,) array of angles gives K gates."""
    return _diagonal_gates(np.exp(1j * theta), np.exp(-1j * theta))


def _bit_view(table: np.ndarray, bits: dict[int, int]) -> np.ndarray:
    """Writable view of a (2,)*n table with each qubit q in bits fixed to bits[q].

    The trailing Ellipsis keeps the result a view even when every axis is fixed.
    """
    index = [slice(None)] * table.ndim
    for q, bit in bits.items():
        index[q] = bit
    return table[(*index, ...)]


def apply_phase_edge(state: PureState, a: int, b: int, chi: float) -> PureState:
    """Multiply amplitudes with both bits a, b set by e^{-i chi}."""
    n = state.num_qubits
    if a == b:
        raise IndexClashError("phase edge endpoints must differ")
    if not (0 <= a < n and 0 <= b < n):
        raise IndexClashError("phase edge index out of range")
    table = state.reshaped().copy()
    both = _bit_view(table, {a: 1, b: 1})
    both *= np.exp(-1j * chi)
    return PureState(n, table)


def weight_rows(graph: WeightedGraph, weights) -> np.ndarray:
    """(K, E) float rows over graph.edges, K >= 1, each weight wrapped as
    WeightedGraph wraps it.

    A non-finite weight, or one that wraps below ZERO_WEIGHT (no edge, so
    another graph than the shape), raises InvalidGraphError.
    """
    try:
        rows = np.array(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed weight rows: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != len(graph.edges) or not len(rows):
        raise InvalidGraphError(
            f"weights of shape {rows.shape}: need (K >= 1, {len(graph.edges)}) for this graph"
        )
    mags = np.abs(rows)
    # every |w| in [ZERO_WEIGHT, pi): nothing to wrap or refuse (a NaN or inf fails this test)
    if not rows.size or ZERO_WEIGHT <= mags.min() and mags.max() < math.pi:
        return rows
    if not np.isfinite(rows).all():
        raise InvalidGraphError("non-finite weight in a weight row")
    rows = _wrap_rows(rows)
    if not (np.abs(rows) >= ZERO_WEIGHT).all():
        k, e = np.argwhere(np.abs(rows) < ZERO_WEIGHT)[0]
        a, b, _ = graph.edges[e]
        raise InvalidGraphError(
            f"weight row {k} drops edge ({a},{b}): {float(rows[k, e])!r} is below ZERO_WEIGHT"
        )
    return rows


def build_state(graph: WeightedGraph, weights=None):
    """Dense state of a weighted graph by the vertex recursion, in one table.

    The prefix table[:2^k] holds the state of the last k vertices. Vertex
    v = n-1-k joins as the new most significant bit: the prefix is copied into
    table[2^k:2^(k+1)], its v = 1 half, and every edge (v, q) with q > v
    multiplies that half's q = 1 slice by e^{-i chi}. This is attach_vertex's
    recursion run in place, so peak memory is one state vector per row. The
    result is bit for bit the gate-by-gate product with the edges taken
    grouped by their earlier endpoint, last vertex first, in graph.edges order
    within a group.

    build_state(graph, weights) reads graph as a shape (vertices and edge
    endpoints) and weights as a (K, E) array whose row k weighs graph.edges;
    it returns the (K, 2^n) stack of the graph's states under those rows, the
    table carrying them on a trailing axis. A weight that is not finite or
    wraps below ZERO_WEIGHT (no edge: another shape) raises InvalidGraphError.
    build_state(graph) is row 0 of the stack of the graph's own weights.
    """
    if weights is None:
        return PureState(graph.n, build_state(graph, [[chi for *_, chi in graph.edges]])[0])
    n = graph.n
    if n > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"{n} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    chis = weight_rows(graph, weights)
    phases = np.exp(-1j * chis).T  # one (K,) column per edge
    table = np.empty((1 << n, len(chis)), dtype=complex)
    table[0] = 1.0 / math.sqrt(1 << n)
    position = {v: q for q, v in enumerate(graph.vertices)}
    later: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(n)]
    for (a, b, _), phase in zip(graph.edges, phases):  # canonical: position[a] < position[b]
        later[position[a]].append((position[b], phase))
    size = 1
    for v in range(n - 1, -1, -1):
        half = table[size : 2 * size]
        half[...] = table[:size]
        for q, phase in later[v]:
            half.reshape(1 << (q - v - 1), 2, -1, len(chis))[:, 1] *= phase
        size *= 2
    return np.ascontiguousarray(table.T)


def attach_vertex(
    state: PureState, new_qubit: int, neighbor_weights: list[tuple[int, float]]
) -> PureState:
    """Attach a fresh qubit via the recursion
    (|0>|phi> + |1> prod_b e^{-i chi |1><1|_b} |phi>)/sqrt2,
    the recursion build_state runs over every vertex.

    new_qubit is the insertion position in the enlarged register (0..n);
    neighbor indices refer to positions in the EXISTING register and are
    shifted automatically when they land at or after the insertion point.
    """
    n = state.num_qubits
    if n + 1 > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"{n + 1} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    if not (0 <= new_qubit <= n):
        raise IndexClashError(f"insertion position {new_qubit} out of range")
    phi = state.amplitudes
    branch = state.reshaped().copy()
    for b, chi in neighbor_weights:
        if not (0 <= b < n):
            raise IndexClashError(f"neighbor index {b} out of range")
        # single-qubit phase e^{-i chi |1><1|} on b
        one = _bit_view(branch, {b: 1})
        one *= np.exp(-1j * chi)
    # stack: new qubit as most significant of a front register, then move it
    out = np.concatenate([phi, branch.reshape(-1)]) / math.sqrt(2.0)
    if new_qubit != 0:
        out = np.moveaxis(out.reshape((2,) * (n + 1)), 0, new_qubit).reshape(-1)
    return PureState(n + 1, out)


def check_unit_rows(rows: np.ndarray) -> None:
    """PureState's unit-norm invariant on every row of a (K, 2^n) stack.

    Raises ShapeMismatchError naming the first row whose norm is off by more
    than STATE_NORM_TOL (a NaN norm fails too).
    """
    norms = np.sqrt(np.vecdot(rows, rows).real)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= STATE_NORM_TOL))
    if bad.size:
        raise ShapeMismatchError(f"row {bad[0]} not normalized: |psi| = {norms[bad[0]]}")


def normalized_rows(rows: np.ndarray) -> np.ndarray:
    """Each (..., D) row over its norm, the norm summed as np.linalg.norm sums
    one complex vector: sqrt(re.re + im.im)."""
    return rows / np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))[..., None]


def kron_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of matching rows of (..., dx) and (..., dy) stacks, their
    leading axes broadcast, as one product: (..., dx * dy)."""
    prod = x[..., :, None] * y[..., None, :]
    return prod.reshape(*prod.shape[:-2], -1)


def eigvalsh_2x2(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (..., 2, 2) Hermitian stack, ascending,
    as a (..., 2) array, in closed form:

        lam = tr/2 -+ hypot((rho00 - rho11)/2, |rho01|).

    It reads the real diagonal and rho01 only, and makes no LAPACK call per
    matrix as np.linalg.eigvalsh does; a NaN entry gives NaN eigenvalues.
    """
    d0, d1 = rho[..., 0, 0].real, rho[..., 1, 1].real
    off = rho[..., 0, 1]
    mid = (d0 + d1) / 2.0
    rad = np.hypot((d0 - d1) / 2.0, np.hypot(off.real, off.imag))
    return np.stack([mid - rad, mid + rad], axis=-1)


def _check_target(rows: np.ndarray, target: int) -> None:
    """ShapeMismatchError unless rows is a (K, 2^n) stack, IndexClashError
    unless target is one of its n qubits."""
    width = rows.shape[1] if rows.ndim == 2 else 0
    if not width or width & (width - 1):
        raise ShapeMismatchError(f"rows of shape {rows.shape}: need a (K, 2^n) stack")
    n = width.bit_length() - 1
    if not 0 <= target < n:
        raise IndexClashError(f"target {target} out of range for {n} qubits")


def _check_row_count(rows: np.ndarray, count: int, what: str) -> None:
    """InputError unless count, the length of a stack of what, is 1 or K."""
    if count not in (1, len(rows)):
        raise InputError(f"{count} {what} for {len(rows)} rows: need 1 or {len(rows)}")


def apply_local(rows: np.ndarray, target: int, matrix) -> np.ndarray:
    """(K, 2^n) stack with a 2x2 gate applied to qubit target of every row.

    matrix is one (2, 2) gate for all rows or a (K, 2, 2) stack of one gate
    per row; one stacked matmul applies them. IndexClashError for a target
    outside [0, n), NonUnitaryGateError for a gate stack of another shape or
    a gate whose G G^dagger is off the identity by more than NORM_TOL (a NaN
    fails too, and the first such gate is named), InputError for a stack of
    neither 1 nor K gates.
    """
    _check_target(rows, target)
    gates = np.asarray(matrix)
    if gates.ndim not in (2, 3) or gates.shape[-2:] != (2, 2):
        raise NonUnitaryGateError(f"gates of shape {gates.shape}: need (2, 2) or (K, 2, 2)")
    stack = gates.reshape(-1, 2, 2)
    _check_row_count(rows, len(stack), "gates")
    dev = np.abs(stack @ stack.conj().mT - _IDENTITY)
    if not dev.max() <= NORM_TOL:  # a NaN fails too
        bad = np.flatnonzero(~(dev.max(axis=(1, 2)) <= NORM_TOL))
        raise NonUnitaryGateError(f"gate row {bad[0]} is not unitary")
    k = len(rows)
    split = rows.reshape(k, 1 << target, 2, -1).transpose(0, 2, 1, 3)
    out = gates @ split.reshape(k, 2, -1)
    return out.reshape(k, 2, 1 << target, -1).transpose(0, 2, 1, 3).reshape(k, -1)


def project_qubit(rows: np.ndarray, target: int, kets) -> tuple[np.ndarray, np.ndarray]:
    """Project qubit target of every row of a (K, 2^n) stack onto a ket.

    kets is a (1, 2) array, one ket (c0, c1) for all rows, or a (K, 2) array
    of one ket per row; row k applies the bra conj(c0)<0| + conj(c1)<1| of
    its ket. Returns the (K, 2^(n-1)) reduced rows and their (K,)
    probabilities. Each row is divided by the square root of its
    probability; a probability below ZERO_PROB_CUTOFF is floored at the
    cutoff first, so such a row stays finite but is no state, and the
    caller refuses or drops it. IndexClashError for a target outside
    [0, n), ShapeMismatchError for kets of another shape or a ket off unit
    norm (check_ket_rows), InputError for a stack of neither 1 nor K kets.
    """
    _check_target(rows, target)
    kets = np.asarray(kets)
    if kets.ndim != 2 or kets.shape[1] != 2:
        raise ShapeMismatchError(f"kets of shape {kets.shape}: need (1, 2) or (K, 2)")
    _check_row_count(rows, len(kets), "kets")
    check_ket_rows(kets)
    k = len(rows)
    split = rows.reshape(k, 1 << target, 2, -1)
    bra = np.conj(kets)[:, :, None, None]
    red = (bra[:, 0] * split[:, :, 0] + bra[:, 1] * split[:, :, 1]).reshape(k, -1)
    probs = np.vecdot(red, red).real
    return red / np.sqrt(np.maximum(probs, ZERO_PROB_CUTOFF))[:, None], probs


def fidelity_rows(rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """|<s1|s2>| of row k of one (K, 2^n) stack of normalized states with row k
    of another, as a (K,) array.

    np.vecdot sums each row as np.vdot sums one vector, and np.hypot rounds
    each modulus as abs() does a single complex (np.abs of a complex array
    may differ from it in the last bit), so row k is bit for bit the K = 1 call.
    """
    if rows1.shape != rows2.shape:
        raise ShapeMismatchError(f"stacks of shapes {rows1.shape} and {rows2.shape}")
    dots = np.vecdot(rows1, rows2)
    return np.hypot(dots.real, dots.imag)


def fidelity_up_to_global_phase(s1: PureState, s2: PureState) -> float:
    """|<s1|s2>| for normalized states: the K = 1 row of fidelity_rows."""
    if s1.num_qubits != s2.num_qubits:
        raise ShapeMismatchError("qubit counts differ")
    return float(fidelity_rows(s1.amplitudes[None], s2.amplitudes[None])[0])
