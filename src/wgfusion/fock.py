"""Dual-rail photonic layer for two-photon fusion networks.

Two photons enter modes (a_H, a_V, b_H, b_V) carrying register branch states
f1..f4: the input is (f1 a_H+ + f2 a_V+)(f3 b_H+ + f4 b_V+)|vac>/2 with
z = <f4|f3> free; a FusionContext holds K such fusions. An N x N mode
unitary maps the four input modes (plus vacuum ancillas on rows 5..N) to
detector modes,
    a_H+ = sum_k U[0,k] c_k+,   etc.
and ideal number-resolving detectors read out all N modes.

Closed-form path (enumerate_table) vs. brute-force amplitude path
(oracle_table): the two must agree within ABORT_TOL on every pattern.
Only the closed form needs <f1|f2> = 0, and checks it.

Both paths are batched over the N(N+1)/2 patterns (i <= j, pattern_indices
order) and over the K fusions of a context, which share N: one call is a
fixed set of array operations on (K, P, ...) arrays, never a loop of small
per-pattern or per-fusion NumPy calls. A table takes one unitary per
fusion: a (K, N, N) stack against a K-row context. Each table returns
what its stacked reader (verify) compares: enumerate_table the
probabilities and amplitude coefficients, oracle_table the probabilities
and register rows. enumerate_outcomes and oracle_enumerate are their K = 1
wrappers and build the rest of an outcome themselves: the closed-form
register rows and the oracle's coefficients. Each live outcome's
register_state is a PureState over its normalized row of the call's shared
(P, 2^nq) array.
reduced_det_rho is the dense det-rho oracle over a (K, 2^L, 2^R) stack of
such rows; a cut with a two-dimensional side is solved in closed form.

Random mode unitaries are drawn, then stacked: a caller draws each
unitary's random numbers one draw at a time, in the seeded rng order
(ginibre: the raw normals, one rng call and no arithmetic), stacks the
draws of one size, and haar_stack turns the stack into Haar unitaries with
one QR; check_unitary_rows then checks U U+ = I on every row at once.
ModeUnitary's own check is its K = 1 row.

Oracle independence: oracle_table and _oracle_coef derive probabilities,
states and coefficient tables from their own mode substitution (a
symmetrised einsum over the per-mode branch vectors). Neither it, oracle_enumerate nor
reduced_det_rho reaches enumerate_table, outcome_coeffs,
relevant_norm_sq or same_detector_prob (tests/test_imports.py checks this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, InvalidContextError, InvalidUnitaryError
from .graphstate import PureState, check_unit_rows, eigvalsh_2x2, kron_rows
from .tolerances import ORTHOGONAL_TOL, UNITARY_TOL, ZERO_PROB_CUTOFF


def ginibre(n: int, rng: np.random.Generator, k: int = 1) -> np.ndarray:
    """k successive n x n complex Ginibre draws from rng, as a (k, 2, n, n)
    stack of their real and imaginary standard normals, real part drawn
    first: one rng call, the stream of k pairs of (n, n) normal draws.
    haar_stack makes the complex matrices."""
    return rng.normal(size=(k, 2, n, n))


def haar_stack(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a (K, 2, n, n) stack of ginibre draws.

    Each draw's complex Ginibre matrix (real + i imag)/sqrt2, one stacked
    QR, then each column of every Q multiplied by the phase of R's diagonal
    entry so the law is exactly Haar. This is
    scipy.stats.unitary_group.rvs's algorithm; row k is bit for bit the QR
    of draw k alone.
    """
    z = 1.0 / math.sqrt(2.0) * (g[:, 0] + 1j * g[:, 1])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def check_unitary_rows(us: np.ndarray) -> None:
    """ModeUnitary's U U+ = I invariant on every row of a (K, N, N) stack.

    Raises InvalidUnitaryError naming the first row with an entry of
    |U U+ - I| above UNITARY_TOL (a NaN fails too).
    """
    dev = np.abs(us @ us.conj().swapaxes(-1, -2) - np.eye(us.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(dev <= UNITARY_TOL))
    if bad.size:
        raise InvalidUnitaryError(f"row {bad[0]} fails U U+ = I: max |U U+ - I| = {dev[bad[0]]}")


@lru_cache(maxsize=None)
def pattern_indices(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Read-only np.triu_indices(n, k): the detection patterns (i, j), i <= j - k.

    k = 0 gives every pattern of an N-mode network, k = 1 the i < j ones."""
    iu, ju = np.triu_indices(n, k)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


@dataclass(frozen=True)
class ModeUnitary:
    """N x N mode unitary; rows 0-3 are a_H, a_V, b_H, b_V, rows 4.. vacuum."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 4:
            raise InvalidUnitaryError("ModeUnitary must be square with N >= 4")
        try:
            check_unitary_rows(m[None])
        except InvalidUnitaryError:
            raise InvalidUnitaryError("ModeUnitary fails U U+ = I") from None
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def as_dict(self) -> dict:
        """The unitary-JSON document {"n": N, "re": [[...]], "im": [[...]]}."""
        return {"n": self.n, "re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "ModeUnitary":
        """Inverse of as_dict."""
        try:
            n = int(doc["n"])
            m = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(
                doc["im"], dtype=float
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidUnitaryError(f"malformed unitary JSON: {exc}") from exc
        if m.shape != (n, n):
            raise InvalidUnitaryError("matrix shape does not match n")
        return cls(m)


@dataclass(frozen=True, eq=False)
class FusionContext:
    """The register branch states riding on the two photons of K fusions.

    f1, f2 are (K, D_L) rows on the left residual register, f3, f4 (K, D_R)
    rows on the right one. Invariants, checked on construction in this
    order: those shapes, D_L and D_R powers of two (InvalidContextError);
    every row a unit vector (ShapeMismatchError, as PureState's). z, the
    (K,) overlaps <f4|f3>, is unconstrained.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f1, f3 = self.f1, self.f3
        if (
            f1.ndim != 2
            or f1.shape != self.f2.shape
            or f3.shape != self.f4.shape
            or f3.shape[:-1] != f1.shape[:-1]
            or any(d & (d - 1) for d in (f1.shape[1], f3.shape[1]))
        ):
            raise InvalidContextError("branch-state register sizes or row counts mismatch")
        for f in (f1, self.f2, f3, self.f4):
            check_unit_rows(f)
        object.__setattr__(self, "z", np.vecdot(self.f4, f3))

    @property
    def left_qubits(self) -> int:
        return self.f1.shape[1].bit_length() - 1

    @property
    def right_qubits(self) -> int:
        return self.f3.shape[1].bit_length() - 1

    def take(self, idx) -> FusionContext:
        """The context of rows idx, in that order."""
        return FusionContext(self.f1[idx], self.f2[idx], self.f3[idx], self.f4[idx])


@dataclass(frozen=True)
class FusionOutcome:
    """One detection pattern (i, j), i <= j, 0-based detector indices.

    register_state is the normalized register state, or None for
    (numerically) zero outcomes. m_matrix is the normalized [[a,b],[c,d]]/N
    of a live relevant outcome.
    """

    pattern: tuple[int, int]
    probability: float
    register_state: PureState | None = field(repr=False)
    kind: str  # "relevant" | "non-relevant"
    m_matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        """The pattern as text, e.g. "(0, 2)": the name sample_outcomes draws."""
        return str(self.pattern)

    def as_dict(self) -> dict:
        return {"pattern": list(self.pattern), "probability": self.probability, "kind": self.kind}


def outcome_coeffs(u: np.ndarray, i, j):
    """(a,b,c,d) coefficients of pattern (i,j), i != j: a = U_1i U_3j + U_1j U_3i etc.

    i, j may be index arrays and u a (..., N, N) stack of unitaries; the
    coefficients then have shape (..., len(i))."""
    a = u[..., 0, i] * u[..., 2, j] + u[..., 0, j] * u[..., 2, i]
    b = u[..., 0, i] * u[..., 3, j] + u[..., 0, j] * u[..., 3, i]
    c = u[..., 1, i] * u[..., 2, j] + u[..., 1, j] * u[..., 2, i]
    d = u[..., 1, i] * u[..., 3, j] + u[..., 1, j] * u[..., 3, i]
    return a, b, c, d


def relevant_norm_sq(a, b, c, d, z: complex):
    """N_ij^2 with the gram correction: |a|^2+|b|^2+2Re(z a b*) + |c|^2+|d|^2+2Re(z c d*).

    Elementwise over coefficient arrays, z broadcasting against them; a float
    for scalar coefficients."""
    return (
        np.abs(a) ** 2
        + np.abs(b) ** 2
        + 2.0 * (z * a * np.conj(b)).real
        + np.abs(c) ** 2
        + np.abs(d) ** 2
        + 2.0 * (z * c * np.conj(d)).real
    )


def same_detector_prob(u: np.ndarray, i, z: complex):
    """p_ii = (1/2)(|U_1i|^2+|U_2i|^2)(|U_3i|^2+|U_4i|^2+2Re(z U_3i U_4i*)).

    The 1/2 is the bosonic normalization of the doubly occupied mode; with it
    the full distribution is complete (sums to 1). i may be an index array and
    u a (..., N, N) stack, as in outcome_coeffs."""
    alpha = np.abs(u[..., 0, i]) ** 2 + np.abs(u[..., 1, i]) ** 2
    beta = (
        np.abs(u[..., 2, i]) ** 2
        + np.abs(u[..., 3, i]) ** 2
        + 2.0 * (z * u[..., 2, i] * np.conj(u[..., 3, i])).real
    )
    return 0.5 * alpha * beta


def _normalize_live(probs: np.ndarray, rows: np.ndarray) -> None:
    """Normalize, in place, the (..., D) rows of the patterns with p > ZERO_PROB_CUTOFF."""
    live = probs > ZERO_PROB_CUTOFF
    rows[live] /= np.linalg.norm(rows[live], axis=-1)[:, None]


def _paired(us: np.ndarray, ctx: FusionContext) -> None:
    """Refuse, with InputError, a unitary stack whose row count is not the context's."""
    if len(us) != len(ctx.f1):
        raise InputError(f"a stack of {len(us)} unitaries against a context of {len(ctx.f1)} rows")


def _closed_form(us: np.ndarray, ctx: FusionContext):
    """enumerate_table's probabilities and amplitude coefficients before the
    bosonic 1/sqrt2 of the doubly occupied mode: (probs, coef, diag)."""
    _paired(us, ctx)
    if not (np.abs(np.vecdot(ctx.f1, ctx.f2)) <= ORTHOGONAL_TOL).all():
        raise InvalidContextError("<f1|f2> != 0: the closed form needs orthogonal left branches")
    iu, ju = pattern_indices(us.shape[-1])
    diag = iu == ju
    coef = 0.5 * np.stack(outcome_coeffs(us, iu, ju), axis=-1)
    zc = ctx.z[:, None]
    probs = relevant_norm_sq(*np.moveaxis(coef, -1, 0), zc)
    probs[:, diag] = same_detector_prob(us, iu[diag], zc)
    return probs, coef, diag


def enumerate_table(us: np.ndarray, ctx: FusionContext) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form table of every detection pattern of K fusions at once.

    us is a (K, N, N) stack of mode unitaries and ctx their K-row context
    (else InputError), of which only z is read. The closed form's premise
    <f1|f2> = 0 must hold within ORTHOGONAL_TOL on every row
    (relevant_norm_sq has no left-overlap term), else InvalidContextError;
    a NaN fails too. Returns, over the
    P = N(N+1)/2 patterns in pattern_indices order:

    - probs (K, P): relevant_norm_sq for i != j, same_detector_prob for i = j;
    - coef (K, P, 4): the pattern's two-photon amplitude on (f1 f3, f1 f4,
      f2 f3, f2 f4), so that coef @ basis is the unnormalized register row
      and its squared norm is p. Off the diagonal that is (a, b, c, d)/2; on
      it the doubly occupied mode adds a bosonic 1/sqrt2.

    The register rows themselves are built by enumerate_outcomes, their one
    reader.
    """
    probs, coef, diag = _closed_form(us, ctx)
    coef[:, diag] /= math.sqrt(2.0)
    return probs, coef


def _symmetrised_pairs(x: np.ndarray, y: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """(K, P, dx, dy) two-photon amplitudes of the patterns (iu, ju) = pattern_indices(N).

    Row k, i of x (y) is what a photon from channel a (b) of fusion k leaving
    in mode i carries. Distinct modes get (x_i y_j + x_j y_i)/2; a doubly
    occupied mode gets x_i y_i / sqrt2, from c_i+ c_i+ |vac> = sqrt(2) |2_i>.
    Only the P patterns are formed, never the N x N square of mode pairs;
    einsum forms each product as the square's einsum did (a ufunc multiply
    may round a complex product differently in the last bit).
    """
    amp = np.einsum("kpx,kpy->kpxy", x[:, iu], y[:, ju])
    amp += np.einsum("kpx,kpy->kpxy", x[:, ju], y[:, iu])
    amp *= 0.5
    amp[:, iu == ju] /= math.sqrt(2.0)
    return amp


def oracle_table(us: np.ndarray, ctx: FusionContext) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force path: expand the two-photon amplitude of every pattern of K fusions.

    Same arguments as enumerate_table, from mode-operator substitution and
    dense vectors alone, for any unit f1..f4: the photons enter in orthogonal
    modes, so the input is normalized. Returns probs (K, P), p = |amplitude|^2 of each
    pattern's register vector, and rows (K, P, D_L D_R), those vectors,
    normalized where p > ZERO_PROB_CUTOFF (the other rows are unnormalized
    and unread). The amplitude coefficients are built by oracle_enumerate,
    their one reader (_oracle_coef).
    """
    _paired(us, ctx)
    # photon from channel a in mode i carries register branch f_a[k, i], etc.
    f_a = us[:, 0, :, None] * ctx.f1[:, None, :] + us[:, 1, :, None] * ctx.f2[:, None, :]
    f_b = us[:, 2, :, None] * ctx.f3[:, None, :] + us[:, 3, :, None] * ctx.f4[:, None, :]
    iu, ju = pattern_indices(us.shape[-1])
    amps = _symmetrised_pairs(f_a, f_b, iu, ju)
    rows = amps.reshape(amps.shape[0], amps.shape[1], -1)
    probs = np.einsum("kpd,kpd->kp", rows.conj(), rows).real
    _normalize_live(probs, rows)
    return probs, rows


def _oracle_coef(us: np.ndarray) -> np.ndarray:
    """oracle_table's substitution applied to the (H, V) mode coefficients of
    each channel: the (K, P, 4) amplitude coefficients in enumerate_table's
    coef layout."""
    modes = us.transpose(0, 2, 1)
    coef = _symmetrised_pairs(modes[:, :, :2], modes[:, :, 2:4], *pattern_indices(us.shape[-1]))
    return coef.reshape(coef.shape[0], coef.shape[1], 4)


def _one_fusion(ctx: FusionContext) -> None:
    """Refuse, with InputError, a context of more than one fusion."""
    if len(ctx.f1) != 1:
        raise InputError(f"need one fusion, got a context of {len(ctx.f1)} rows")


def _outcome_list(n: int, probs: np.ndarray, rows: np.ndarray, coef: np.ndarray) -> list[FusionOutcome]:
    """Wrap one fusion's (P,) probabilities, (P, D) register rows and (P, 4)
    amplitude coefficients, as a table returns them, as outcomes.

    The coefficients of live patterns are normalized in place into m_matrix."""
    live = probs > ZERO_PROB_CUTOFF
    mms = coef.reshape(-1, 2, 2)
    mms[live] /= np.sqrt(probs[live])[:, None, None]
    iu, ju = pattern_indices(n)
    out: list[FusionOutcome] = []
    nq = rows.shape[-1].bit_length() - 1
    for k, (i, j, p, ok) in enumerate(zip(iu.tolist(), ju.tolist(), probs.tolist(), live.tolist())):
        kind = "non-relevant" if i == j else "relevant"
        if not ok:
            out.append(FusionOutcome((i, j), p, None, kind))
        else:
            mm = None if i == j else mms[k]
            out.append(FusionOutcome((i, j), p, PureState(nq, rows[k]), kind, mm))
    return out


def enumerate_outcomes(ctx: FusionContext, u: ModeUnitary) -> list[FusionOutcome]:
    """All N(N+1)/2 detection patterns with closed-form probabilities:
    enumerate_table's closed form on a one-row context (else InputError),
    with each pattern's register row built from its coefficients."""
    _one_fusion(ctx)
    probs, coef, diag = _closed_form(u.matrix[None], ctx)
    basis = np.stack([kron_rows(fl, fr) for fl in (ctx.f1, ctx.f2) for fr in (ctx.f3, ctx.f4)], axis=1)
    rows = coef @ basis  # diagonal rows sqrt2 too long until normalized
    _normalize_live(probs, rows)
    coef[:, diag] /= math.sqrt(2.0)
    return _outcome_list(u.n, probs[0], rows[0], coef[0])


def oracle_enumerate(ctx: FusionContext, u: ModeUnitary) -> list[FusionOutcome]:
    """All N(N+1)/2 detection patterns from the brute-force amplitudes:
    oracle_table on a one-row context (else InputError), with its amplitude
    coefficients."""
    _one_fusion(ctx)
    probs, rows = oracle_table(u.matrix[None], ctx)
    return _outcome_list(u.n, probs[0], rows[0], _oracle_coef(u.matrix[None])[0])


def reduced_det_rho(mats: np.ndarray) -> np.ndarray:
    """Dense oracle for det of the effective 2x2 reduced density matrices.

    mats is a (K, 2^L, 2^R) stack of normalized register states reshaped
    across the left/right cut. Builds each reduced state by matrix product
    and returns the product of its two leading eigenvalues (the states have
    Schmidt rank <= 2 by construction). A cut with a side of dimension 2
    takes the Gram matrix on that side, M M+ for 2^L = 2 and M+ M for
    2^R = 2, which has the nonzero spectrum of rho = M M+, and solves it in
    closed form (eigvalsh_2x2); wider cuts take np.linalg.eigvalsh of rho.
    """
    mh = mats.conj().transpose(0, 2, 1)
    if 2 in mats.shape[1:]:
        ev = eigvalsh_2x2(mats @ mh if mats.shape[1] == 2 else mh @ mats)
        return ev[:, 0] * ev[:, 1]
    evals = np.linalg.eigvalsh(mats @ mh)  # ascending
    return evals[:, -1] * evals[:, -2]


def type_i_matrix() -> ModeUnitary:
    """Endpoint-merging fusion network.

    Channel a passes a polarizing beam splitter whose H output becomes c_H;
    channel b's V output becomes c_V; the a_V/b_H pair interferes on a 50:50
    splitter into d_H, d_V. Only the d modes are detected; the undetected c
    modes form the new dual-rail qubit. Columns: (c_H, c_V, d_H, d_V).
    """
    s = 1.0 / math.sqrt(2.0)
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, s, -s],
            [0, 0, s, s],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    return ModeUnitary(m)


def type_ii_matrix() -> ModeUnitary:
    """Bell-projecting fusion network.

    Both channels pass a diagonal polarizing beam splitter and both outputs
    are detected in the rotated (H/V) basis. Columns: (c_H, c_V, d_H, d_V).
    Cross-channel outcomes are maximally entangled Bell projections totaling
    probability 1/2; same-detector outcomes realize the X-type failure
    operators with the (1 -/+ Re z)/4 split.
    """
    m = 0.5 * np.array(
        [
            [1, 1, 1, -1],
            [1, 1, -1, 1],
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
        ],
        dtype=complex,
    )
    return ModeUnitary(m)


def type_i_marginal(outcomes: list[FusionOutcome], ctx: FusionContext) -> dict:
    """Marginalize a type_i_matrix outcome list over the undetected c modes.

    Returns the four physical outcomes keyed by label:
    one photon in d_H / d_V (success branches, the c modes carry the new
    qubit coherently), both photons in c (zero photons detected), both in d.
    The success register gains the new qubit c as its FIRST (most
    significant) qubit: |0>_c from c_H, |1>_c from c_V.
    """
    by_pattern = {o.pattern: o for o in outcomes}
    nq = ctx.left_qubits + ctx.right_qubits

    def success(d_mode: int) -> tuple[float, PureState | None]:
        # coherent sum over c in {0,1}: amplitude of (c_mode, d_mode)
        amps = []
        total = 0.0
        for c_mode in (0, 1):
            o = by_pattern[(min(c_mode, d_mode), max(c_mode, d_mode))]
            total += o.probability
            if o.register_state is None:
                amps.append(np.zeros(1 << nq, dtype=complex))
            else:
                amps.append(math.sqrt(o.probability) * o.register_state.amplitudes)
        vec = np.concatenate(amps)  # new qubit = most significant bit
        state = None
        if total > ZERO_PROB_CUTOFF:
            state = PureState(nq + 1, vec / math.sqrt(total))
        return total, state

    p_dh, s_dh = success(2)
    p_dv, s_dv = success(3)
    p_c = by_pattern[(0, 1)].probability + by_pattern[(0, 0)].probability + by_pattern[(1, 1)].probability
    reg_c = by_pattern[(0, 1)].register_state
    p_d = sum(by_pattern[(i, j)].probability for i in (2, 3) for j in (2, 3) if i <= j)
    # both-in-d register: incoherent over patterns, but for this network only
    # the (2,2) and (3,3) patterns contribute and share one register state.
    reg_d = by_pattern[(2, 2)].register_state
    return {
        "one_photon_d_H": (p_dh, s_dh),
        "one_photon_d_V": (p_dv, s_dv),
        "both_in_c": (p_c, reg_c),
        "both_in_d": (p_d, reg_d),
    }
