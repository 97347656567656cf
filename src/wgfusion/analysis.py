"""Closed-form analysis of two-qubit projections on weighted fusions.

Every closed-form quantity is computed twice: analytic formula and a dense
linear-algebra oracle; disagreement beyond ABORT_TOL raises NumericalAbortError.
Argument comparisons are modulo 2pi with principal value in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSeedError,
    ConvergenceFailureError,
    DegenerateArgumentError,
    DegenerateGramError,
    InputError,
    NumericalAbortError,
)
from .fock import (
    outcome_coeffs,
    pattern_indices,
    relevant_norm_sq,
    same_detector_prob,
)
from .graphstate import _angle_arrays, _finite_angles, _sum_abs_sq, _wrap_rows, eigvalsh_2x2, wrap_angle
from .tolerances import (
    ABORT_TOL,
    CLASS_NORM_FLOOR,
    CLASS_TOL,
    DEGENERATE_ARG_TOL,
    ENTROPY_FLOOR,
    EQUAL_OUTCOMES_TOL,
    GRAM_TOL,
    INVERSION_TOL,
    LIVE_TOL,
    NO_GOOD_PREMISE_TOL,
    PI_SHIFT_TOL,
    PRODUCT_TOL,
    SCAN_SNAP,
    SCAN_TOL,
    STATE_NORM_TOL,
    TEF_TOL,
    TEF_ZERO_PRODUCT,
    UNITARY_TOL,
    VANISHING_NORM_SQ,
    ZERO_WEIGHT,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def inner_z(*chis):
    """Gram overlap z = <f4|f3> = prod_k (1+e^{i chi_k})/2 over b's edge weights;
    a zero weight (no edge), or none at all, is a factor 1. Scalars give a
    complex, (K,) arrays the (K,) z, row k bit for bit the scalar call: the
    (K, d) factors are multiplied along their last axis, where NumPy rounds as
    math.prod does (a product of (K,) columns may fuse a multiply-add).
    InputError for a non-finite weight, naming its first bad row."""
    chis = chis or (0.0,)
    scalar = np.ndim(chis[0]) == 0
    cols = _angle_arrays(*map(np.atleast_1d, chis))
    _finite_angles(*cols)
    z = ((1.0 + np.exp(1j * np.array(cols).T.copy())) / 2.0).prod(axis=1)
    return complex(z[0]) if scalar else z


@dataclass
class EntanglementReport:
    """The link K relevant outcomes leave, one entry per outcome: det rho, the
    larger eigenvalue lam of rho, the z-corrected N^2, the entropy of
    entanglement in bits and det rho of the dense oracle rho = M' M'+."""

    det_rho: np.ndarray
    lam: np.ndarray
    norm_sq: np.ndarray
    entropy_bits: np.ndarray
    det_rho_oracle: np.ndarray


def gram_factor(z) -> np.ndarray:
    """Right factor turning M into M': [[1, 0], [z*, sqrt(1-|z|^2)]].

    A (K,) array of z gives the (K, 2, 2) stack of factors."""
    z = np.asarray(z, dtype=complex)
    g = np.zeros(z.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = 1.0
    g[..., 1, 0] = np.conj(z)
    g[..., 1, 1] = np.sqrt(np.maximum(0.0, 1.0 - np.abs(z) ** 2))
    return g


def entanglement_report(ms: np.ndarray, z) -> EntanglementReport:
    """Entanglement of a (K, 2, 2) stack of relevant-outcome coefficient
    matrices [[a,b],[c,d]].

    z is one gram overlap for the whole stack or a (K,) array, one per matrix.
    det_rho = (1-|z|^2)|ad-bc|^2 / N^4 with the z-corrected normalization
    N^2 = |a|^2+|b|^2+2Re(z a b*)+|c|^2+|d|^2+2Re(z c d*); every entry is
    cross-checked against the eigenvalues of the dense rho = M' M'+, taken
    in closed form (eigvalsh_2x2) on the whole stack at once: their product
    against det_rho and the larger one against lam, within ABORT_TOL, else
    NumericalAbortError (a NaN aborts too). entropy_bits is
    -lam log2 lam - (1-lam) log2(1-lam), a term whose weight is at most
    ENTROPY_FLOOR counted as 0.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1:] != (2, 2):
        raise InputError("m must be 2x2")
    z = np.asarray(z, dtype=complex)
    if z.ndim and z.shape != ms.shape[:1]:
        raise InputError("z must be a scalar or one value per matrix")
    # one z per row, so that a scalar z takes the array path of a (K,) z
    z = np.broadcast_to(z, ms.shape[:1])
    zabs = np.abs(z)
    if not np.all(zabs < 1.0 - GRAM_TOL):  # a NaN fails too
        raise DegenerateGramError(f"|z| = {np.max(zabs)} is NaN or too close to 1")
    a, b, c, d = ms[:, 0, 0], ms[:, 0, 1], ms[:, 1, 0], ms[:, 1, 1]
    nsq = relevant_norm_sq(a, b, c, d, z)
    if not np.all(nsq >= VANISHING_NORM_SQ):  # a NaN fails too
        raise DegenerateArgumentError("vanishing or NaN outcome norm")
    det_rho = (1.0 - zabs**2) * np.abs(a * d - b * c) ** 2 / nsq**2
    lam = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * det_rho))) / 2.0
    # dense oracle: each rho = M' M'+ must have eigenvalues (lam, 1-lam)
    mp = (ms / np.sqrt(nsq)[:, None, None]) @ gram_factor(z)
    ev = eigvalsh_2x2(mp @ mp.conj().transpose(0, 2, 1))  # ascending
    oracle = ev[:, 0] * ev[:, 1]
    # written as not (x <= tol), so that a NaN entry aborts too
    bad = ~((np.abs(oracle - det_rho) <= ABORT_TOL) & (np.abs(ev[:, 1] - lam) <= ABORT_TOL))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalAbortError(
            f"analytic det_rho {det_rho[k]} disagrees with dense oracle {oracle[k]}"
        )
    entropy = np.zeros_like(lam)
    for p in (lam, 1.0 - lam):
        live = p > ENTROPY_FLOOR
        entropy[live] -= p[live] * np.log2(p[live])
    return EntanglementReport(det_rho, lam, nsq, entropy, oracle)


@dataclass
class TwoQubitProjection:
    """Bra coefficients A<00| + B<01| + C<10| + D<11|, stored unnormalized."""

    a: complex
    b: complex
    c: complex
    d: complex
    norm_sq: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.norm_sq = nsq = _sum_abs_sq(self.a, self.b, self.c, self.d)
        if not (math.isfinite(nsq) and nsq >= VANISHING_NORM_SQ):
            raise InputError("projection coefficients are all zero or not finite")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


@dataclass
class OutcomeClass:
    tag: str  # fused_weighted_graph | weighted_graph_new_weight | maximally_entangled | product | other
    evidence: str
    chi: float | None = None


def resulting_weight(p: TwoQubitProjection, chi_bf: float) -> float:
    """New e-f edge weight:
    chi = arg(A+B) + arg(C+De^{-i chi_bf}) - arg(A+Be^{-i chi_bf}) - arg(C+D).
    """
    ph = cmath.exp(-1j * chi_bf)
    terms = (p.a + p.b, p.c + p.d * ph, p.a + p.b * ph, p.c + p.d)
    scale = math.sqrt(p.norm_sq)
    for t in terms:
        if abs(t) < DEGENERATE_ARG_TOL * scale:
            raise DegenerateArgumentError("vanishing argument in the weight formula")
    return wrap_angle(
        cmath.phase(terms[0])
        + cmath.phase(terms[1])
        - cmath.phase(terms[2])
        - cmath.phase(terms[3])
    )


def _tef_magnitudes(p: TwoQubitProjection, chi_bf: float) -> np.ndarray:
    ph = cmath.exp(-1j * chi_bf)
    return np.array(
        [abs(p.a + p.b), abs(p.a + p.b * ph), abs(p.c + p.d), abs(p.c + p.d * ph)]
    )


def _tef_arg_form(p: TwoQubitProjection, chi_bf: float, tol: float) -> bool:
    """Equivalent argument/magnitude formulation of the unitarity conditions.

    arg B - arg A and arg D - arg C must equal chi_bf/2 modulo pi, and the
    magnitude balance |A|^2+|B|^2 +/- 2|A||B|cos(chi_bf/2) must match the
    C,D side (sign + exactly when the argument difference is chi_bf/2).
    """
    scale = p.norm_sq

    def side(x: complex, y: complex) -> tuple[float, float]:
        if abs(x) * abs(y) < TEF_ZERO_PRODUCT * scale:
            return 0.0, abs(x) ** 2 + abs(y) ** 2
        d = wrap_angle(cmath.phase(y) - cmath.phase(x) - chi_bf / 2.0)
        dd = math.remainder(d, math.pi)
        shifted = abs(wrap_angle(d - dd)) > PI_SHIFT_TOL  # a pi shift was removed
        sign = -1.0 if shifted else 1.0
        val = (
            abs(x) ** 2
            + abs(y) ** 2
            + 2.0 * sign * abs(x) * abs(y) * math.cos(chi_bf / 2.0)
        )
        return abs(dd), val

    r1, v1 = side(p.a, p.b)
    r2, v2 = side(p.c, p.d)
    return max(r1, r2, abs(v1 - v2) / scale) < tol


def tef_unitarity(a: complex, b: complex, c: complex, d: complex, chi_bf: float) -> bool:
    """True iff the effective e-f transfer matrix is proportional to a unitary:
    |A+B| = |A+Be^{-i chi_bf}| = |C+D| = |C+De^{-i chi_bf}|.

    Evaluated both directly (tolerance TEF_TOL) and through the argument/magnitude
    formulation (tolerance sqrt(TEF_TOL)). They may split only when the relative
    magnitude spread lies in [TEF_TOL, sqrt(TEF_TOL)], and the direct result
    stands; any other split raises NumericalAbortError.
    """
    if abs(wrap_angle(chi_bf)) < ZERO_WEIGHT:
        raise DegenerateArgumentError("chi_bf must be nonzero")
    p = TwoQubitProjection(a, b, c, d)
    mags = _tef_magnitudes(p, chi_bf)
    scale = math.sqrt(p.norm_sq)
    direct = float(mags.max() - mags.min()) < TEF_TOL * scale
    viaargs = _tef_arg_form(p, chi_bf, math.sqrt(TEF_TOL))
    if direct != viaargs:
        # borderline points may fall between the two formulations' tolerances,
        # TEF_TOL (direct) and its root (argument form); any other split is a fault
        spread = float(mags.max() - mags.min()) / scale
        if not TEF_TOL <= spread <= math.sqrt(TEF_TOL):
            raise NumericalAbortError(
                f"unitarity formulations disagree (magnitude spread {spread})"
            )
    return direct


def classify_projection(
    p: TwoQubitProjection,
    chi_bf: float,
    neighbor_count: int = 1,
    chi_bf2: float = 0.0,
) -> OutcomeClass:
    """Ordered classification of a relevant-outcome projection.

    Precedence: fused > new-weight > maximally-entangled > product > other.
    neighbor_count is the fused qubit's neighbor count on the right chain,
    1 or 2 (else InputError); chi_bf2 is its second edge weight (ignored
    when neighbor_count = 1). A disagreement inside tef_unitarity
    propagates as NumericalAbortError.
    """
    if neighbor_count not in (1, 2):
        raise InputError(f"neighbor_count must be 1 or 2, got {neighbor_count!r}")
    scale = math.sqrt(p.norm_sq)
    if (
        abs(p.b) < CLASS_TOL * scale
        and abs(p.c) < CLASS_TOL * scale
        and abs(abs(p.a) - abs(p.d)) < CLASS_TOL * scale
    ):
        return OutcomeClass("fused_weighted_graph", "B=C=0 and |A|=|D|")
    if neighbor_count == 1 and abs(wrap_angle(chi_bf)) > ZERO_WEIGHT:
        try:
            if tef_unitarity(p.a, p.b, p.c, p.d, chi_bf):
                chi = resulting_weight(p, chi_bf)
                return OutcomeClass(
                    "weighted_graph_new_weight", "T_{e,f} unitarity conditions", chi
                )
        except DegenerateArgumentError:
            pass
    z = inner_z(chi_bf, chi_bf2 if neighbor_count == 2 else 0.0)
    if abs(z) < 1.0 - GRAM_TOL:
        m = p.matrix
        nsq = relevant_norm_sq(p.a, p.b, p.c, p.d, z)
        if nsq > CLASS_NORM_FLOOR * p.norm_sq:
            mp = (m / math.sqrt(nsq)) @ gram_factor(z)
            if np.max(np.abs(mp @ mp.conj().T - 0.5 * np.eye(2))) < CLASS_TOL:
                return OutcomeClass("maximally_entangled", "M' proportional to unitary")
    if abs(p.a * p.d - p.b * p.c) < PRODUCT_TOL * p.norm_sq:
        return OutcomeClass("product", "det = 0")
    return OutcomeClass("other", "no condition set fired")


_ROOT_SHIFTS = np.array([[0.0], [math.pi / 2.0]])
# rank of the roots b = beta, beta + pi/2 by sign of xi: xi < 0 first, then the root
# whose arg(2 + w + 1/w) is chi_target/2 itself (b = beta + pi/2 for xi < 0) before -+ pi
_RANK_NEGATIVE = np.array([[1], [0]])
_RANK_POSITIVE = np.array([[2], [3]])


def solve_xi_for_weight(chi_bf, chi_target):
    """Real xi != 0 with 2 arg(2 + w + 1/w) = chi_target, w = xi e^{i chi_bf/2}.

    2 + w + 1/w = (1 + w)^2 / w, so with theta = chi_bf/2 the condition is
    arg(1 + xi e^{i theta}) = beta (mod pi/2), beta = (chi_target/2 + theta)/2:
    xi = sin b / sin(theta - b) for b = beta, beta + pi/2. The first root, xi < 0
    before xi > 0 and then arg(2 + w + 1/w) = chi_target/2 before
    chi_target/2 -+ pi, whose residual |4 arg(1 + w) - chi_bf - chi_target|
    (mod 2 pi) is below INVERSION_TOL is returned, else ConvergenceFailureError.
    The residual forms 1 + w without cancellation, so near w = -1 (chi_bf ~ 0)
    round-off neither passes a wrong root nor refuses a right one. Scalars give
    a float, (K,) arrays the (K,) roots, row k bit for bit the scalar call on row k.
    """
    scalar = np.ndim(chi_bf) == 0
    cb, ct = _angle_arrays(np.atleast_1d(chi_bf), np.atleast_1d(chi_target))
    theta = cb / 2.0
    half = _wrap_rows(ct) / 2.0  # wrap_angle refuses an infinite angle; a NaN passes
    b = (half + theta) / 2.0 + _ROOT_SHIFTS  # (2, K)
    with np.errstate(divide="ignore", invalid="ignore"):  # xi = inf: a NaN residual
        xi = np.sin(b) / np.sin(theta - b)
        s = np.sin(theta / 2.0)
        # arg(1 + w), Re(1 + w) = (1 + xi) - 2 xi sin^2(theta/2): 1 + xi is exact near xi = -1
        a = np.arctan2(xi * np.sin(theta), 1.0 + xi - 2.0 * xi * s * s)
    res = np.abs(_wrap_rows(4.0 * a - cb - ct))  # 2 arg(w) = chi_bf (mod 2 pi)
    ok = (res < INVERSION_TOL) & (xi != 0.0)  # xi = 0 is the limit w -> 0, no root
    rank = np.where(ok, np.where(xi > 0.0, _RANK_POSITIVE, _RANK_NEGATIVE), 4)
    best = rank.min(axis=0)
    degenerate = ~(np.abs(_wrap_rows(cb)) >= ZERO_WEIGHT)
    if degenerate.any() or best.max() == 4:
        _finite_angles(cb, ct)  # a NaN; wrap_angle has refused an infinite angle
        if degenerate.any():
            raise DegenerateArgumentError("chi_bf must be nonzero")
        k = int(np.argmax(best))
        raise ConvergenceFailureError(
            f"neither closed-form root reaches chi_target {float(ct[k])!r} for chi_bf "
            f"{float(cb[k])!r} (residuals {float(res[0, k])!r}, {float(res[1, k])!r})"
        )
    out = np.where(rank[1] < rank[0], xi[1], xi[0])
    return float(out[0]) if scalar else out


def xi_family_arg(xi, chi_bf) -> np.ndarray:
    """arg(2 + w + 1/w), w = xi e^{i chi_bf/2}, elementwise over arrays: the
    angle whose double solve_xi_for_weight matches to chi_target.

    Evaluated from its defining equation as 2 arg(1 + w) - arg(w) (mod 2pi,
    not reduced), since 2 + w + 1/w = (1 + w)^2 / w: the sum 2 + w + 1/w
    cancels to |1 + w|^2 near w = -1 (chi_bf ~ 0), 1 + w only to |1 + w|.
    """
    w = np.asarray(xi) * np.exp(1j * np.asarray(chi_bf) / 2.0)
    return 2.0 * np.angle(1.0 + w) - np.angle(w)


def hyperbola_projection(chi_bf, xi, mag_a=INV_SQRT2):
    """The xi-family projection: B = xi e^{i chi_bf/2} A, D = e^{i chi_bf/2} C / xi,
    with |C| = |xi||A| so the unitarity balance holds, and A = mag_a.

    Scalars give a TwoQubitProjection, (K,) arrays of one shape the (K, 2, 2)
    [[A, B], [C, D]], row k bit for bit the scalar call. InputError, naming
    the first bad row: before any arithmetic for a non-finite input, then for
    xi = 0; then for a norm^2 that is not finite or is below VANISHING_NORM_SQ,
    as TwoQubitProjection checks one.
    """
    scalar = np.ndim(chi_bf) == 0
    cb, xi, mag_a = _angle_arrays(*map(np.atleast_1d, (chi_bf, xi, mag_a)))
    _finite_angles(cb, xi, mag_a)
    if not xi.all():
        raise InputError(f"xi must be finite and nonzero, got 0.0 in row {np.flatnonzero(xi == 0.0)[0]}")
    phase = np.exp(1j * cb / 2.0)
    m = np.empty(cb.shape + (2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, and fails the norm check
        m[:, 0, 0], m[:, 1, 0] = mag_a, np.abs(xi) * mag_a
        m[:, 0, 1] = xi * phase * m[:, 0, 0]
        num = phase * m[:, 1, 0]
        m.real[:, 1, 1], m.imag[:, 1, 1] = num.real / xi, num.imag / xi  # as Python divides by a float
        if scalar:
            return TwoQubitProjection(*m[0].ravel().tolist())  # which checks its norm
        nsq = (np.abs(m) ** 2).sum(axis=(1, 2))
    bad = np.flatnonzero(~((VANISHING_NORM_SQ <= nsq) & (nsq < math.inf)))
    if bad.size:
        raise InputError(f"projection coefficients are all zero or not finite in row {bad[0]}")
    return m


def max_entangled_family(seed: np.ndarray, z: complex) -> TwoQubitProjection:
    """Maximally entangled projection family from a (1/sqrt2)-unitary seed.

    A = A' - z* B'/sqrt(1-|z|^2), B = B'/sqrt(1-|z|^2), and likewise (C, D).
    """
    seed = np.asarray(seed, dtype=complex)
    if seed.shape != (2, 2) or not np.max(
        np.abs(seed @ seed.conj().T - 0.5 * np.eye(2))
    ) <= UNITARY_TOL:
        raise BadSeedError("seed must be (1/sqrt2)-unitary")
    if not abs(z) < 1.0 - GRAM_TOL:  # a NaN fails too
        raise DegenerateGramError(f"|z| = {abs(z)} is NaN or too close to 1")
    root = math.sqrt(1.0 - abs(z) ** 2)
    ap, bp, cp, dp = seed[0, 0], seed[0, 1], seed[1, 0], seed[1, 1]
    out = TwoQubitProjection(
        ap - np.conj(z) * bp / root,
        bp / root,
        cp - np.conj(z) * dp / root,
        dp / root,
    )
    resid = max_entangled_conditions_residual(out, z)
    if not resid <= ABORT_TOL:
        raise NumericalAbortError(f"family conditions violated, residual {resid}")
    return out


def max_entangled_conditions_residual(p: TwoQubitProjection, z: complex) -> float:
    """Residual of the three closed-form maximal-entanglement conditions:
    |A+z*B| = sqrt(1-|z|^2)|D|, |C+z*D| = sqrt(1-|z|^2)|B|,
    AB* + CD* + z*(|B|^2+|D|^2) = 0.
    """
    root = math.sqrt(max(0.0, 1.0 - abs(z) ** 2))
    zc = np.conj(z)
    r1 = abs(abs(p.a + zc * p.b) - root * abs(p.d))
    r2 = abs(abs(p.c + zc * p.d) - root * abs(p.b))
    r3 = abs(
        p.a * np.conj(p.b)
        + p.c * np.conj(p.d)
        + zc * (abs(p.b) ** 2 + abs(p.d) ** 2)
    )
    return float(max(r1, r2, r3)) / p.norm_sq


def check_no_good_failure_stack(us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-good-failure theorem on every row of a (K, N, N) stack of mode unitaries.

    Premise: all same-detector outcomes with nonzero probability (z = 0
    baseline) share (U_3i, U_4i) up to a global phase. Conclusion: every
    relevant outcome's coefficient matrix has zero determinant. Returns
    (live, premise, max_det): the (K, N) mask of live same-detector
    columns, whether each row's premise holds and each row's max |ad - bc|
    over the relevant patterns (0 for none; a NaN stays NaN).
    """
    n = us.shape[-1]
    live = same_detector_prob(us, np.arange(n), 0.0) > LIVE_TOL
    first = np.argmax(live, axis=1)[:, None]  # column 0 of a row with none live: unread
    u3, u4 = us[:, 2], us[:, 3]
    cross = np.take_along_axis(u3, first, axis=1) * u4 - u3 * np.take_along_axis(u4, first, axis=1)
    premise = ((np.abs(cross) <= NO_GOOD_PREMISE_TOL) | ~live).all(axis=1)
    a, b, c, d = outcome_coeffs(us, *pattern_indices(n, 1))
    max_det = np.max(np.abs(a * d - b * c), axis=1, initial=0.0)
    return live, premise, max_det


# Outlier tuples an appendix scan returns at most, in hit order; its
# "outlier_count" counts every outlier. A loose tol on a large grid makes
# every grid point a hit, up to 3 resolution^3 of them.
SCAN_OUTLIER_CAP = 1000


def _angle_grid(n: int) -> np.ndarray:
    """Uniform grid on (-pi, pi] including pi exactly (n even keeps the
    Case-1/Case-2 manifold points on-grid)."""
    return -math.pi + 2.0 * math.pi * (np.arange(n) + 1) / n


def _check_scan_args(resolution: int, tol: float) -> None:
    is_int = isinstance(resolution, (int, np.integer)) and not isinstance(resolution, bool)
    if not (is_int and resolution > 0):
        raise InputError(f"resolution must be a positive int, got {resolution!r}")
    if not (0.0 < tol < math.inf):  # a NaN fails too
        raise InputError(f"tol must be finite and > 0, got {tol!r}")


def _near_snap(x: np.ndarray) -> np.ndarray:
    """Per entry: does the angle x wrap to within SCAN_SNAP of 0 (wrap_angle bit for bit)?"""
    return np.abs(_wrap_rows(x)) < SCAN_SNAP


# Grid points (chi x (|A|, delta) columns) per block of xlike_uniqueness_scan:
# it bounds the block's temporaries whatever the resolution.
XLIKE_BLOCK = 1 << 13


def _xlike_hits(e1: np.ndarray, r: np.ndarray, b: np.ndarray, tol: float):
    """The X-like scan's hits on a block of (|A|, delta) columns, A = r and B = b
    per column, e1 = e^{-i chi} over the grid: yields (i1, i2, col) index
    arrays, chi1 = chi2 first, then one batch per window width."""
    m11 = r + b  # A + B
    abs_m11 = np.abs(m11)
    m21 = r + b * e1[:, None]  # A + B e^{-i chi}, (chi, column): m12 at chi1, m21 at chi2
    # chi1 = chi2, where c2 = 0: c1 and c3 on the whole block
    m22 = r + b * (e1 * e1)[:, None]  # A + B e^{-i(chi1+chi2)}
    c1 = np.abs(abs_m11 - np.abs(m22))
    c3 = np.abs(m11 * np.conj(m21) + m21 * np.conj(m22))
    i1, col = np.nonzero((c1 < tol) & (c3 < tol))
    yield i1, i1, col
    # chi1 != chi2: c2 = |v(chi1) - v(chi2)| < tol on the pairs w apart in sorted v
    v = np.abs(m21)
    order = np.argsort(v, axis=0)
    s = np.take_along_axis(v, order, axis=0)
    for w in range(1, len(e1)):
        k, col = np.nonzero(s[w:] - s[:-w] < tol)
        if not k.size:
            return
        ia, ib = order[k, col], order[k + w, col]
        i1, i2, col = np.concatenate([ia, ib]), np.concatenate([ib, ia]), np.concatenate([col, col])
        m22 = r[col] + b[col] * (e1[i1] * e1[i2])
        c1 = np.abs(abs_m11[col] - np.abs(m22))
        c3 = np.abs(m11[col] * np.conj(m21[i2, col]) + m21[i1, col] * np.conj(m22))
        keep = (c1 < tol) & (c3 < tol)
        yield i1[keep], i2[keep], col[keep]


def xlike_uniqueness_scan(resolution: int = 200, tol: float = SCAN_TOL) -> dict:
    """Grid scan of the 3-qubit unitarity conditions for an X-like projection.

    The post-projection coefficient matrix
        M = [[A+B, A+Be^{-i chi1}], [A+Be^{-i chi2}, A+Be^{-i(chi1+chi2)}]]
    must be proportional to a unitary. Scans (chi1, chi2, arg B - arg A)
    at the given resolution with |A| in {0.3, 1/sqrt2, 0.9}; every solution
    must lie on Case 1 (chi1 = chi2, B = -A e^{i chi}), Case 2
    (chi1 + chi2 = 2pi, B = -A) or the degenerate chi1 = chi2 = pi manifold.

    A grid point solves the conditions when, for the entries m_jk of M,
    c1 = ||m11| - |m22||, c2 = ||m12| - |m21|| and
    c3 = |m11 m21* + m12 m22*| are all below tol, which is the same test as
    max(c1, c2, c3) < tol (a NaN fails both). With v(chi) = |A + B e^{-i chi}|
    on an (|A|, delta) column, c2 = |v(chi1) - v(chi2)|. The scan takes
    XLIKE_BLOCK grid points of columns at a time (_xlike_hits):

    - chi1 = chi2, where c2 = 0: c1 and c3 on the whole block at once;
    - chi1 != chi2: it sorts each column's v, and the pairs with c2 < tol
      are the pairs w apart in sorted order whose difference s[k + w] - s[k]
      is below tol, for w = 1, 2, ... until no pair of some width is left.
      Float subtraction is monotone, so no wider pair can pass after that,
      and the window is exact for any tol. c1 and c3 are evaluated on those
      candidates only.

    Each batch of hits is classified as arrays as it comes; the counts do
    not depend on order, and the outliers keep the full grid's
    (chi1, chi2, delta, |A|) order. At resolution 200 this takes
    0.011-0.017 s in process, a tracemalloc peak of 1.4 MiB (a shared 2-core
    Xeon, Python 3.11, NumPy 2.4). "outliers" holds the first
    SCAN_OUTLIER_CAP outliers and "outlier_count" counts them all. Raises
    InputError unless resolution is a positive int and tol is finite and > 0.
    """
    _check_scan_args(resolution, tol)
    n = resolution
    chis = _angle_grid(n)
    deltas = _angle_grid(n)
    mag_as = np.array([0.3, INV_SQRT2, 0.9])
    e1 = np.exp(-1j * chis)  # e^{-i chi}
    # one entry per (|A|, delta) column, |A| major
    r = np.repeat(mag_as, n)
    b = (np.sqrt(1.0 - mag_as**2)[:, None] * np.exp(1j * deltas)[None, :]).ravel()
    near_half = np.abs(mag_as - INV_SQRT2) < SCAN_SNAP
    tally = np.zeros(4, dtype=np.int64)  # case1, case2, pi_degenerate, outliers
    first = np.empty(0, dtype=np.int64)  # hit-order keys of the first outliers
    width = max(1, XLIKE_BLOCK // n)
    for c0 in range(0, 3 * n, width):
        for i1, i2, col in _xlike_hits(e1, r[c0 : c0 + width], b[c0 : c0 + width], tol):
            ir, idd = np.divmod(col + c0, n)
            chi1, chi2, delta, half = chis[i1], chis[i2], deltas[idd], near_half[ir]
            case1 = half & _near_snap(chi1 - chi2) & _near_snap(delta - chi1 - math.pi)
            case2 = half & ~case1 & _near_snap(chi1 + chi2) & _near_snap(delta - math.pi)
            at_pi = ~case1 & ~case2 & _near_snap(chi1 - math.pi) & _near_snap(chi2 - math.pi)
            out = ~(case1 | case2 | at_pi)
            tally += [case1.sum(), case2.sum(), at_pi.sum(), out.sum()]
            keys = ((i1[out] * n + i2[out]) * n + idd[out]) * 3 + ir[out]
            first = np.sort(np.concatenate([first, keys]))[:SCAN_OUTLIER_CAP]
    rest, ir = np.divmod(first, 3)
    rest, idd = np.divmod(rest, n)
    i1, i2 = np.divmod(rest, n)
    case1, case2, at_pi, n_outliers = tally.tolist()
    return {
        "resolution": resolution,
        "tolerance": tol,
        "solutions": case1 + case2 + at_pi + n_outliers,
        "counts": {"case1": case1, "case2": case2, "pi_degenerate": at_pi},
        "outliers": list(zip(chis[i1].tolist(), chis[i2].tolist(), deltas[idd].tolist(), mag_as[ir].tolist())),
        "outlier_count": n_outliers,
    }


def ylike_impossibility_scan(resolution: int = 200, tol: float = SCAN_TOL) -> dict:
    """Grid scan of the Y-like four-magnitude condition
    |A+B| = |A+Be^{-i chi1}| = |A+Be^{-i chi2}| = |A+Be^{-i(chi1+chi2)}|.

    For A, B != 0 the condition is magnitude-independent and reduces to
    cos(delta) = cos(delta - chi1) = cos(delta - chi2) = cos(delta-chi1-chi2)
    with delta = arg B - arg A. Nonzero weights admit solutions only at
    chi1 = chi2 = pi.

    The chi1 term |cos(delta) - cos(delta - chi1)| depends on delta alone
    within a row, so each row keeps only the delta columns where it is
    below tol and evaluates the (chi2, delta) terms, np.cos included, on
    those columns; a point failing the chi1 term fails the maximum of all
    three, so the hit set and its order are those of the full grid. At
    resolution 200 this takes 0.006-0.009 s, down from 0.14-0.19 s (same
    machine as xlike_uniqueness_scan). Each row's hits are classified as
    they are found; "outliers" holds the first SCAN_OUTLIER_CAP outliers and
    "outlier_count" counts them all. Raises InputError unless resolution is
    a positive int and tol is finite and > 0.
    """
    _check_scan_args(resolution, tol)
    chis = _angle_grid(resolution)
    deltas = _angle_grid(resolution)
    nz = np.abs(chis) > ZERO_WEIGHT  # zero weight means "no edge": excluded
    base = np.cos(deltas)
    r2 = np.abs(base - np.cos(deltas[None, :] - chis[:, None]))  # (chi2, delta)
    outliers = []
    n_hits = n_outliers = at_pi = 0
    for i1 in np.flatnonzero(nz):
        d1 = deltas - chis[i1]
        r1 = np.abs(base - np.cos(d1))
        cols = np.flatnonzero(r1 < tol)
        res = np.maximum(r1[cols], r2[:, cols])
        res = np.maximum(res, np.abs(base[cols] - np.cos(d1[cols][None, :] - chis[:, None])))
        res[~nz] = np.inf
        for i2, j in np.argwhere(res < tol):
            n_hits += 1
            if (
                abs(wrap_angle(chis[i1] - math.pi)) < SCAN_SNAP
                and abs(wrap_angle(chis[i2] - math.pi)) < SCAN_SNAP
            ):
                at_pi += 1
            else:
                n_outliers += 1
                if len(outliers) < SCAN_OUTLIER_CAP:
                    outliers.append((float(chis[i1]), float(chis[i2]), float(deltas[cols[j]])))
    return {
        "resolution": resolution,
        "tolerance": tol,
        "solutions": n_hits,
        "at_pi": at_pi,
        "outliers": outliers,
        "outlier_count": n_outliers,
    }


def pair_weight_from_projection(a, b, chi1, chi2):
    """Pair weight phi produced by projecting the middle of a (chi1, chi2)
    chain with the bra A<0| + B<1|, and both_outcomes_equal.

    |det M1| = |A||B||1-e^{-i chi1}||1-e^{-i chi2}| / N^2 with
    N^2 = 4(1 + Re(AB*(1+e^{i chi1})(1+e^{i chi2}))/2); phi solves
    |det M2| = |1-e^{-i phi}|/4 = |det M1|. both_outcomes_equal iff
    Re(AB*(1+e^{i chi1})(1+e^{i chi2})) = 0. Scalars give (float, bool),
    (K,) arrays (K,) phi and flag arrays, row k bit for bit the scalar call.
    Before any arithmetic: InputError for a non-finite chi, then for an
    (A, B) off the unit sphere, each naming its first bad row.
    """
    scalar = np.ndim(a) == 0
    a, b, chi1, chi2 = _angle_arrays(*map(np.atleast_1d, (a, b, chi1, chi2)))
    _finite_angles(chi1, chi2)
    with np.errstate(over="ignore"):  # a modulus or square that overflows is inf, and fails
        mag_a, mag_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)  # as abs() rounds one
        off = np.flatnonzero(~(np.abs(mag_a * mag_a + mag_b * mag_b - 1.0) <= STATE_NORM_TOL))
    if off.size:
        raise InputError(f"|A|^2 + |B|^2 must be 1 in row {off[0]}")
    cross = (a * np.conj(b) * (1.0 + np.exp(1j * chi1)) * (1.0 + np.exp(1j * chi2))).real
    nsq = 4.0 * (1.0 + 0.5 * cross)
    g1, g2 = 1.0 - np.exp(-1j * chi1), 1.0 - np.exp(-1j * chi2)
    det1 = mag_a * mag_b * np.hypot(g1.real, g1.imag) * np.hypot(g2.real, g2.imag) / nsq
    phi = np.arccos(np.clip(1.0 - 8.0 * det1 * det1, -1.0, 1.0))
    equal = np.abs(cross) < EQUAL_OUTCOMES_TOL
    return (float(phi[0]), bool(equal[0])) if scalar else (phi, equal)
