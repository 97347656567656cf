"""Verification suite: every closed-form claim against an independent oracle.

Each check returns a CheckResult; the CLI `verify` command and the acceptance
tests share these functions. Quick mode shrinks ensemble sizes, never
tolerances. Every check is written as a body under _check, which names the
check and its tolerances from the package's table once and builds the result.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    INV_SQRT2,
    check_no_good_failure_stack,
    entanglement_report,
    hyperbola_projection,
    solve_xi_for_weight,
    xi_family_arg,
    xlike_uniqueness_scan,
    ylike_impossibility_scan,
)
from .errors import NotAchievableError, ZeroOutcomeError
from .fock import (
    FusionContext,
    check_unitary_rows,
    enumerate_table,
    ginibre,
    haar_stack,
    oracle_table,
    outcome_coeffs,
    pattern_indices,
    reduced_det_rho,
    relevant_norm_sq,
)
from .graphstate import (
    _wrap_rows,
    apply_local,
    build_state,
    chain_graph,
    check_unit_rows,
    fidelity_rows,
    normalized_rows,
    project_qubit,
    wrap_angle,
)
from .protocols import (
    _near,
    create_logical_qubit,
    fuse_type_i,
    fuse_type_ii,
    fusion_context_rows,
    ghz_pair_for_target_stack,
    local_equivalent_rows,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    rez_formula,
    weighted_pair_rows,
)
from .tolerances import (
    ABORT_TOL,
    BOUND_SLACK,
    DET_LIVE_PROB,
    HYPERBOLA_FIDELITY_TOL,
    INVERSION_TOL,
    LIVE_TOL,
    NO_GOOD_DET_TOL,
    RETENTION_TOL,
    ZERO_PROB_CUTOFF,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    detail: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _worst(*residuals) -> float:
    """Largest entry over arrays of residuals, NaN if any entry is NaN, so that
    a NaN fails the check (a plain max() keeps the first of two when one is NaN)."""
    return float(np.max([np.max(r, initial=0.0) for r in residuals]))


class _Refuted(Exception):
    """A check body found a law or a premise false outright; the message is the detail."""


def _check(name: str, *tolerances: float):
    """Decorator making a check body into a verify check named name.

    The body returns (detail, *groups): one group of residual arrays (or
    floats) per tolerance, in order. The check times the body, folds each
    group with _worst and passes when every group's worst residual is below
    its tolerance; its residual is the worst over all groups. A body that
    raises _Refuted fails with residual 1.0 and the refutation as detail.
    """

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            try:
                detail, *groups = body(*args, **kwargs)
            except _Refuted as exc:
                passed, residual, detail = False, 1.0, str(exc)
            else:
                worst = [_worst(*group) for group in groups]
                passed = all(w < tol for w, tol in zip(worst, tolerances, strict=True))
                residual = _worst(worst)
            return CheckResult(name, passed, residual, detail, time.perf_counter() - t0)

        return check

    return decorate


# Random signs are drawn as SIGNS[rng.integers(0, 2, k)]: the same stream and
# values as rng.choice([-1.0, 1.0], k), without choice's per-call overhead.
SIGNS = np.array([-1.0, 1.0])


def _rand_weights(rng: np.random.Generator, k: int) -> list[float]:
    """Nonzero weights away from the dropped-edge cutoff."""
    w = rng.uniform(0.05, math.pi, k) * SIGNS[rng.integers(0, 2, k)]
    return [float(x) for x in w]


def _refute_first(*checks) -> None:
    """Refute on the first row that fails a check, as a loop over the rows
    running the checks in order would. Each check is a (bad, message) pair:
    bad a (K,) bool array and message(k) the detail for row k."""
    firsts = [(int(np.flatnonzero(bad)[0]), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if firsts:
        k, i = min(firsts)
        raise _Refuted(checks[i][1](k))


def _row_counts(outs, k: int) -> np.ndarray:
    """How many of the OutcomeStacks outs hold each of k stack rows."""
    counts = np.zeros(k, dtype=int)
    for o in outs:
        counts[o.rows] += 1
    return counts


def _row_totals(outs, k: int) -> np.ndarray:
    """sum(o.probability for o in row j's outcomes) for every row j, summed in outcome order."""
    totals = np.zeros(k)
    for o in outs:
        totals[o.rows] += o.probabilities
    return totals


@_check("type_i_distribution", ABORT_TOL)
def check_type_i(seed: int = 11, quick: bool = False):
    """Endpoint fusion: 4 outcomes at 1/4; success states rebuild the merged chain.

    Each draw takes its left, then its right weights from the rng; the
    chains are built as one left and one right stack, fused row by row in
    one fuse_type_i call, and each success stack is compared with
    build_state of its graphs in one stacked build.
    """
    rng = np.random.default_rng(seed)
    draws = 5 if quick else 20
    weights = np.array([_rand_weights(rng, 2) + _rand_weights(rng, 2) for _ in range(draws)])
    left = make_chain_stack(["a1", "a2", "a3"], weights[:, :2])
    right = make_chain_stack(["b1", "b2", "b3"], weights[:, 2:])
    outs = fuse_type_i(left, "a3", right, "b1", new_label="c")
    if (_row_counts(outs, draws) != 4).any():
        raise _Refuted("wrong outcome count")
    residuals = [np.abs(o.probabilities - 0.25) for o in outs]
    for o in outs:
        if o.label.startswith("success"):
            post = o.post_states[0]
            residuals.append(1.0 - fidelity_rows(post.rows, build_state(post.graph, post.weights)))
    return f"{draws} draws", residuals


@_check("logical_qubit", ABORT_TOL)
def check_logical_qubit(quick: bool = False):
    """Success probability (1-cos chi)/4 on a 100-point grid; pair support holds.

    The grid's chains are one stack and take one create_logical_qubit call;
    chi = pi, where both X-basis outcomes succeed, is one K = 1 call.
    """
    n = 24 if quick else 100
    chis = -math.pi + (np.arange(n) + 0.5) * 2.0 * math.pi / n  # avoids 0 and pi
    stack = make_chain_stack(["a", "b", "c", "d"], np.stack([np.ones(n), chis, chis], axis=1))
    outs = create_logical_qubit(stack, "c")
    succ = [o for o in outs if o.label.startswith("success")]
    count = _row_counts(succ, n)
    support = np.ones(n, dtype=bool)
    probs = np.full(n, np.nan)
    for o in succ:
        support[o.rows] &= o.post_states[0].pair_support_rows(frozenset({"b", "d"}))
        probs[o.rows] = o.probabilities
    _refute_first(
        (count != 1, lambda k: f"chi={chis[k]}: {count[k]} successes"),
        (~support, lambda k: f"pair support broken at chi={chis[k]}"),
    )
    residuals = [np.abs(probs - (1.0 - np.cos(chis)) / 4.0), np.abs(_row_totals(outs, n) - 1.0)]
    # chi = pi: both X-basis outcomes succeed, total probability 1
    outs = create_logical_qubit(make_chain(["a", "b", "c", "d"], [1.0, math.pi, math.pi]), "c")
    succ = [o for o in outs if o.label.startswith("success")]
    if len(succ) != 2:
        raise _Refuted(f"chi=pi: {len(succ)} successes")
    residuals.append(abs(sum(o.probability for o in succ) - 1.0))
    return f"{n}-point grid + pi", residuals


@_check("type_ii_failure_split", ABORT_TOL)
def check_type_ii_failures(seed: int = 13, quick: bool = False):
    """Failure split (1 -/+ Re z)/4 with the closed-form Re z; good-failure law.

    The right chains of the drawn weights and pi are one stack, fused with
    the fixed left chain, repeated once per row, in one fuse_type_ii call,
    and checked against one rez_formula call; the all-pi right chain is one
    K = 1 call.
    """
    rng = np.random.default_rng(seed)
    n = 10 if quick else 40
    # left logical pair from an all-pi 4-chain; bare member B4 is consumed
    left = logical_pair_stack(make_chain(["A", "B", "C", "D"], [math.pi] * 3), "C")
    chis = np.append(rng.uniform(0.05, math.pi - 0.05, n), math.pi)
    # Case-2 weights (chi, -chi) around the fused interior vertex
    right = make_chain_stack(["v", "b", "w"], np.stack([chis, _wrap_rows(-chis)], axis=1))
    k = len(chis)
    outs = fuse_type_ii(left.take(np.zeros(k, dtype=int)), ("B", "D"), right, "b", consume="D")
    p_good, p_plus, good = np.full(k, np.nan), np.full(k, np.nan), np.zeros(k, dtype=bool)
    for o in outs:
        if o.label == "failure_b_minus":
            p_good[o.rows], good[o.rows] = o.probabilities, o.is_good_failure
        elif o.label == "failure_b_plus":
            p_plus[o.rows] = o.probabilities
    rez = rez_formula(*right.weights.T)
    away_from_pi = ~_near(chis - math.pi)
    _refute_first(
        (~good, lambda r: f"chi={chis[r]} not flagged good"),
        (~(p_good <= 0.25 + BOUND_SLACK), lambda r: "good failure above 1/4"),
        ((np.abs(p_good - 0.25) < ABORT_TOL) & away_from_pi, lambda r: "1/4 away from pi"),
    )
    residuals = [
        np.abs(p_good - (1.0 - rez) / 4.0),
        np.abs(p_plus - (1.0 + rez) / 4.0),
        np.abs(p_good - (1.0 - np.cos(chis)) / 8.0),
        np.abs(_row_totals(outs, k) - 1.0),
    ]
    # all weights pi: split (1/4, 1/4), both failures good
    outs = fuse_type_ii(left, ("B", "D"), make_chain(["v", "b", "w"], [math.pi] * 2), "b", consume="D")
    for o in outs:
        if o.label.startswith("failure"):
            residuals.append(abs(o.probability - 0.25))
            if not o.is_good_failure:
                raise _Refuted(f"{o.label} not good at pi")
    return f"{n + 2} chains", residuals


def _random_fusion_setup(rng: np.random.Generator, draws: int):
    """draws random Type-II setups: their mode unitaries and fusion contexts.

    Each draw takes, in this rng order, N in 4..8 and its Ginibre draw, the
    left weights (w1, chi, then the Case-1/Case-2 coin) and the right chain
    (the 2-/3-chain coin, then its weights). The left chain A-B-C-D has
    weights (w1, chi, chi) (Case 1) or (w1, chi, -chi) (Case 2); its X-like
    branch at C makes the logical pair {B, D}, whose member D is fused with
    b of the right chain v-b or v-b-w. The random numbers are drawn one
    draw at a time; the linear algebra runs afterwards on stacks. The
    Ginibre draws of each N become Haar unitaries in one haar_stack call and
    are checked in one check_unitary_rows call. The chains are built as
    stacks, one build per shape: every left chain in one stack, whose rows
    of both cases take the X-like branch in one logical_pair_stack call, and
    the right chains in one stack per length.

    Returns (us, sizes, urows, lengths, rows, contexts): us[N] is the
    (K_N, N, N) stack of the draws with that N, in draw order; draw i has
    N = sizes[i] and is row urows[i] of us[N]. lengths[i] is its right-chain
    length and rows[i] its row in contexts[length], the FusionContext of the
    draws with that length, in draw order: one fusion_context_rows call.
    """
    ginibres: dict[int, list[np.ndarray]] = {}
    sizes, urows = np.empty(draws, dtype=int), np.empty(draws, dtype=int)
    lengths = []
    lefts, rights = np.empty((draws, 3)), np.empty((draws, 2))
    for i in range(draws):
        n = int(rng.integers(4, 9))
        same_n = ginibres.setdefault(n, [])
        sizes[i], urows[i] = n, len(same_n)
        same_n.append(ginibre(n, rng))
        w1 = float(rng.uniform(0.1, math.pi)) * float(SIGNS[rng.integers(0, 2)])
        chi = float(rng.uniform(0.1, math.pi - 0.1))
        lefts[i] = w1, chi, (chi if rng.random() < 0.5 else wrap_angle(-chi))
        lengths.append(1 if rng.random() < 0.5 else 2)
        rights[i, : lengths[-1]] = _rand_weights(rng, lengths[-1])
    us = {}
    for n in list(ginibres):  # popped, so a size's draws and its stack are not both kept
        us[n] = haar_stack(np.concatenate(ginibres.pop(n)))
        check_unitary_rows(us[n])
    paired = logical_pair_stack(make_chain_stack(["A", "B", "C", "D"], lefts), "C")
    rows, contexts = np.empty(draws, dtype=int), {}
    for r, idx in _positions(lengths).items():
        right = make_chain_stack(["v", "b", "w"][: r + 1], rights[idx, :r])
        rows[idx] = np.arange(len(idx))
        contexts[r] = fusion_context_rows(paired.take(idx), ("B", "D"), right, "b", consume="D")
    return us, sizes, urows, lengths, rows, contexts


def _positions(keys: list) -> dict:
    """Indices of each key in keys, in order, keys in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return {key: np.array(idx) for key, idx in out.items()}


# Draws per stacked call of check_generalized_oracle. A group is compared as
# soon as it holds this many draws, so the check keeps at most ten partial
# groups and one batch's tables alive at a time. The oracle forms only the
# N(N+1)/2 patterns' amplitudes, so 64 draws fit where 16 did: the check's
# tracemalloc peak is 3.5 MiB (16 draws: 1.7 MiB, 128: 4.3 MiB), under the
# 3.9 MiB the verify pass reached before (its x-like scan), and the bench's
# verify_suite peak RSS went 46.3 -> 45.4 MiB. In process (min of 6) the
# check takes 79-83 ms at 64 draws, 90-96 ms at 16 and 79 ms at 128.
ORACLE_BATCH = 64


def _oracle_residual(us: np.ndarray, ctx: FusionContext) -> float:
    """Worst closed-form vs Fock-oracle disagreement over a stack of draws sharing
    N and register sizes: (K, N, N) unitaries and their K-row context, one
    stacked closed form, one stacked oracle.

    Compares every pattern's probability, |sum p - 1| per draw, and the
    closed-form det rho of every live relevant pattern with the dense det rho
    of the oracle's register row."""
    probs, coef = enumerate_table(us, ctx)
    oracle_probs, oracle_rows = oracle_table(us, ctx)
    residuals = [np.abs(probs - oracle_probs), np.abs(probs.sum(axis=1) - 1.0)]
    iu, ju = pattern_indices(us.shape[-1])
    live = (iu != ju) & (probs > DET_LIVE_PROB)
    if live.any():
        det_rho = entanglement_report(
            coef[live].reshape(-1, 2, 2), np.broadcast_to(ctx.z[:, None], live.shape)[live]
        ).det_rho
        rows = oracle_rows[live]
        oracle_det = reduced_det_rho(rows.reshape(len(rows), 1 << ctx.left_qubits, -1))
        residuals.append(np.abs(det_rho - oracle_det))
    return _worst(*residuals)


@_check("generalized_oracle", ABORT_TOL)
def check_generalized_oracle(seed: int = 17, quick: bool = False):
    """Analytic p_ii/p_ij and det rho vs brute-force enumeration, N in 4..8.

    The draws come in one fixed rng order (_random_fusion_setup), their
    Case-1 and Case-2 left chains in one stack, and are grouped by (N, left
    qubits, right qubits), i.e. by N and the right chain's length, the left
    register being two qubits; each full batch of ORACLE_BATCH draws of a
    group, and each group's remainder at the end, is compared in one stacked
    pass.
    """
    rng = np.random.default_rng(seed)
    draws = 100 if quick else 1000
    us, sizes, urows, lengths, rows, contexts = _random_fusion_setup(rng, draws)

    def compare(batch: list[int]) -> float:
        ctx = contexts[lengths[batch[0]]].take(rows[batch])
        return _oracle_residual(us[sizes[batch[0]]][urows[batch]], ctx)

    residuals = []
    groups: dict[tuple[int, int], list[int]] = {}
    for i, n in enumerate(sizes.tolist()):
        batch = groups.setdefault((n, lengths[i]), [])
        batch.append(i)
        if len(batch) == ORACLE_BATCH:
            residuals.append(compare(batch))
            batch.clear()
    residuals += [compare(batch) for batch in groups.values() if batch]
    return f"{draws} draws", [residuals]


def _balanced_draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One balanced unitary's random numbers, in the order it draws them:
    the (3, 2, 2, 2) Ginibre draws of V1, V2 and W, 4 column phases and a
    column permutation."""
    return ginibre(2, rng, 3), rng.uniform(0.0, 2.0 * math.pi, 4), rng.permutation(4)


def _balanced_stack(g: np.ndarray, phases: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """(K, 4, 4) balanced unitaries from K stacked _balanced_draw fields, unchecked.

    A balanced unitary has |U_1i|^2 + |U_2i|^2 = 1/2 for every column i: it
    is diag(I, W) . (1/sqrt2)[[V1, V2], [V1, -V2]] with Haar 2x2 blocks,
    then random column phases and a column permutation, so every relevant
    M_ij of it is proportional to a unitary. One haar_stack over all 3K
    blocks, then array operations on the stack; row k is bit for bit the
    matrix built from draw k alone.
    """
    v1, v2, w = haar_stack(g.reshape(-1, 2, 2, 2)).reshape(-1, 3, 2, 2).transpose(1, 0, 2, 3)
    u = np.empty((len(g), 4, 4), dtype=complex)
    u[:, :2, :2], u[:, :2, 2:], u[:, 2:, :2], u[:, 2:, 2:] = v1, v2, v1, -v2
    u /= math.sqrt(2.0)
    u[:, 2:, :] = w @ u[:, 2:, :]
    u *= np.exp(1j * phases)[:, None, :]
    return np.take_along_axis(u, perms[:, None, :], axis=2)


def _balanced_draws(rng: np.random.Generator, draws: int):
    """draws (balanced unitary, z) pairs, in that rng order, stacked: the
    (K, 4, 4) unitaries, the (K, 6) relevant-pattern coefficients (a, b, c, d)
    of the 4-mode patterns i < j, their (K, 6, 2, 2) matrices and the (K,) z.

    Each z is |z| e^{i arg z}, |z| uniform on [0, 0.95) and arg z on
    [0, 2 pi). The random numbers are drawn one pair at a time; the
    unitaries are built by one _balanced_stack call and checked by one
    check_unitary_rows call."""
    g = np.empty((draws, 3, 2, 2, 2))
    phases, perms = np.empty((draws, 4)), np.empty((draws, 4), dtype=int)
    gram = np.empty((draws, 2))
    for i in range(draws):
        g[i], phases[i], perms[i] = _balanced_draw(rng)
        gram[i] = rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi)
    us = _balanced_stack(g, phases, perms)
    check_unitary_rows(us)
    coeffs = outcome_coeffs(us, *pattern_indices(4, 1))
    zs = gram[:, 0] * np.exp(1j * gram[:, 1])
    return us, coeffs, np.stack(coeffs, axis=-1).reshape(draws, -1, 2, 2), zs


def _qubit_context(z: np.ndarray) -> FusionContext:
    """One-qubit contexts with overlaps z: f1 = |0>, f2 = |1>, f3 = |0> and
    f4 = conj(z)|0> + sqrt(1 - |z|^2)|1>, so that <f4|f3> = z."""
    k = len(z)
    zero, one = np.tile([1.0, 0.0], (k, 1)), np.tile([0.0, 1.0], (k, 1))
    f4 = np.stack([np.conj(z), np.sqrt(1.0 - np.abs(z) ** 2)], axis=-1)
    return FusionContext(zero, one, zero, f4)


@_check("bell_retention", RETENTION_TOL, ABORT_TOL)
def check_bell_retention(seed: int = 19, quick: bool = False):
    """p_ij of (1/sqrt2)-unitary relevant projections is independent of z:
    the closed form and the Fock oracle each at z against 0 (RETENTION_TOL),
    and the closed form against the oracle at z (ABORT_TOL)."""
    rng = np.random.default_rng(seed)
    draws = 50 if quick else 200
    us, coeffs, ms, z = _balanced_draws(rng, draws)
    mm = ms @ ms.conj().transpose(0, 1, 3, 2)
    t = np.trace(mm, axis1=2, axis2=3) / 2.0
    live = np.abs(t) > LIVE_TOL
    # premise: every nonzero M_ij proportional to a unitary
    dev = np.abs(mm[live] - t[live, None, None] * np.eye(2))
    p0 = relevant_norm_sq(*coeffs, 0.0) / 4.0
    pz = relevant_norm_sq(*coeffs, z[:, None]) / 4.0
    iu, ju = pattern_indices(4)
    relevant = iu != ju
    oracle_p0 = oracle_table(us, _qubit_context(np.zeros(draws)))[0][:, relevant]
    oracle_pz = oracle_table(us, _qubit_context(z))[0][:, relevant]
    retained = [dev, np.abs(p0 - pz), np.abs(oracle_p0 - oracle_pz)]
    return f"{draws} unitaries", retained, [np.abs(pz - oracle_pz)]


@_check("balanced_entropy", ABORT_TOL)
def check_balanced_entropy(seed: int = 23, quick: bool = False):
    """Balanced U: relevant total probability 1/2 and det rho = (1-|z|^2)/4 each."""
    rng = np.random.default_rng(seed)
    draws = 50 if quick else 200
    _, coeffs, ms, z = _balanced_draws(rng, draws)
    nsq = relevant_norm_sq(*coeffs, z[:, None])
    live = nsq > LIVE_TOL
    residuals = [np.abs(np.sum(nsq / 4.0, axis=1) - 0.5)]
    if live.any():
        zl = np.broadcast_to(z[:, None], live.shape)[live]
        det_rho = entanglement_report(ms[live], zl).det_rho
        residuals.append(np.abs(det_rho - (1.0 - np.abs(zl) ** 2) / 4.0))
    return f"{draws} unitaries", residuals


def _fixed_fidelity(states: np.ndarray, targets: np.ndarray, refute) -> np.ndarray:
    """1 - |<target|(A x B) state>| for every row of two (K, 4) stacks of
    2-qubit states, (A, B) the local rotations that map the row's state onto
    its target (local_equivalent_rows). A row with no such rotations is
    refuted with the detail refute(k). apply_local checks that the rotations
    are unitary, and each rotated stack is checked as PureState checks a state.
    """
    a, b, ok = local_equivalent_rows(states.reshape(-1, 2, 2), targets.reshape(-1, 2, 2))
    _refute_first((~ok, refute))
    fixed = apply_local(states, 0, a)
    check_unit_rows(fixed)
    fixed = apply_local(fixed, 1, b)
    check_unit_rows(fixed)
    return 1.0 - fidelity_rows(fixed, targets)


@_check("ghz_generation", ABORT_TOL)
def check_ghz_generation(quick: bool = False):
    """50 target weights at chi1 = chi2 = pi, verified by 3-qubit simulation.

    One ghz_pair_for_target_stack call gives every target's kets; both
    outcomes of every target are projected out of the GHZ state in one
    project_qubit call and matched to the |t|-weighted pair in one stacked
    local-unitary check, and its two kets must be orthogonal. The range
    rejection away from pi is one K = 1 call.
    """
    n = 12 if quick else 50
    targets = -math.pi + (np.arange(n) + 1) * 2.0 * math.pi / n
    kets = ghz_pair_for_target_stack(np.full(n, math.pi), np.full(n, math.pi), targets)
    ghz = build_state(chain_graph(["a", "b", "c"], [math.pi, math.pi]))
    # rows 2k and 2k + 1: target k's projection and complement
    states, probs = project_qubit(np.broadcast_to(ghz.amplitudes, (2 * n, 8)), 1, kets.reshape(-1, 2))
    low = np.flatnonzero(probs < ZERO_PROB_CUTOFF)
    if low.size:
        raise ZeroOutcomeError(f"projection probability {float(probs[low[0]])} below cutoff")
    check_unit_rows(states)
    # both outcomes must be the |t|-weighted pair up to local rotations
    pairs = np.repeat(weighted_pair_rows(np.abs(_wrap_rows(targets))), 2, axis=0)
    residuals = [_fixed_fidelity(states, pairs, lambda k: f"target {float(targets[k // 2])}: no pair match")]
    # a measurement basis, |<k0|k1>| = 0: at pi, sum p = 1 holds for any complement ket
    residuals.append(np.abs(np.vecdot(kets[:, 0], kets[:, 1])))
    # weight recovered from the Schmidt-invariant determinant
    det = np.linalg.det(states.reshape(-1, 2, 2))
    dets = np.hypot(det.real, det.imag).reshape(n, 2)
    gap = 1.0 - np.exp(-1j * targets)
    expect = np.hypot(gap.real, gap.imag) / 4.0  # |1 - e^{-it}|/4, each rounded as abs() rounds one
    # same pair weight for both outcomes, compared on the stable invariant
    residuals += [np.abs(dets[:, 0] - dets[:, 1]), np.abs(dets[:, 0] - expect)]
    # range rejection away from pi
    try:
        ghz_pair_for_target_stack([math.pi / 2.0], [math.pi / 2.0], [math.pi])
    except NotAchievableError:
        return f"{n} targets", residuals
    raise _Refuted("out-of-range target accepted")


@_check("hyperbola", INVERSION_TOL, HYPERBOLA_FIDELITY_TOL)
def check_hyperbola(seed: int = 29, quick: bool = False):
    """xi-solver residual and end-to-end projection fidelity against the target pair.

    One solve_xi_for_weight, xi_family_arg and hyperbola_projection call
    each covers every draw; the dense leg runs on stacks: one 2-chain build,
    one einsum, one local-unitary check and one row fidelity over every draw.
    """
    rng = np.random.default_rng(seed)
    draws = 12 if quick else 50
    chi_bfs, chi_targets = [], []
    for _ in range(draws):
        chi_bfs.append(float(rng.uniform(0.1, math.pi - 0.1)) * float(SIGNS[rng.integers(0, 2)]))
        chi_targets.append(float(rng.uniform(-math.pi, math.pi)))
    xis = solve_xi_for_weight(chi_bfs, chi_targets)
    xi_res = np.abs(_wrap_rows(2.0 * xi_family_arg(xis, chi_bfs) - chi_targets))
    # end to end: bare logical pair (e, a) Bell state, right 2-chain (b, f)
    pair = np.zeros(4, complex)
    pair[0] = pair[3] = INV_SQRT2
    right = build_state(chain_graph(["b", "f"], [math.pi]), np.array(chi_bfs)[:, None])
    joint = (pair[None, :, None] * right[:, None, :]).reshape(draws, 2, 2, 2, 2)
    coefs = hyperbola_projection(chi_bfs, xis, np.full(draws, INV_SQRT2))
    res = np.einsum("keabf,kab->kef", joint, coefs).reshape(draws, 4)
    res = normalized_rows(res)
    check_unit_rows(res)
    fid_res = _fixed_fidelity(res, weighted_pair_rows(chi_targets), lambda k: "no local correction found")
    return f"{draws} pairs; xi residual {_worst(xi_res):.2e}", [xi_res], [fid_res]


def _constrained_draw(rng: np.random.Generator) -> tuple:
    """One constrained unitary's random numbers, in the order it draws them:
    N in 4..8, the (2, 2, 2) normals of the unnormalized p and q (p
    first, each its real then its imaginary part), (cos t, sin t), N column
    phases and a column permutation."""
    n = int(rng.integers(4, 9))
    pq = rng.normal(size=(2, 2, 2))
    t = rng.uniform(0.0, 2.0 * math.pi)
    return n, pq, (math.cos(t), math.sin(t)), rng.uniform(0.0, 2.0 * math.pi, n), rng.permutation(n)


def _constrained_stack(pq: np.ndarray, cs: np.ndarray, phases: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """(K, N, N) constrained unitaries from K stacked _constrained_draw fields
    of one N, unchecked; row k is bit for bit the matrix built from draw k alone.

    A constrained unitary's live same-detector columns share the direction
    of rows (3, 4): its 4x4 columns are (cos t . p, sin t . q), (p_perp, 0),
    (0, q_perp), (-sin t . p, cos t . q) with unit p, q in C^2, embedded in
    N in 4..8 with random column phases and a permutation.
    """
    k, n = phases.shape
    pq = normalized_rows(pq[:, :, 0] + 1j * pq[:, :, 1])
    p, q = pq[:, 0], pq[:, 1]
    c, s = cs[:, :1], cs[:, 1:]
    u = np.zeros((k, n, n), dtype=complex)
    u[:, np.arange(4, n), np.arange(4, n)] = 1.0
    u[:, :2, 0], u[:, 2:4, 0] = c * p, s * q
    u[:, :2, 1] = np.stack([-np.conj(p[:, 1]), np.conj(p[:, 0])], axis=-1)  # p_perp
    u[:, 2:4, 2] = np.stack([-np.conj(q[:, 1]), np.conj(q[:, 0])], axis=-1)  # q_perp
    u[:, :2, 3], u[:, 2:4, 3] = -s * p, c * q
    u *= np.exp(1j * phases)[:, None, :]
    return np.take_along_axis(u, perms[:, None, :], axis=2)


def _stack_fields(fields: list[tuple]) -> list[np.ndarray]:
    """Per-draw field tuples as one array per field, draws along axis 0."""
    return [np.array(x) for x in zip(*fields)]


@_check("no_good_failure", NO_GOOD_DET_TOL)
def check_no_good_failure_theorem(seed: int = 31, quick: bool = False):
    """Shared same-detector direction forces every relevant det to vanish.

    The draws are made one at a time and grouped by N; each N's unitaries
    are built, checked and tested as one stack."""
    rng = np.random.default_rng(seed)
    draws = 50 if quick else 200
    by_n: dict[int, list[tuple]] = {}
    for _ in range(draws):
        n, *fields = _constrained_draw(rng)
        by_n.setdefault(n, []).append(fields)
    residuals = []
    for n in list(by_n):  # popped, so a size's draws and its stack are not both kept
        us = _constrained_stack(*_stack_fields(by_n.pop(n)))
        check_unitary_rows(us)
        _, premise, max_det = check_no_good_failure_stack(us)
        if not premise.all():
            raise _Refuted("ensemble premise broken")
        residuals.append(max_det)
    return f"{draws} draws", residuals


@_check("appendix_scans")
def check_scans(quick: bool = False):
    """Appendix grid scans find no solutions outside the known cases."""
    res = 60 if quick else 200
    x = xlike_uniqueness_scan(res)
    y = ylike_impossibility_scan(res)
    detail = (
        f"x-like: {x['solutions']} solutions {x['counts']}, {x['outlier_count']} outliers; "
        f"y-like: {y['solutions']} solutions (all at pi), {y['outlier_count']} outliers"
    )
    if x["outlier_count"] or y["outlier_count"] or not x["solutions"] or not y["solutions"]:
        raise _Refuted(detail)
    return (detail,)


ALL_CHECKS = [
    check_type_i,
    check_logical_qubit,
    check_type_ii_failures,
    check_generalized_oracle,
    check_bell_retention,
    check_balanced_entropy,
    check_ghz_generation,
    check_hyperbola,
    check_no_good_failure_theorem,
    check_scans,
]


def run_all(quick: bool = False) -> list[CheckResult]:
    return [fn(quick=quick) for fn in ALL_CHECKS]
