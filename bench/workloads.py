"""The three benchmark workloads as seeded lists of gated operations.

``build(name, seed, scale, workdir)`` is the set-up step: it draws every
input from the seed (graph and unitary JSON files, chain weights, ensemble
seeds) and returns the operation list. Running an operation calls public
wgfusion functions and then checks their outputs against the tolerance the
library or the matching ``verify`` check uses; a failed check raises
``GateFailure``. Library functions are always looked up on their module at
call time, so the tracer's rebinding reaches them.

Scale ``full`` is the measured size; ``tiny`` is the warm-up and smoke size.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wgfusion import analysis, cli, graphstate, protocols, verify

PROB_TOL = 1e-10  # probabilities, det rho, fidelities (verify checks and library)
XI_TOL = 1e-9  # xi-solver residual (check_hyperbola)
# residual tolerance of the verify check matching each scan quantity
SCAN_TOL = {
    "logical-prob": PROB_TOL,  # check_logical_qubit
    "failure-split": PROB_TOL,  # check_type_ii_failures
    "det-entropy": PROB_TOL,  # check_balanced_entropy
    "ghz-range": PROB_TOL,  # check_ghz_generation
    "xi-solve": XI_TOL,  # check_hyperbola
}


class GateFailure(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Op:
    name: str
    run: Callable[[], str]  # returns a canonical text of the checked output


def gate(ok: bool, msg: str) -> None:
    if not ok:
        raise GateFailure(msg)


def _weights(rng: np.random.Generator, k: int) -> list[float]:
    """Nonzero weights in +-(0.1, pi - 0.1), away from the dropped-edge cutoff and pi."""
    w = rng.uniform(0.1, math.pi - 0.1, k) * rng.choice([-1.0, 1.0], k)
    return [float(x) for x in w]


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _eligible_weights(rng: np.random.Generator, n: int, v: int) -> tuple[list[float], float]:
    """Chain weights whose two edges at interior vertex v satisfy Case 1 or Case 2."""
    w = _weights(rng, n - 1)
    chi = w[v - 1]
    w[v] = chi if rng.uniform() < 0.5 else -chi
    return w, chi


# -- verify_suite ---------------------------------------------------------


def _accepts_seed(fn) -> bool:
    """Whether a check takes ``seed``, looking through wrappers and closures."""
    while True:
        params = inspect.signature(fn, follow_wrapped=False).parameters
        if "seed" in params:
            return True
        if hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
            continue
        inner = [c.cell_contents for c in fn.__closure__ or () if inspect.isfunction(c.cell_contents)]
        if len(inner) != 1:
            return False
        fn = inner[0]


def verify_suite(seed: int, scale: str, workdir: str) -> list[Op]:
    """The ten verify checks in ALL_CHECKS order; seed 0 is `wgfusion verify`."""
    quick = scale == "tiny"
    ops = []
    for i, fn in enumerate(verify.ALL_CHECKS):
        kwargs: dict = {"quick": quick}
        if seed != 0 and _accepts_seed(fn):
            kwargs["seed"] = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])

        def run(i=i, kwargs=kwargs) -> str:
            res = verify.ALL_CHECKS[i](**kwargs)
            gate(res.passed, f"{res.name} failed: residual {res.max_residual:.3e} ({res.detail})")
            return f"{res.name}|{res.max_residual!r}|{res.detail}"

        ops.append(Op(f"verify.{fn.__name__}", run))
    return ops


# -- dense_fusion ---------------------------------------------------------


def _check_amplitudes(state, n: int, edges, spots: np.ndarray) -> str:
    """Norm and closed-form amplitudes 2^(-n/2) exp(-i sum chi x_a x_b) at spot indices."""
    amps = state.amplitudes
    gate(abs(float(np.vdot(amps, amps).real) - 1.0) <= PROB_TOL, "state norm off")
    bits = (spots[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    phase = np.zeros(len(spots))
    for a, b, chi in edges:
        phase += chi * (bits[:, a] & bits[:, b])
    expect = np.exp(-1j * phase)
    got = amps[spots] * math.sqrt(1 << n)
    gate(float(np.max(np.abs(got - expect))) <= PROB_TOL, "amplitude disagrees with closed form")
    return repr([complex(x) for x in amps[spots[:4]]])


def _build_op(name: str, n: int, edges: list[tuple[int, int, float]], rng) -> Op:
    labels = _labels("q", n)
    named = tuple((labels[a], labels[b], chi) for a, b, chi in edges)
    spots = rng.integers(0, 1 << n, 32)

    def run() -> str:
        st = graphstate.build_state(graphstate.WeightedGraph(tuple(labels), named))
        return _check_amplitudes(st, n, edges, spots)

    return Op(name, run)


def _random_edges(rng, n: int, m: int) -> list[tuple[int, int, float]]:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pick = rng.choice(len(pairs), size=m, replace=False)
    return [(*pairs[k], w) for k, w in zip(sorted(pick), _weights(rng, m))]


def _logical_op(n: int, rng) -> Op:
    v = int(rng.integers(1, n - 1))
    labels = _labels("q", n)
    w, chi = _eligible_weights(rng, n, v)
    pair = frozenset({labels[v - 1], labels[v + 1]})

    def run() -> str:
        outs = protocols.create_logical_qubit(protocols.make_chain(labels, w), labels[v])
        total = sum(o.probability for o in outs)
        gate(abs(total - 1.0) <= PROB_TOL, f"sum p = {total!r}")
        succ = [o for o in outs if o.label.startswith("success")]
        gate(len(succ) == 1, f"{len(succ)} success outcomes")
        p = succ[0].probability
        gate(abs(p - (1.0 - math.cos(chi)) / 4.0) <= PROB_TOL, f"success p = {p!r}")
        gate(succ[0].post_states[0].pair_support_ok(pair), "pair support broken")
        return repr([o.probability for o in outs])

    return Op(f"create_logical_qubit.n{n}", run)


def _type_i_op(nl: int, nr: int, rng) -> Op:
    ll, rl = _labels("l", nl), _labels("r", nr)
    wl, wr = _weights(rng, nl - 1), _weights(rng, nr - 1)

    def run() -> str:
        left, right = protocols.make_chain(ll, wl), protocols.make_chain(rl, wr)
        outs = protocols.fuse_type_i(left, ll[-1], right, rl[0], new_label="c")
        gate(len(outs) == 4, f"{len(outs)} outcomes")
        for o in outs:
            gate(abs(o.probability - 0.25) <= PROB_TOL, f"{o.label} p = {o.probability!r}")
            if o.label.startswith("success"):
                post = o.post_states[0]
                fid = graphstate.fidelity_up_to_global_phase(post.state, graphstate.build_state(post.graph))
                gate(fid >= 1.0 - PROB_TOL, f"{o.label} fidelity {fid!r}")
        return repr([(o.label, o.probability) for o in outs])

    return Op(f"fuse_type_i.{nl}+{nr}", run)


def _type_ii_op(nl: int, nr: int, rng) -> Op:
    ll, rl = _labels("l", nl), _labels("r", nr)
    wl, _ = _eligible_weights(rng, nl, nl - 2)
    wr = _weights(rng, nr - 1)
    k = int(rng.integers(1, nr - 1))  # b is interior: two neighbours

    def run() -> str:
        outs = protocols.create_logical_qubit(protocols.make_chain(ll, wl), ll[-2])
        left = [o for o in outs if o.label.startswith("success")][0].post_states[0]
        right = protocols.make_chain(rl, wr)
        outs = protocols.fuse_type_ii(left, (ll[-3], ll[-1]), right, rl[k], consume=ll[-1])
        probs = {o.label: o.probability for o in outs}
        return _check_type_ii(probs, protocols.rez_formula(wr[k - 1], wr[k]))

    return Op(f"fuse_type_ii.{nl}+{nr}", run)


def _check_type_ii(by: dict[str, float], rez: float) -> str:
    """Sum p = 1 and the failure split (1 -/+ Re z)/4 of check_type_ii_failures."""
    total = sum(by.values())
    gate(abs(total - 1.0) <= PROB_TOL, f"sum p = {total!r}")
    gate(abs(by["failure_b_minus"] - (1.0 - rez) / 4.0) <= PROB_TOL, "failure_b_minus off (1-Re z)/4")
    gate(abs(by["failure_b_plus"] - (1.0 + rez) / 4.0) <= PROB_TOL, "failure_b_plus off (1+Re z)/4")
    return repr(sorted(by.items()))


def dense_fusion(seed: int, scale: str, workdir: str) -> list[Op]:
    """Large-register builds and fusions, n = 16-20 (n = 4-10 at tiny scale)."""
    rng = np.random.default_rng([seed, 2])
    s = 0 if scale == "full" else 10  # qubits removed at tiny scale
    chain = [(i, i + 1, w) for i, w in enumerate(_weights(rng, 19 - s))]
    complete = {
        n: [(a, b, w) for (a, b), w in zip(
            [(a, b) for a in range(n) for b in range(a + 1, n)], _weights(rng, n * (n - 1) // 2)
        )]
        for n in (16 - s, 18 - s)
    }
    ops = [
        _build_op(f"build_state.chain{20 - s}", 20 - s, chain, rng),
        _build_op(f"build_state.complete{16 - s}", 16 - s, complete[16 - s], rng),
        _build_op(f"build_state.complete{18 - s}", 18 - s, complete[18 - s], rng),
        _build_op(f"build_state.random{19 - s}", 19 - s, _random_edges(rng, 19 - s, 40 - 2 * s), rng),
    ]
    ops += [_logical_op(n - s, rng) for n in (16, 17, 18)]
    ops += [_type_i_op(9 - s // 2, 10 - s // 2, rng), _type_i_op(10 - s // 2, 10 - s // 2, rng)]
    ops += [_type_ii_op(10 - s // 2, 9 - s // 2, rng), _type_ii_op(9 - s // 2, 9 - s // 2, rng)]
    return ops


# -- scan_sweep -----------------------------------------------------------


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _chain_doc(labels: list[str], weights: list[float]) -> dict:
    edges = [{"a": a, "b": b, "chi": w} for a, b, w in zip(labels, labels[1:], weights)]
    return {"vertices": labels, "edges": edges}


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    gate(code == 0, f"wgfusion {argv[0]} exited {code}")


def _scan_op(quantity: str, points: int, seed: int, workdir: str) -> Op:
    out = os.path.join(workdir, f"scan-{quantity}.csv")
    argv = ["scan", "--quantity", quantity, "--points", str(points), "--seed", str(seed), "--out", out]

    def run() -> str:
        _cli(argv)
        with open(out) as fh:
            text = fh.read()
        rows = list(csv.reader(io.StringIO(text)))[1:]
        gate(len(rows) == points, f"{len(rows)} rows")
        worst = max(float(r[-1]) for r in rows)
        gate(worst <= SCAN_TOL[quantity], f"{quantity} residual {worst!r}")
        return hashlib.sha256(text.encode()).hexdigest()

    return Op(f"scan.{quantity}", run)


def _fuse_op(kind: str, k: int, rng, workdir: str, samples: int) -> Op:
    """`wgfusion fuse --type kind` on generated chain (and unitary) files."""
    tag = f"{kind}{k}"
    sample_seed = int(rng.integers(0, 2**31))
    if kind == "i":
        nl, nr = (int(x) for x in rng.integers(3, 6, 2))
        ll, rl = _labels("l", nl), _labels("r", nr)
        left = _write_json(os.path.join(workdir, f"{tag}-left.json"), _chain_doc(ll, _weights(rng, nl - 1)))
        right = _write_json(os.path.join(workdir, f"{tag}-right.json"), _chain_doc(rl, _weights(rng, nr - 1)))
        args = ["--graph", left, "--graph2", right, "--end-a", ll[-1], "--end-b", rl[0]]
        rez = None
    else:
        wl, _ = _eligible_weights(rng, 4, 2)
        left = _write_json(os.path.join(workdir, f"{tag}-left.json"), _chain_doc(list("ABCD"), wl))
        nr = int(rng.integers(3, 6))
        rl, wr = _labels("r", nr), _weights(rng, nr - 1)
        j = int(rng.integers(1, nr - 1))
        right = _write_json(os.path.join(workdir, f"{tag}-right.json"), _chain_doc(rl, wr))
        args = ["--graph", left, "--logical", "C", "--graph2", right, "--b", rl[j], "--consume", "D"]
        rez = protocols.rez_formula(wr[j - 1], wr[j])
        if kind == "gen":
            from scipy.stats import unitary_group

            m = unitary_group.rvs(int(rng.integers(4, 9)), random_state=rng)
            doc = {"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
            args += ["--unitary", _write_json(os.path.join(workdir, f"{tag}-u.json"), doc)]
    out = os.path.join(workdir, f"{tag}-out.json")
    argv = ["fuse", "--type", kind, *args, "--sample", str(samples), "--seed", str(sample_seed), "--out", out]

    def run() -> str:
        _cli(argv)
        with open(out) as fh:
            payload = json.load(fh)
        probs = [o["probability"] for o in payload["outcomes"]]
        gate(abs(sum(probs) - 1.0) <= PROB_TOL, f"sum p = {sum(probs)!r}")
        gate(sum(payload["samples"].values()) == samples, "sample count")
        if kind == "i":
            gate(max(abs(p - 0.25) for p in probs) <= PROB_TOL, "type-i outcome off 1/4")
        elif kind == "ii":
            _check_type_ii({o["label"]: o["probability"] for o in payload["outcomes"]}, rez)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    return Op(f"fuse.{tag}", run)


def _classify_xi(rng) -> Op:
    chi_bf = _weights(rng, 1)[0]
    target = float(rng.uniform(-math.pi, math.pi))

    def run() -> str:
        xi = analysis.solve_xi_for_weight(chi_bf, target)
        oc = analysis.classify_projection(analysis.hyperbola_projection(chi_bf, xi), chi_bf)
        gate(oc.tag == "weighted_graph_new_weight", f"xi family classified {oc.tag}")
        gate(abs(graphstate.wrap_angle(oc.chi - target)) <= XI_TOL, f"new weight {oc.chi!r} != {target!r}")
        return f"{oc.tag}|{oc.chi!r}"

    return Op("classify.xi_family", run)


def _classify_max_entangled(rng) -> Op:
    from scipy.stats import unitary_group

    c1, c2 = _weights(rng, 2)
    seed = unitary_group.rvs(2, random_state=rng) / math.sqrt(2.0)

    def run() -> str:
        p = analysis.max_entangled_family(seed, analysis.inner_z(c1, c2))
        oc = analysis.classify_projection(p, c1, 2, c2)
        gate(oc.tag == "maximally_entangled", f"max-entangled family classified {oc.tag}")
        return oc.tag

    return Op("classify.max_entangled", run)


def _classify_product(rng) -> Op:
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    coeffs = [complex(x) for x in np.outer(u, v).reshape(-1)]
    chi_bf = _weights(rng, 1)[0]

    def run() -> str:
        oc = analysis.classify_projection(analysis.TwoQubitProjection(*coeffs), chi_bf)
        gate(oc.tag == "product", f"product projection classified {oc.tag}")
        return oc.tag

    return Op("classify.product", run)


def scan_sweep(seed: int, scale: str, workdir: str) -> list[Op]:
    """The figure-making path: scans, sampled fusions and classification via public calls."""
    rng = np.random.default_rng([seed, 3])
    full = scale == "full"
    points, fuses, samples, classes = (400, 4, 2000, 100) if full else (8, 1, 50, 2)
    ops = [_scan_op(q, points, seed, workdir) for q in SCAN_TOL]
    ops += [_fuse_op(kind, k, rng, workdir, samples) for k in range(fuses) for kind in ("i", "ii", "gen")]
    for _ in range(classes):
        ops += [_classify_xi(rng), _classify_max_entangled(rng), _classify_product(rng)]
    return ops


WORKLOADS = {"verify_suite": verify_suite, "dense_fusion": dense_fusion, "scan_sweep": scan_sweep}


def build(name: str, seed: int, scale: str, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, scale, workdir)


def run_pass(ops: list[Op], failures: list[str] | None = None) -> tuple[int, int, str]:
    """Run every operation once; returns (attempted, failed, output digest).

    A failed gate or any exception counts as one failed operation and the pass
    goes on; its message is appended to ``failures``.
    """
    h = hashlib.sha256()
    failed = 0
    for op in ops:
        try:
            text = op.run()
        except Exception as exc:  # counted, never dropped: the pass must go on
            failed += 1
            if failures is not None:
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            text = f"FAILED {type(exc).__name__}"
        h.update(f"{op.name}={text}\n".encode())
    return len(ops), failed, h.hexdigest()

