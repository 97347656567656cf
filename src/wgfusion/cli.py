"""Command-line front end: build states, run fusions and scans, verify formulas.

Exit codes: 0 ok, 1 verification failure, 2 input validation, 3 numerical abort.
All angles are radians; JSON for structured reports, CSV for scans.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import Counter

import numpy as np

from .analysis import (
    INV_SQRT2,
    entanglement_report,
    inner_z,
    solve_xi_for_weight,
    xi_family_arg,
)
from .errors import (
    ConvergenceFailureError,
    InputError,
    InvalidGraphError,
    NumericalAbortError,
    WgfError,
    ZeroOutcomeError,
)
from .fock import ModeUnitary, ginibre
from .graphstate import (
    WeightedGraph,
    _wrap_rows,
    build_state,
    chain_graph,
    check_unit_rows,
    project_qubit,
    wrap_angle,
)
from .protocols import (
    ChainState,
    fuse_generalized,
    fuse_type_i,
    fuse_type_ii,
    ghz_pair_projection,
    ghz_pair_range,
    logical_pair_stack,
    make_chain,
    make_chain_stack,
    rez_formula,
    sample_outcomes,
    type_ii_probabilities_stack,
    xlike_probability_stack,
)
from .tolerances import ZERO_PROB_CUTOFF
from .verify import run_all


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> WeightedGraph:
    """Read a graph file, warning once per edge whose weight gets wrapped."""
    try:
        vertices, edges = WeightedGraph.parse_dict(_load_json(path))
        for _, _, chi in edges:
            if math.isfinite(chi) and not (-math.pi < chi <= math.pi):
                print(
                    f"warning: weight {chi} outside (-pi, pi], normalized to {wrap_angle(chi)}",
                    file=sys.stderr,
                )
        return WeightedGraph(vertices, edges)
    except InvalidGraphError as exc:
        raise InvalidGraphError(f"{path}: {exc}") from exc


def _emit(payload, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_build(args) -> int:
    graph = _load_graph(args.graph)
    state = build_state(graph)
    payload = {
        **graph.as_dict(),
        "num_qubits": graph.n,
        "norm": float(np.linalg.norm(state.amplitudes)),
    }
    if args.dump_amplitudes:
        payload["amplitudes_re"] = [float(x.real) for x in state.amplitudes]
        payload["amplitudes_im"] = [float(x.imag) for x in state.amplitudes]
    _emit(payload, args.out)
    return 0


def _chain(graph: WeightedGraph) -> ChainState:
    return ChainState(graph, build_state(graph))


def cmd_fuse(args) -> int:
    if args.fusion_type == "i":
        for name in ("graph2", "end_a", "end_b"):
            if getattr(args, name) is None:
                raise InputError(f"fuse --type i requires --{name.replace('_', '-')}")
        left, right = _chain(_load_graph(args.graph)), _chain(_load_graph(args.graph2))
        outcomes = fuse_type_i(left, args.end_a, right, args.end_b)
        payload = {"type": "i"}
    elif args.fusion_type in ("ii", "gen"):
        for name in ("graph2", "logical", "b"):
            if getattr(args, name) is None:
                raise InputError(f"fuse --type {args.fusion_type} requires --{name}")
        left = logical_pair_stack(_chain(_load_graph(args.graph)), args.logical)
        pair = next(iter(left.logical_pairs))
        right = _chain(_load_graph(args.graph2))
        if args.fusion_type == "ii":
            outcomes = fuse_type_ii(left, tuple(pair), right, args.b, consume=args.consume)
            payload = {"type": "ii"}
        else:
            if args.unitary is None:
                raise InputError("fuse --type gen requires --unitary")
            u = ModeUnitary.from_dict(_load_json(args.unitary))
            ctx, outcomes = fuse_generalized(left, tuple(pair), right, args.b, u, consume=args.consume)
            z = complex(ctx.z[0])
            payload = {"type": "gen", "z": {"re": z.real, "im": z.imag}}
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown fusion type {args.fusion_type}")
    payload["outcomes"] = [o.as_dict() for o in outcomes]
    if args.sample:
        if args.seed is None:
            raise InputError("--sample requires --seed")
        payload["samples"] = Counter(sample_outcomes(outcomes, args.sample, args.seed))
    _emit(payload, args.out)
    return 0


def _scan_rows(quantity: str, points: int, seed: int) -> tuple[list[str], list[list]]:
    """Header and rows of one scan over the grid chi_k = (k + 1/2) pi / points.

    Each scan builds its columns as arrays, each from one call over the
    whole grid (row k bit for bit the call on chi_k), zipped into rows once:
    logical-prob and failure-split simulate with xlike_probability_stack and
    type_ii_probabilities_stack; det-entropy reads entanglement_report's
    dense oracle on one ginibre draw; ghz-range projects one GHZ build_state
    stack; xi-solve solves with solve_xi_for_weight.
    """
    grid = (np.arange(points) + 0.5) * math.pi / points  # (0, pi)

    if quantity == "logical-prob":
        header = ["chi", "analytic", "simulated", "residual"]
        chains = make_chain_stack(list("abcd"), np.stack([np.ones(points), grid, grid], axis=1))
        sim = xlike_probability_stack(chains, "c")
        ana = (1.0 - np.cos(grid)) / 4.0
        cols = (grid, ana, sim, np.abs(ana - sim))
    elif quantity == "failure-split":
        header = ["chi", "analytic_minus", "sim_minus", "analytic_plus", "sim_plus", "residual"]
        left = logical_pair_stack(make_chain(list("ABCD"), [math.pi] * 3), "C")
        # Case-2 weights (chi, -chi); -chi lies in (-pi, 0), so it needs no wrap
        right = make_chain_stack(["v", "b", "w"], np.stack([grid, -grid], axis=1))
        lefts = left.take(np.zeros(points, dtype=int))  # the fixed left chain on every row
        probs = type_ii_probabilities_stack(lefts, ("B", "D"), right, "b", consume="D")
        sm, sp = probs["failure_b_minus"], probs["failure_b_plus"]
        rez = rez_formula(grid, -grid)
        am, ap = (1.0 - rez) / 4.0, (1.0 + rez) / 4.0
        cols = (grid, am, sm, ap, sp, np.maximum(np.abs(am - sm), np.abs(ap - sp)))
    elif quantity == "det-entropy":
        header = ["chi_bf", "det_rho_analytic", "det_rho_oracle", "residual"]
        # row k takes the k-th seeded matrix, its real then its imaginary normals
        g = ginibre(2, np.random.default_rng(seed), points)
        rep = entanglement_report(g[:, 0] + 1j * g[:, 1], inner_z(grid))
        cols = (grid, rep.det_rho, rep.det_rho_oracle, np.abs(rep.det_rho - rep.det_rho_oracle))
    elif quantity == "ghz-range":
        header = ["chi", "analytic_max_phi", "simulated_phi_at_half", "residual"]
        kets, _phis = ghz_pair_projection(grid, grid, np.full(points, INV_SQRT2))
        ghz = build_state(chain_graph(["a", "b", "c"], [math.pi] * 2), np.stack([grid, grid], axis=1))
        red, probs = project_qubit(ghz, 1, kets[:, 0])
        if not (probs >= ZERO_PROB_CUTOFF).all():  # a vanishing outcome is no pair
            raise ZeroOutcomeError(f"projection probability {float(probs.min())} below cutoff")
        check_unit_rows(red)
        dets = np.abs(np.linalg.det(red.reshape(-1, 2, 2)))
        ana = ghz_pair_range(grid, grid)
        sim = np.arccos(np.clip(1.0 - 8.0 * dets * dets, -1.0, 1.0))
        cols = (grid, ana, sim, np.abs(ana - sim))
    elif quantity == "xi-solve":
        header = ["chi_bf", "chi_target", "xi", "residual"]
        targets = _wrap_rows(2.0 * grid - math.pi / 3.0)
        xis = solve_xi_for_weight(grid, targets)
        cols = (grid, targets, xis, np.abs(_wrap_rows(2.0 * xi_family_arg(xis, grid) - targets)))
    else:
        raise InputError(f"unknown scan quantity {quantity}")
    return header, [list(r) for r in zip(*(c.tolist() for c in cols))]


def cmd_scan(args) -> int:
    header, rows = _scan_rows(args.quantity, args.points, args.seed or 0)
    out = args.out or "-"
    fh = sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in r])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_verify(args) -> int:
    results = run_all(quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:26s} residual={r.max_residual:.3e}  {r.seconds:6.2f}s  {r.detail}")
    if args.out:
        _emit([r.as_dict() for r in results], args.out)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main dispatches on args.command."""
    parser = argparse.ArgumentParser(
        prog="wgfusion",
        description="Weighted graph states, fusion protocols, and formula verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a weighted graph state")
    p_build.add_argument("--graph", required=True, help="graph JSON path")
    p_build.add_argument("--out", default=None)
    p_build.add_argument("--dump-amplitudes", action="store_true")

    p_fuse = sub.add_parser("fuse", help="run a fusion protocol")
    p_fuse.add_argument("--type", dest="fusion_type", required=True, choices=["i", "ii", "gen"])
    p_fuse.add_argument("--graph", required=True, help="left chain JSON")
    p_fuse.add_argument("--graph2", default=None, help="right chain JSON")
    p_fuse.add_argument("--end-a", default=None, help="left endpoint (type i)")
    p_fuse.add_argument("--end-b", default=None, help="right endpoint (type i)")
    p_fuse.add_argument("--logical", default=None, help="interior vertex for the logical pair (ii/gen)")
    p_fuse.add_argument("--b", default=None, help="right-chain fused vertex (ii/gen)")
    p_fuse.add_argument("--consume", default=None, help="pair member sent into the network")
    p_fuse.add_argument("--unitary", default=None, help="mode unitary JSON (gen)")
    p_fuse.add_argument("--sample", type=int, default=None, help="draw N outcomes")
    p_fuse.add_argument("--seed", type=int, default=None)
    p_fuse.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="formula scans to CSV")
    p_scan.add_argument(
        "--quantity",
        required=True,
        choices=["logical-prob", "failure-split", "det-entropy", "ghz-range", "xi-solve"],
    )
    p_scan.add_argument("--points", type=int, default=50)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.add_argument("--out", default=None, help="CSV path, default stdout")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--quick", action="store_true", help="reduced ensembles")
    p_verify.add_argument("--out", default=None, help="JSON report path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    for flag, least, rule in (
        ("points", 1, "positive"),
        ("sample", 1, "positive"),
        ("seed", 0, "non-negative"),
    ):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            print(f"error: --{flag} must be {rule}", file=sys.stderr)
            return 2
    # looked up per call, so a rebound cmd_* (a wrapper, a monkeypatch) is the one run
    commands = {"build": cmd_build, "fuse": cmd_fuse, "scan": cmd_scan, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (NumericalAbortError, ConvergenceFailureError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except WgfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
