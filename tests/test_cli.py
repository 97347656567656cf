from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgfusion.analysis import (
    INV_SQRT2,
    entanglement_report,
    gram_factor,
    inner_z,
    solve_xi_for_weight,
)
from wgfusion import cli
from wgfusion.cli import main
from wgfusion.graphstate import (
    WeightedGraph,
    build_state,
    chain_graph,
    eigvalsh_2x2,
    project_qubit,
    wrap_angle,
)
from wgfusion.protocols import (
    create_logical_qubit,
    fuse_type_ii,
    ghz_pair_projection,
    ghz_pair_range,
    logical_pair_stack,
    make_chain,
    rez_formula,
)


def _write_graph(path, vertices, edges):
    path.write_text(
        json.dumps(
            {
                "vertices": vertices,
                "edges": [{"a": a, "b": b, "chi": chi} for a, b, chi in edges],
            }
        )
    )
    return str(path)


@pytest.fixture
def chain2(tmp_path):
    return _write_graph(tmp_path / "g1.json", ["a", "b"], [("a", "b", 0.9)])


@pytest.fixture
def chain2b(tmp_path):
    return _write_graph(tmp_path / "g2.json", ["c", "d"], [("c", "d", -1.7)])


@pytest.fixture
def left4(tmp_path):
    return _write_graph(
        tmp_path / "left.json",
        ["A", "B", "C", "D"],
        [("A", "B", 1.0), ("B", "C", 0.7), ("C", "D", 0.7)],
    )


def test_build_emits_state_summary(chain2, tmp_path, capsys):
    out = tmp_path / "build.json"
    assert main(["build", "--graph", chain2, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["num_qubits"] == 2
    assert data["norm"] == pytest.approx(1.0, abs=1e-12)
    assert data["edges"] == [{"a": "a", "b": "b", "chi": 0.9}]


def test_build_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["build", "--graph", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_build_missing_file_exits_2(capsys):
    assert main(["build", "--graph", "/nonexistent/x.json"]) == 2


def test_build_warns_on_out_of_range_weight(tmp_path, capsys):
    g = _write_graph(tmp_path / "g.json", ["a", "b"], [("a", "b", 7.0)])
    assert main(["build", "--graph", g]) == 0
    cap = capsys.readouterr()
    assert "warning" in cap.err
    data = json.loads(cap.out)
    assert -math.pi < data["edges"][0]["chi"] <= math.pi


def test_fuse_type_i_quarter_probabilities(chain2, chain2b, capsys):
    rc = main(
        [
            "fuse", "--type", "i",
            "--graph", chain2, "--graph2", chain2b,
            "--end-a", "b", "--end-b", "c",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    probs = [o["probability"] for o in data["outcomes"]]
    assert probs == pytest.approx([0.25] * 4, abs=1e-12)


def test_fuse_type_i_missing_args(chain2, capsys):
    assert main(["fuse", "--type", "i", "--graph", chain2]) == 2


def test_fuse_type_i_reads_each_graph_once(tmp_path, chain2b, capsys):
    wide = _write_graph(tmp_path / "wide.json", ["a", "b"], [("a", "b", 7.0)])
    rc = main(
        [
            "fuse", "--type", "i",
            "--graph", wide, "--graph2", chain2b,
            "--end-a", "b", "--end-b", "c",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().err.count("warning") == 1


def test_fuse_type_ii_with_sampling(left4, chain2b, capsys):
    rc = main(
        [
            "fuse", "--type", "ii",
            "--graph", left4, "--graph2", chain2b,
            "--logical", "C", "--b", "c", "--consume", "D",
            "--sample", "100", "--seed", "7",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(o["probability"] for o in data["outcomes"]) == pytest.approx(1.0, abs=1e-10)
    assert sum(data["samples"].values()) == 100


@pytest.mark.parametrize("fusion_type", ["ii", "gen"])
def test_fuse_consume_outside_the_pair_exits_2(left4, chain2b, tmp_path, fusion_type, capsys):
    u = tmp_path / "u.json"
    eye = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    u.write_text(json.dumps({"n": 4, "re": eye, "im": [[0.0] * 4] * 4}))
    rc = main(
        [
            "fuse", "--type", fusion_type,
            "--graph", left4, "--graph2", chain2b,
            "--logical", "C", "--b", "c", "--consume", "A", "--unitary", str(u),
        ]
    )
    assert rc == 2
    assert "consume vertex A" in capsys.readouterr().err


def test_fuse_gen_rejects_a_nan_unitary(left4, chain2b, tmp_path, capsys):
    u = tmp_path / "u.json"
    re = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    re[0][0] = math.nan
    u.write_text(json.dumps({"n": 4, "re": re, "im": [[0.0] * 4] * 4}))
    rc = main(
        [
            "fuse", "--type", "gen",
            "--graph", left4, "--graph2", chain2b,
            "--logical", "C", "--b", "c", "--unitary", str(u),
        ]
    )
    assert rc == 2
    assert "InvalidUnitaryError" in capsys.readouterr().err


def test_fuse_sample_requires_seed(chain2, chain2b, capsys):
    rc = main(
        [
            "fuse", "--type", "i",
            "--graph", chain2, "--graph2", chain2b,
            "--end-a", "b", "--end-b", "c", "--sample", "10",
        ]
    )
    assert rc == 2


def test_scan_writes_csv_with_small_residuals(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--quantity", "logical-prob", "--points", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "chi,analytic,simulated,residual"
    assert len(lines) == 11
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-10


def test_scan_deterministic_with_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(
            ["scan", "--quantity", "det-entropy", "--points", "8", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
    assert a.read_text() == b.read_text()


# Reference rows, one call chain per grid point: the probability rows run the
# whole protocol function (or one entanglement report per row) and read their
# probabilities off the outcomes, the ghz-range row builds, projects and takes
# the determinant of one GHZ state, and the xi-solve row makes one scalar
# solve_xi_for_weight call. The scans compute the same floats in one stacked
# pass per grid without building post-states.


def _ref_logical_prob(chi: float, _rng) -> list:
    outs = create_logical_qubit(make_chain(["a", "b", "c", "d"], [1.0, chi, chi]), "c")
    sim = sum(o.probability for o in outs if o.label.startswith("success"))
    ana = (1.0 - math.cos(chi)) / 4.0
    return [chi, ana, sim, abs(ana - sim)]


def _ref_failure_split(chi: float, _rng) -> list:
    left = logical_pair_stack(make_chain(list("ABCD"), [math.pi] * 3), "C")
    right = make_chain(["v", "b", "w"], [chi, wrap_angle(-chi)])
    outs = {o.label: o for o in fuse_type_ii(left, ("B", "D"), right, "b", consume="D")}
    rez = rez_formula(chi, wrap_angle(-chi))
    am, ap = (1.0 - rez) / 4.0, (1.0 + rez) / 4.0
    sm = outs["failure_b_minus"].probability
    sp = outs["failure_b_plus"].probability
    return [chi, am, sm, ap, sp, max(abs(am - sm), abs(ap - sp))]


def _ref_det_entropy(chi: float, rng) -> list:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z = inner_z(chi)
    rep = entanglement_report(m[None], z)
    det_rho, nsq = float(rep.det_rho[0]), float(rep.norm_sq[0])
    mp = (m / math.sqrt(nsq)) @ gram_factor(z)
    ev = eigvalsh_2x2(mp @ mp.conj().T)
    oracle = float(ev[0] * ev[1])
    return [chi, det_rho, oracle, abs(det_rho - oracle)]


def _ref_ghz_range(chi: float, _rng) -> list:
    ana = ghz_pair_range(chi, chi)
    kets, _phi = ghz_pair_projection([chi], [chi], [INV_SQRT2])
    ghz = build_state(chain_graph(["a", "b", "c"], [chi, chi]))
    red, _p = project_qubit(ghz.amplitudes[None], 1, kets[0, :1])
    det = abs(np.linalg.det(red.reshape(2, 2)))
    sim = float(np.arccos(max(-1.0, min(1.0, 1.0 - 8.0 * det * det))))  # the scan's np.arccos
    return [chi, ana, sim, abs(ana - sim)]


def _ref_xi_solve(chi: float, _rng) -> list:
    chi_target = wrap_angle(2.0 * chi - math.pi / 3.0)
    xi = solve_xi_for_weight(chi, chi_target)
    w = xi * np.exp(1j * chi / 2.0)
    arg = 2.0 * float(np.angle(1.0 + w)) - float(np.angle(w))  # arg((1 + w)^2 / w)
    res = abs(wrap_angle(2.0 * arg - chi_target))
    return [chi, chi_target, xi, res]


REFERENCE_ROWS = {
    "logical-prob": (["chi", "analytic", "simulated", "residual"], _ref_logical_prob),
    "failure-split": (
        ["chi", "analytic_minus", "sim_minus", "analytic_plus", "sim_plus", "residual"],
        _ref_failure_split,
    ),
    "det-entropy": (["chi_bf", "det_rho_analytic", "det_rho_oracle", "residual"], _ref_det_entropy),
    "ghz-range": (
        ["chi", "analytic_max_phi", "simulated_phi_at_half", "residual"],
        _ref_ghz_range,
    ),
    "xi-solve": (["chi_bf", "chi_target", "xi", "residual"], _ref_xi_solve),
}


def _reference_csv(quantity: str, points: int, seed: int) -> str:
    header, row = REFERENCE_ROWS[quantity]
    rng = np.random.default_rng(seed)  # rows run in grid order, one matrix each
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for k in range(points):
        r = row((k + 0.5) * math.pi / points, rng)
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in r])
    return buf.getvalue()


@pytest.mark.parametrize("points", [1, 7, 64])
@pytest.mark.parametrize(
    "quantity, seed",
    [
        ("logical-prob", 0),
        ("failure-split", 0),
        ("det-entropy", 0),
        ("det-entropy", 5),
        ("ghz-range", 0),
        ("xi-solve", 0),
    ],
)
def test_scan_csv_equals_the_reference_rows(quantity, seed, points, tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--quantity", quantity, "--points", str(points), "--out", str(out)]
    assert main(argv + ["--seed", str(seed)]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == _reference_csv(quantity, points, seed)


@pytest.mark.parametrize("quantity", ["logical-prob", "failure-split", "ghz-range"])
def test_probability_scans_run_one_stacked_pass(quantity, monkeypatch):
    """The scan makes as many build_state and project_qubit calls at 64 points as
    at 8, and constructs no ChainState per row: one stacked pass over the grid."""
    from wgfusion import analysis, cli, graphstate, protocols, verify

    calls: dict[str, int] = {}
    for name in ("build_state", "project_qubit"):
        real = getattr(graphstate, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        for module in (analysis, cli, graphstate, protocols, verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    real_init = protocols.ChainState.__post_init__

    def counting_init(self):
        calls["ChainState"] = calls.get("ChainState", 0) + 1
        real_init(self)

    monkeypatch.setattr(protocols.ChainState, "__post_init__", counting_init)
    counts = []
    for points in (8, 64):
        calls.clear()
        _, rows = cli._scan_rows(quantity, points, 0)
        assert len(rows) == points
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["build_state"] >= 1 and counts[0]["project_qubit"] >= 1


def test_main_builds_its_parser_once_and_reuses_it(tmp_path, capsys):
    # a scan, a fuse that argparse refuses (no --graph), then the same scan:
    # one parser serves all three, and the refusal leaves nothing behind
    cli.make_parser.cache_clear()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    scan = ["scan", "--quantity", "xi-solve", "--points", "16", "--seed", "3", "--out"]
    assert main(scan + [str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "--type", "i"])
    assert exc.value.code == 2
    assert main(scan + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    info = cli.make_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_scan_rejects_bad_points(capsys):
    assert main(["scan", "--quantity", "xi-solve", "--points", "0"]) == 2


@pytest.mark.parametrize(
    "sample, seed, message",
    [
        ("-5", "1", "--sample must be positive"),
        ("0", "1", "--sample must be positive"),
        ("5", "-1", "--seed must be non-negative"),
    ],
)
def test_fuse_rejects_bad_sample_and_seed(chain2, chain2b, sample, seed, message, capsys):
    rc = main(
        [
            "fuse", "--type", "i",
            "--graph", chain2, "--graph2", chain2b,
            "--end-a", "b", "--end-b", "c", "--sample", sample, "--seed", seed,
        ]
    )
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_scan_rejects_a_negative_seed(capsys):
    assert main(["scan", "--quantity", "det-entropy", "--points", "3", "--seed", "-1"]) == 2
    assert "error: --seed must be non-negative" in capsys.readouterr().err


def test_verify_quick_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--quick", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert all(r["passed"] for r in report)
    assert "PASS" in capsys.readouterr().out


def test_build_rejects_non_finite_weight(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "chi": NaN}]}')
    assert main(["build", "--graph", str(g)]) == 2
    assert "InvalidGraphError" in capsys.readouterr().err


def test_fuse_names_the_malformed_graph_file(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(chain_graph(["v", "w"], [0.9]).as_dict()))
    bad.write_text('{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b"}]}')
    args = ["fuse", "--type", "i", "--end-a", "w", "--end-b", "a"]
    assert main(args + ["--graph", str(good), "--graph2", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and str(good) not in err


def test_weight_warning_precedes_graph_rejection(tmp_path, capsys):
    g = tmp_path / "g.json"
    edges = [{"a": "a", "b": "b", "chi": 4.0}, {"a": "b", "b": "a", "chi": 0.5}]
    g.write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}))
    assert main(["build", "--graph", str(g)]) == 2
    err = capsys.readouterr().err
    assert err.count("warning: weight 4.0") == 1
    assert f"InvalidGraphError: {g}: duplicate edge" in err


def _parses_back(doc: dict) -> bool:
    """The graph part of a payload survives from_dict unchanged."""
    graph_part = {"vertices": doc["vertices"], "edges": doc["edges"]}
    return WeightedGraph.from_dict(doc).as_dict() == graph_part


# chain weights away from zero, some outside (-pi, pi]
CHAIN_WEIGHT = st.floats(0.1, 3.0) | st.floats(-3.0, -0.1) | st.floats(3.3, 20.0)


@settings(max_examples=25, deadline=None)
@given(
    left=st.lists(CHAIN_WEIGHT, min_size=1, max_size=3),
    right=st.lists(CHAIN_WEIGHT, min_size=2, max_size=2),
    chi=st.floats(0.1, math.pi),
)
def test_build_and_fuse_payloads_parse_back(left, right, chi):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lv = [f"l{i}" for i in range(len(left) + 1)]
        g_left = _write_graph(tmp / "left.json", lv, list(zip(lv, lv[1:], left)))
        g_right = _write_graph(
            tmp / "right.json", ["v", "b", "w"], [("v", "b", right[0]), ("b", "w", right[1])]
        )
        g_logical = _write_graph(
            tmp / "logical.json", list("ABCD"), [("A", "B", 1.0), ("B", "C", chi), ("C", "D", chi)]
        )
        runs = {
            "build": ["build", "--graph", g_left],
            "i": [
                "fuse", "--type", "i", "--graph", g_left, "--graph2", g_right,
                "--end-a", lv[-1], "--end-b", "v",
            ],
            "ii": [
                "fuse", "--type", "ii", "--graph", g_logical, "--graph2", g_right,
                "--logical", "C", "--b", "b", "--consume", "D",
            ],
        }
        for name, argv in runs.items():
            out = tmp / f"{name}.json"
            assert main(argv + ["--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            if name == "build":
                assert _parses_back(payload)
            else:
                posts = [pg for o in payload["outcomes"] for pg in o["post_graphs"]]
                assert posts and all(_parses_back(pg) for pg in posts)
