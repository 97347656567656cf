from __future__ import annotations

import json
import math

import pytest

from wgfusion.cli import main


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


def test_scan_rejects_bad_points(capsys):
    assert main(["scan", "--quantity", "xi-solve", "--points", "0"]) == 2


def test_verify_quick_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--quick", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert all(r["passed"] for r in report)
    assert "PASS" in capsys.readouterr().out
