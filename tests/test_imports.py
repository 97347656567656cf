"""Offline lint gates on the wgfusion sources.

Every name a module imports is read in it (__init__.py is exempt because it
imports names to re-export them), no function imports from the package:
package-internal imports sit at module top, the runtime loads only NumPy
(SciPy is a test-only reference), the Fock oracle never reaches the
closed form it checks, protocols applies gates through one correction
path, and no module builds a 2^n index mask with np.arange (the dense layer
selects bits through graphstate's strided views), verify builds and checks
no random unitary once per loop iteration, no module but the
tolerance table writes a float literal below 1e-2, every constant of that
table has a reader, every name __init__.py exports is bound there, every
export and every public module-level function and class has a reader, no
per-layer-pinned function has a public stacked twin ("_stack", "_rows" or
"_table" by name), and no module dispatches between the two chain types.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wgfusion"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - read)


def test_gate_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_relative_imports(source: str) -> list[str]:
    """Names of the functions whose body imports relatively (from the package)."""
    tree = ast.parse(source)
    return sorted(
        {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        }
    )


def test_gate_flags_a_function_local_relative_import():
    src = "def f():\n    from .x import y\n    from scipy import z\n\ndef g():\n    import os\n"
    assert local_relative_imports(src) == ["f"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    assert local_relative_imports(path.read_text()) == []


def test_runtime_loads_no_scipy():
    code = (
        "import sys, wgfusion, wgfusion.cli, wgfusion.verify as v\n"
        "v.check_hyperbola(quick=True)\n"
        "v.check_generalized_oracle(quick=True)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


ORACLE_FUNCS = ("oracle_table", "oracle_enumerate", "reduced_det_rho")
CLOSED_FORM = {"enumerate_table", "outcome_coeffs", "relevant_norm_sq", "same_detector_prob"}


def reachable_names(source: str, roots) -> set[str]:
    """Every name or attribute read by the module-level functions roots, following
    the module's own functions and classes that they read, transitively."""
    tree = ast.parse(source)
    defs = {
        n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    names: set[str] = set()
    todo = list(roots)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += [n for n in names if n in defs]
    return names


def test_gate_flags_an_oracle_that_reaches_the_closed_form():
    src = (
        "def oracle_table(u):\n    return _helper(u)\n\n"
        "def _helper(u):\n    return fock.relevant_norm_sq(u)\n\n"
        "def enumerate_table(u):\n    return same_detector_prob(u)\n"
    )
    assert reachable_names(src, ["oracle_table"]) & CLOSED_FORM == {"relevant_norm_sq"}


def test_fock_oracle_never_reaches_the_closed_form():
    found = reachable_names((SRC / "fock.py").read_text(), ORACLE_FUNCS)
    assert found & CLOSED_FORM == set()


def readers(source: str, name: str) -> set[str]:
    """Top-level definitions that read name, as a name or an attribute;
    "<module>" for a read outside any function or class."""
    tree = ast.parse(source)
    return {
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    }


def test_gate_flags_a_second_correction_path():
    src = (
        "from .graphstate import apply_local\n\n"
        "def _corrected(s, g):\n    return apply_local(s, g)\n\n"
        "def fuse(s, g):\n    def inner():\n        return graphstate.apply_local(s, g)\n"
        "    return inner()\n\n"
        "apply = apply_local\n"
    )
    assert readers(src, "apply_local") == {"_corrected", "fuse", "<module>"}


def test_protocols_apply_gates_only_in_corrected():
    # _corrected applies every gate, one state or a stack, through apply_local
    source = (SRC / "protocols.py").read_text()
    assert readers(source, "apply_local") == {"_corrected"}


def arange_over_shifts(source: str) -> list[int]:
    """Lines of the arange calls with a left shift anywhere in their arguments."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "arange"
        and any(
            isinstance(x, ast.BinOp) and isinstance(x.op, ast.LShift)
            for arg in node.args
            for x in ast.walk(arg)
        )
    )


def test_gate_flags_an_arange_bit_mask():
    src = (
        "idx = np.arange(1 << n)\n"
        "k = np.arange(n)\n"
        "m = 1 << n\n"
        "both = arange(0, 2 * (1 << n))\n"
    )
    assert arange_over_shifts(src) == [1, 4]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_arange_bit_masks(path):
    assert arange_over_shifts(path.read_text()) == []


# Calls that build or check one random unitary at a time. verify draws its
# ensembles per draw and builds and checks them per stack, so none of these
# may run once per loop iteration there. haar_unitary, the deleted one-draw
# builder, stays listed so that its return is flagged.
PER_DRAW_UNITARY_CALLS = {"haar_unitary", "ModeUnitary", "balanced_unitary", "constrained_unitary", "qr"}


def _loop_bodies(tree: ast.AST):
    """The parts of every loop that run once per iteration: the body of a
    for or while statement, a while test, a comprehension's element."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield from node.body
            if isinstance(node, ast.While):
                yield node.test
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            yield node.elt
        elif isinstance(node, ast.DictComp):
            yield from (node.key, node.value)


def per_draw_unitary_calls(source: str) -> list[int]:
    """Lines of the PER_DRAW_UNITARY_CALLS (by name or attribute, so
    np.linalg.qr too) inside a loop body."""
    return sorted(
        {
            node.lineno
            for body in _loop_bodies(ast.parse(source))
            for node in ast.walk(body)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in PER_DRAW_UNITARY_CALLS
        }
    )


def test_gate_flags_a_per_draw_unitary():
    src = (
        "us = [ModeUnitary(haar_unitary(n, rng)) for _ in range(k)]\n"
        "for i in range(k):\n"
        "    q, r = np.linalg.qr(z[i])\n"
        "    g = ginibre(n, rng)\n"
        "while not fock.haar_unitary(4, rng).any():\n"
        "    pass\n"
        "for u in [ModeUnitary(m)]:\n"
        "    check_unitary_rows(haar_stack(z))\n"
        "d = {i: balanced_unitary(rng) for i in range(3)}\n"
        "u = constrained_unitary(rng)\n"
    )
    assert per_draw_unitary_calls(src) == [1, 3, 5, 9]


def test_verify_builds_unitaries_per_stack():
    assert per_draw_unitary_calls((SRC / "verify.py").read_text()) == []


# Single-chain and single-state calls, and the closed forms that take (K,)
# arrays. verify runs each per-point protocol check, and cli each scan, as
# one stacked call over its grid or draws, so none of these may run once per
# loop iteration there.
PER_ROW_PROTOCOL_CALLS = {
    "create_logical_qubit",
    "logical_pair_stack",
    "fuse_type_i",
    "fuse_type_ii",
    "ghz_pair_projection",
    "ghz_pair_for_target_stack",
    "ghz_pair_range",
    "pair_weight_from_projection",
    "project_qubit",
    "apply_local",
    "fidelity_up_to_global_phase",
    "inner_z",
    "rez_formula",
    "hyperbola_projection",
    "solve_xi_for_weight",
    "xi_family_arg",
    "entanglement_report",
}

# The closed forms protocols itself calls on stacks: fuse_type_ii's z check
# and the GHZ pool each take every row in one call. protocols' per-gate loops
# (_corrected, _z_measure) apply gates once per correction, not per row, and
# are not held to this gate.
PROTOCOL_CLOSED_FORMS = {"inner_z", "rez_formula", "pair_weight_from_projection", "ghz_pair_range"}


def per_row_protocol_calls(source: str, names=PER_ROW_PROTOCOL_CALLS) -> list[int]:
    """Lines of the calls to names (by name or attribute) inside a loop body."""
    return sorted(
        {
            node.lineno
            for body in _loop_bodies(ast.parse(source))
            for node in ast.walk(body)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
        }
    )


def test_gate_flags_a_per_row_protocol_call():
    src = (
        "for chi in chis:\n"
        "    outs = create_logical_qubit(make_chain(labels, [chi]), 'c')\n"
        "outs = create_logical_qubit(stack, 'c')\n"
        "fids = [graphstate.fidelity_up_to_global_phase(s, t) for s, t in pairs]\n"
        "while not protocols.ghz_pair_for_target_stack([1.0], [1.0], [t]).any():\n"
        "    st = apply_local(project_qubit(ghz, q)[0], gate)\n"
        "outs = fuse_type_ii(left, pair, right, 'b')\n"
        "for t in targets:\n"
        "    x = xlike_probability_stack(stack, 'a')\n"
        "    y = ghz_pair_projection([t], [t], [0.5]) or fuse_type_i(left, 'a', right, 'b')\n"
    )
    assert per_row_protocol_calls(src) == [2, 4, 5, 6, 10]


def test_verify_runs_protocol_checks_per_stack():
    assert per_row_protocol_calls((SRC / "verify.py").read_text()) == []


def test_cli_runs_its_scans_per_stack():
    assert per_row_protocol_calls((SRC / "cli.py").read_text()) == []


def test_gate_flags_a_per_row_closed_form():
    src = (
        "for k, row in enumerate(chis.tolist()):\n"
        "    expect = inner_z(*row)\n"
        "expect = inner_z(*chis.T)\n"
        "rez = [protocols.rez_formula(c, -c) for c in grid]\n"
        "ok = [apply_local(rows, q, g) for g in gates]\n"
    )
    assert per_row_protocol_calls(src, PROTOCOL_CLOSED_FORMS) == [2, 4]


def test_protocols_runs_its_closed_forms_per_stack():
    assert per_row_protocol_calls((SRC / "protocols.py").read_text(), PROTOCOL_CLOSED_FORMS) == []


def small_float_literals(source: str) -> list[int]:
    """Lines of the float literals x with 0 < |x| < 1e-2: thresholds that
    belong in wgfusion.tolerances."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-2
    )


def test_gate_flags_a_small_float_literal():
    src = (
        "if abs(x) < 1e-12:\n"
        "    y = -1e-300\n"
        "z = 0.0 + 0.5 + 1e-2 + 10 ** -12\n"
        "w = f(tol=8.9e-16)\n"
    )
    assert small_float_literals(src) == [1, 2, 4]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "tolerances.py"], ids=lambda p: p.name
)
def test_thresholds_live_in_the_tolerance_table(path):
    assert small_float_literals(path.read_text()) == []


def unread_constants(table: str, sources: list[str]) -> list[str]:
    """Module-level constants of the table that none of the sources reads."""
    defined = {
        target.id
        for node in ast.parse(table).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_gate_flags_an_unread_tolerance():
    table = "USED = 1e-9\nATTR = 1e-6\nSTALE = 1e-10\nSHADOWED = 1e-3\n"
    sources = [
        "from .tolerances import USED\nok = x <= USED\n",
        "import tolerances\nSHADOWED = 2\nok = y <= tolerances.ATTR\n",
    ]
    assert unread_constants(table, sources) == ["SHADOWED", "STALE"]


def test_every_tolerance_has_a_reader():
    others = [p.read_text() for p in ALL_MODULES if p.name != "tolerances.py"]
    assert unread_constants((SRC / "tolerances.py").read_text(), others) == []


def unbound_exports(source: str) -> list[str]:
    """Names in the module's __all__ that no top-level import, def, class or assignment binds."""
    bound: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = list(ast.literal_eval(node.value))
    return sorted(set(exported) - bound)


def test_gate_flags_an_unbound_export():
    src = (
        "from .a import x, y as z\n"
        "def f():\n    gone = 1\n"
        "__all__ = ['x', 'z', 'f', 'y', 'gone']\n"
    )
    assert unbound_exports(src) == ["gone", "y"]


def test_every_export_is_bound():
    assert unbound_exports((SRC / "__init__.py").read_text()) == []


def exported_names(source: str) -> list[str]:
    """The module's __all__."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def loaded_names(source: str) -> set[str]:
    """Names the module reads, as a name or an attribute, outside the
    top-level definition of that very name: a function that calls itself
    is not its own reader."""
    read: set[str] = set()
    for stmt in ast.parse(source).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(stmt, "name", None))
        read |= names
    return read


def per_layer_pins(benchmark: dict) -> set[str]:
    """The function and class names that BENCHMARK.json's per-layer metrics
    ("layer.name.metric") pin."""
    return {m["name"].split(".")[1] for m in benchmark["per_layer"] if m["name"].count(".") == 2}


def attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def public_defs(source: str) -> list[str]:
    """The module-level functions and classes whose names do not start with _."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unread_exports(exports, package: list[str], pins: set[str], bench: set[str], allowed) -> list[str]:
    """Exports, and public functions and classes of the package modules, that
    no package module reads (outside their own definition), no per-layer pin
    names, bench does not read and allowed does not list."""
    public = set(exports).union(*(public_defs(source) for source in package))
    read = set().union(*(loaded_names(source) for source in package))
    return sorted(public - read - pins - bench - set(allowed))


# Public names with no reader in the package, no per-layer pin and no read
# in bench/workloads.py, each with what keeps it.
PUBLIC_WITHOUT_READER = {
    "type_i_matrix": "the planned check of the protocol fusions against the linear-optics "
    "networks (ROADMAP) is its reader",
    "type_ii_matrix": "the same planned linear-optics check is its reader",
    "attach_vertex": "test_build_state_recursion_matches_attach_vertex uses it as the "
    "reference for build_state",
    "type_i_marginal": "the same planned linear-optics check reads it to marginalize the "
    "Type-I network over its undetected modes",
}


def test_gate_flags_an_unread_export():
    package = [
        "def _early():\n    return late()\n\n\ndef late():\n    return 1\n\n\n"
        "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1) if n else 0\n",
        "from .a import used\n\nVALUE = used()\n\n\ndef pinned():\n    \"\"\"recursive, benched\"\"\"\n",
    ]
    exports = ["used", "recursive", "pinned", "benched", "kept"]
    got = unread_exports(exports, package, {"pinned"}, {"benched"}, {"kept": "a reason"})
    assert got == ["recursive"]
    # a public function nobody exports or reads is flagged, a private one is
    # not, and a read in an earlier definition counts (late)
    package.append("def orphan():\n    return 2\n\n\nclass _Private:\n    pass\n")
    assert public_defs(package[-1]) == ["orphan"]
    assert unread_exports([], package, set(), set(), {}) == ["orphan", "pinned", "recursive"]
    bench = "out = protocols.benched(x).label\nbenched_too = 1\n"
    assert attribute_reads(bench) == {"benched", "label"}
    metrics = {"per_layer": [{"name": "protocols.pinned.calls"}, {"name": "fock.self_s"}]}
    assert per_layer_pins(metrics) == {"pinned"}


def test_every_export_has_a_reader():
    # strict both ways: an allowed name that gains a reader leaves the list
    exports = exported_names((SRC / "__init__.py").read_text())
    package = [path.read_text() for path in MODULES]
    pins = per_layer_pins(json.loads((ROOT / "BENCHMARK.json").read_text()))
    bench = attribute_reads((ROOT / "bench" / "workloads.py").read_text())
    assert unread_exports(exports, package, pins, bench, {}) == sorted(PUBLIC_WITHOUT_READER)


def stacked_twins(pins: set[str], public: set[str]) -> list[tuple[str, str]]:
    """(pin, twin) for every public twin of a pin: "<pin>_stack", or the
    pin's first word with "_rows", "_stack" or "_table" (apply_local and
    apply_rows). Each is a second function for a step that the pinned name
    already computes."""
    return sorted(
        (pin, twin)
        for pin in pins
        for twin in {f"{pin}_stack"} | {f"{pin.split('_')[0]}_{s}" for s in ("rows", "stack", "table")}
        if twin in public and twin != pin
    )


# Per-layer pins that keep a public stacked twin, each with its reason.
PINS_WITH_A_TWIN = {
    "make_chain": "make_chain drops a zero-weight edge, which make_chain_stack's weight_rows "
    "refuses, and bench calls make_chain with 1-D weight lists",
    "enumerate_outcomes": "bench's tracer counts detector patterns as the length of the list "
    "enumerate_outcomes returns (PATTERN_FUNCS), which enumerate_table does not return",
    "oracle_enumerate": "the same PATTERN_FUNCS count reads the list oracle_enumerate returns, "
    "which oracle_table does not return",
}


def test_gate_flags_a_stacked_twin_of_a_pin():
    public = {"fuse_it", "fuse_it_stack", "build_stack", "probe_rows", "scan_table", "scan_x_table"}
    pins = {"fuse_it", "build_one", "probe_one", "scan_x", "other"}
    assert stacked_twins(pins, public) == [
        ("build_one", "build_stack"),  # <first word>_stack
        ("fuse_it", "fuse_it_stack"),  # <pin>_stack
        ("probe_one", "probe_rows"),  # <first word>_rows
        ("scan_x", "scan_table"),  # <first word>_table
    ]
    assert stacked_twins({"probe_rows"}, public) == []  # a pin is not its own twin
    assert stacked_twins(set(), public) == []


def test_no_per_layer_pin_has_a_stacked_twin():
    # strict both ways: an exempt pin whose twin is gone leaves the list
    package = [path.read_text() for path in MODULES]
    public = set(exported_names((SRC / "__init__.py").read_text())).union(*map(public_defs, package))
    pins = per_layer_pins(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert stacked_twins(pins - set(PINS_WITH_A_TWIN), public) == []
    assert {pin for pin, _ in stacked_twins(set(PINS_WITH_A_TWIN) & pins, public)} == set(PINS_WITH_A_TWIN)


CHAIN_TYPES = {"ChainState", "ChainStack"}


def chain_dispatch(source: str) -> list[int]:
    """Lines of a ChainState | ChainStack union and of an isinstance test
    against either chain type: a ChainState is the one-row ChainStack, so
    nothing may branch on which of the two it holds."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            if CHAIN_TYPES <= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if CHAIN_TYPES & classes:
                lines.add(node.lineno)
    return sorted(lines)


def test_gate_flags_a_chain_dispatch():
    src = (
        "def f(c: ChainState | ChainStack, d: ChainStack | None) -> ChainStack:\n"
        "    if isinstance(c, ChainStack):\n"
        "        return c\n"
        "    x: int | None = isinstance(d, int)\n"
        "    return isinstance(c, (int, ChainState))\n"
    )
    assert chain_dispatch(src) == [1, 2, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_chain_dispatch(path):
    assert chain_dispatch(path.read_text()) == []
