"""Outside-in span tracer for the six wgfusion layers.

The tracer changes nothing under ``src/``. ``install`` wraps every function
defined at module level in graphstate, fock, protocols, analysis, verify and
cli, then rebinds every module-level reference to it: the defining module,
the modules that imported it with ``from .x import y``, the package
namespace and module-level lists such as ``verify.ALL_CHECKS``. Code that
resolves the name at call time therefore goes through the wrapper.

Each wrapper records one span (function, parent span, start, end) in memory.
Self time is span time minus the time covered by child spans, so the self
times of all spans under a root span sum to the root's duration.
``PureState`` and ``ChainState`` constructions are counted by wrapping
their ``__post_init__``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "wgfusion"
LAYERS = ("graphstate", "fock", "protocols", "analysis", "verify", "cli")
ROOT_LAYER = "bench"
# fock functions whose return value is the list of detector patterns
PATTERN_FUNCS = ("fock.enumerate_outcomes", "fock.oracle_enumerate")
COUNTED_CLASSES = (("graphstate", "PureState"), ("protocols", "ChainState"))


class Tracer:
    """Spans and counters for one process; ``install`` and ``uninstall`` may alternate."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[str] = []
        self.stats: list[list[float]] = []  # function id -> [calls, self_s, total_s]
        self.spans: list[list] = []  # [function id, parent span, start, end]
        self.stack: list[list] = []  # [span index, child seconds]
        self.depth = {layer: 0 for layer in LAYERS + (ROOT_LAYER,)}
        self.constructed = {f"{m}.{c}": 0 for m, c in COUNTED_CLASSES}
        self.purestates_in_fock = 0
        self.patterns = 0
        self._sites: list[tuple] = []  # (module, list or class; key; original; wrapper)
        root = self._register(f"{ROOT_LAYER}.pass", ROOT_LAYER)
        # run_root(body) calls body() inside the harness's own root span
        self.run_root = self._wrap(lambda body: body(), root, False)

    # -- installation -----------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.stats.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def _wrap(self, fn, fid: int, count_patterns: bool):
        spans, stack, stats, depth = self.spans, self.stack, self.stats, self.depth
        layer = self.layer_of[fid]
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, stack[-1][0] if stack else -1, 0.0, 0.0])
            stack.append([idx, 0.0])
            depth[layer] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                if count_patterns:
                    self.patterns += len(out)
                return out
            finally:
                t1 = perf()
                depth[layer] -= 1
                _, child = stack.pop()
                dur = t1 - t0
                st = stats[fid]
                st[0] += 1
                st[1] += dur - child
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
                rec = spans[idx]
                rec[2], rec[3] = t0, t1

        return wrapper

    def install(self) -> None:
        """Rebind every reference to the wrappers (built on the first call)."""
        if not self._sites:
            self._sites = self._find_sites()
        for target, key, _, wrapper in self._sites:
            _assign(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._sites:
            _assign(target, key, original)

    def _find_sites(self) -> list[tuple]:
        pkg = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and id(val) not in wrapped:
                    name = f"{layer}.{attr}"
                    fid = self._register(name, layer)
                    wrapped[id(val)] = self._wrap(val, fid, name in PATTERN_FUNCS)
        sites = []
        for mod in (pkg, *modules.values()):
            for attr, val in vars(mod).items():
                if id(val) in wrapped:
                    sites.append((mod, attr, val, wrapped[id(val)]))
                elif isinstance(val, list):
                    sites += [(val, i, f, wrapped[id(f)]) for i, f in enumerate(val) if id(f) in wrapped]
        for layer, cls_name in COUNTED_CLASSES:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__post_init__
            sites.append((cls, "__post_init__", orig, self._counting_post_init(orig, f"{layer}.{cls_name}")))
        return sites

    def _counting_post_init(self, orig, key: str):
        counts, depth = self.constructed, self.depth
        in_fock = key == "graphstate.PureState"

        def __post_init__(obj):
            counts[key] += 1
            if in_fock and depth["fock"]:
                self.purestates_in_fock += 1
            return orig(obj)

        return __post_init__

    # -- measurement ------------------------------------------------------

    def reset(self) -> None:
        """Drop spans and zero every counter (between traced passes)."""
        self.spans.clear()
        for st in self.stats:
            st[0], st[1], st[2] = 0, 0.0, 0.0
        for key in self.constructed:
            self.constructed[key] = 0
        self.purestates_in_fock = 0
        self.patterns = 0

    def totals(self) -> dict:
        """Per-function and per-layer counts and self times, plus the counters."""
        out: dict[str, float] = {}
        for layer in LAYERS + (ROOT_LAYER,):
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for fid, (calls, self_s, total_s) in enumerate(self.stats):
            name, layer = self.names[fid], self.layer_of[fid]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
        for key, n in self.constructed.items():
            out[f"{key}.constructed"] = n
        out["fock.purestates_per_pattern"] = (
            self.purestates_in_fock / self.patterns if self.patterns else 0.0
        )
        return out

    def dump(self, path: str) -> None:
        """Write the spans of the current pass as columnar JSON."""
        doc = {
            "functions": self.names,
            "columns": ["function", "parent", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))



def _assign(target, key, value) -> None:
    if isinstance(target, list):
        target[key] = value
    else:
        setattr(target, key, value)
