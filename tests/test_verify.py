from __future__ import annotations

from wgfusion.verify import run_all


def test_every_residual_is_a_python_float():
    for r in run_all(quick=True):
        assert type(r.max_residual) is float, f"{r.name}: {type(r.max_residual)}"
