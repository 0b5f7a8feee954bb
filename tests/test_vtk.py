"""Legacy VTK export: the block formatting is the per-value formatting."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from bfdarcy import generate_stacked_rect, heterogeneous_flow_problem, newton_solve, vtk


def per_value_rows(rows, fmt="%.9e"):
    """Reference formatter: one f-string or str() per value."""
    rows = np.asarray(rows)
    if fmt == "%d":
        return "\n".join(" ".join(str(i) for i in row) for row in rows)
    assert fmt == "%.9e"
    return "\n".join(" ".join(f"{v:.9e}" for v in row) for row in rows)


def test_block_formatting_matches_per_value_formatting():
    rows = np.array(
        [
            [-0.0, 0.0, 1.0],
            [1.5e-300, -2.25e+250, 3.0e-100],
            [np.pi, -np.e, 123456789.123456789],
            [np.nan, np.inf, -np.inf],
        ]
    )
    assert vtk._format_rows(rows) == per_value_rows(rows)
    assert "-0.000000000e+00" in vtk._format_rows(rows)
    assert "-2.250000000e+250" in vtk._format_rows(rows)
    ints = np.array([[3, 0, 17, 123456], [3, -1, 2, 5]], dtype=np.intc)
    assert vtk._format_rows(ints, "%d") == per_value_rows(ints, "%d")
    assert vtk._format_rows(np.empty((0, 3))) == per_value_rows(np.empty((0, 3))) == ""


@pytest.fixture(scope="module")
def channel_fields():
    params, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
    mesh = generate_stacked_rect(rect_B, rect_D, 8, 4, 4)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged
    return fields


def write_pair(fields, directory):
    grid, lam = directory / "solve.vtk", directory / "solve_multiplier.vtk"
    vtk.write_solution_vtk(grid, fields)
    vtk.write_multiplier_vtk(lam, fields)
    return grid.read_bytes(), lam.read_bytes()


def extreme_values(fields):
    """The solved fields with -0.0 and three-digit exponents in every block."""
    x = fields.x.copy()
    d = fields.dofmap
    for start in (0, d.off_uD, d.off_p, d.off_lam):
        x[start : start + 3] = [-0.0, 1.0e-300, -2.5e+200]
    return replace(fields, x=x)


@pytest.mark.parametrize("case", ["solved", "extremes"])
def test_vtk_files_match_a_per_value_reference(case, channel_fields, tmp_path, monkeypatch):
    fields = channel_fields if case == "solved" else extreme_values(channel_fields)
    (tmp_path / "block").mkdir()
    (tmp_path / "reference").mkdir()
    block = write_pair(fields, tmp_path / "block")
    monkeypatch.setattr(vtk, "_format_rows", per_value_rows)
    reference = write_pair(fields, tmp_path / "reference")
    assert block == reference
    if case == "extremes":
        assert b"-0.000000000e+00" in block[0] and b"e+200" in block[0]
        assert b"-0.000000000e+00" in block[1] and b"e-300" in block[1]
