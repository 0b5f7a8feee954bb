"""Direct linear solver and Newton iteration tests."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import SuperLU, splu, spsolve

from bfdarcy import (
    PhysicalParams,
    SingularSystemError,
    SolverError,
    NewtonSystem,
    apply_constraints,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    interface_flux_residual,
    manufactured_problem,
    newton_solve,
    prescribed_values,
    pressure_mean,
)
from bfdarcy import solver
from bfdarcy.assembly import Workspace, zero_scalar
from bfdarcy.mesh import _build_topology
from bfdarcy.solver import (
    HOLD_INCREMENT,
    LU_RESIDUAL_TOL,
    REFINE_TOL,
    NewtonOptions,
)

from oracles import x_graded

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


def manufactured(nx=4, forchheimer=10.0, power=3.0):
    params = PhysicalParams(
        mu=1.0, forchheimer=forchheimer, power=power, K_B=1.0, K_D=0.1
    )
    exact, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, nx, nx, nx)
    return mesh, params, data


def channel(nx=8, forchheimer=10.0):
    params, data, (rect_B, rect_D) = heterogeneous_flow_problem(forchheimer)
    mesh = generate_stacked_rect(rect_B, rect_D, nx, nx // 2, nx // 2)
    return mesh, params, data


# ------------------------------------------------------------- sparse LU


def refined_solve(A, b):
    """Factor A with LUFactor and refine on it: (x, normalized residual,
    refinement steps, factor)."""
    factor = solver.LUFactor(A)
    norm = solver._norm_inf(sp.csc_matrix(A))
    x, res, steps = solver._refine(factor, lambda x: A @ x - b, b, norm)
    return x, res, steps, factor


def test_lu_solves_the_identity():
    A = sp.eye(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(solver.LUFactor(A).solve(b), b, atol=1e-15)


def test_lu_handles_a_zero_diagonal():
    # requires pivoting: the matrix swaps the two unknowns
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = solver.LUFactor(A).solve(np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-15)


def test_lu_matches_dense_solve_on_a_saddle_block():
    rng = np.random.default_rng(42)
    n, m = 160, 40
    K = rng.normal(size=(n, n))
    K = K @ K.T + n * np.eye(n)  # SPD leading block
    B = rng.normal(size=(m, n))
    A = np.block([[K, B.T], [B, np.zeros((m, m))]])
    b = rng.normal(size=n + m)

    x, res, _, _ = refined_solve(sp.csr_matrix(A), b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert res <= LU_RESIDUAL_TOL


def test_lu_rejects_singular_matrices():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        solver.LUFactor(A)
    # a structurally empty row as well
    A = sp.lil_matrix((3, 3))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    with pytest.raises(SingularSystemError):
        solver.LUFactor(A.tocsr())


def test_lu_reports_whether_refinement_ran(monkeypatch):
    # A factor of 1.000001 A leaves a first residual far above the bound;
    # refinement with it brings the residual below REFINE_TOL.
    rng = np.random.default_rng(4)
    A = sp.csr_matrix(rng.normal(size=(40, 40)) + 40.0 * np.eye(40))
    b = rng.normal(size=40)
    _, res, steps, _ = refined_solve(A, b)
    assert steps == 0 and res <= LU_RESIDUAL_TOL

    monkeypatch.setattr(
        solver, "splu", lambda M, **kwargs: splu(sp.csc_matrix(M * (1.0 + 1e-6)), **kwargs)
    )
    x, res, steps, _ = refined_solve(A, b)
    assert steps >= 1 and res <= REFINE_TOL
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-10)


def test_lu_error_is_a_solver_error():
    assert issubclass(SingularSystemError, SolverError)


def test_lu_rejects_a_nan_residual(monkeypatch):
    # Factors of the finite reduced block give a finite x for a system
    # with a NaN entry in that block, so only the residual shows the
    # fault: with a held factor, and with fresh factors only.
    disc, A, b, static, x_R = newton_system(channel)
    clean = static.reduced(A)
    held = solver.sparse_lu_solve(A, b, static, x_R).factor
    pos = disc.layout.rr_pos
    A.data[pos[pos < A.data.size][0]] = np.nan
    monkeypatch.setattr(solver, "splu", lambda M, **kwargs: splu(clean, **kwargs))
    with pytest.raises(SolverError, match="residual nan"):
        solver.sparse_lu_solve(A, b, static, x_R, held)
    assert held.lu is None
    with pytest.raises(SolverError, match="residual nan"):
        solver.sparse_lu_solve(A, b, static, x_R)


def test_gauge_solve_matches_the_factored_bordered_system():
    # F = 0 makes the problem affine: newton_solve performs exactly one
    # linear solve, so its result is the solution of the free system,
    # whose gauge row and column border the pressures.
    mesh, params, data = manufactured(nx=8, forchheimer=0.0)
    fields, report = newton_solve(mesh, params, data)
    dofmap = fields.dofmap
    assert dofmap.gauge_dof >= 0

    ws = Workspace(mesh, fields.interface, dofmap, fields.quad_degree)
    values, rhs = NewtonSystem(params, data, ws).at(fields.x)
    A, b = apply_constraints(ws, values, rhs, fields.x)
    x_ref = spsolve(sp.csc_matrix(A), b)

    x = fields.x[ws.free]
    assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
    assert abs(pressure_mean(fields)) <= 1e-12
    res = np.abs(A @ x - b).max() / (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    assert res <= LU_RESIDUAL_TOL
    assert report.linear_residuals[0] <= LU_RESIDUAL_TOL


# ---------------------------------------------------------------- Newton


def test_linear_problem_needs_one_iteration():
    mesh, params, data = manufactured(forchheimer=0.0)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged
    assert report.iterations == 1
    assert report.increments == [0.0]
    assert "converged in 1 iterations" in str(report)


def test_newton_converges_quadratically_fast():
    mesh, params, data = manufactured(forchheimer=10.0)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged
    assert 3 <= report.iterations <= 4
    assert report.increments[-1] <= 1.0e-6
    # increments fall strictly after the first correction
    assert all(b < a for a, b in zip(report.increments[1:], report.increments[2:]))


def test_newton_respects_the_tolerance_option():
    mesh, params, data = manufactured(forchheimer=10.0)
    _, loose = newton_solve(mesh, params, data, NewtonOptions(tol=1e-2))
    _, tight = newton_solve(mesh, params, data, NewtonOptions(tol=1e-10))
    assert loose.iterations < tight.iterations
    assert tight.increments[-1] <= 1e-10


def test_newton_reports_failure_when_iterations_run_out():
    mesh, params, data = manufactured(forchheimer=1.0e3)
    fields, report = newton_solve(mesh, params, data, NewtonOptions(max_iter=2))
    assert not report.converged
    assert report.iterations == 2
    assert "NOT converged" in str(report)


@pytest.mark.parametrize(
    "options", [dict(max_iter=0), dict(max_iter=-3), dict(tol=0.0), dict(tol=-1e-6),
                dict(tol=float("nan"))],
)
def test_newton_rejects_options_out_of_range(options):
    mesh, params, data = manufactured(forchheimer=0.0)
    with pytest.raises(ValueError, match="max_iter|tol"):
        newton_solve(mesh, params, data, NewtonOptions(**options))


def test_newton_solution_zeroes_the_nonlinear_residual():
    mesh, params, data = manufactured(forchheimer=10.0, power=3.5)
    disc = solver.Discretization.build(mesh, data)
    _, report = newton_solve(disc, params, data, NewtonOptions(tol=1e-12))
    assert report.converged
    assert report.final_residual < 1e-10


@pytest.mark.parametrize("degree", [4, 8])
def test_nonlinear_residual_uses_the_quadrature_of_the_solve(degree):
    mesh, params, data = channel(nx=8, forchheimer=10.0)
    disc = solver.Discretization.build(mesh, data, quad_degree=degree)
    fields, report = newton_solve(disc, params, data)
    assert report.converged
    assert report.final_residual < 1e-10
    assert fields.quad_degree == degree


@pytest.mark.parametrize("nx", [8, 16])
@pytest.mark.parametrize("power", [3.0, 3.5, 4.0])
def test_settled_newton_steps_have_order_two(nx, power):
    """The observed order log(e_k+1 / e_k) / log(e_k / e_k-1) of the
    increments, once the iteration has settled (e_k-1 <= HOLD_INCREMENT)
    and above round-off (e_k+1 >= 1e-12), is near two: a Jacobian that
    is consistent only to first order makes it one."""
    mesh, params, data = manufactured(nx=nx, forchheimer=10.0, power=power)
    _, report = newton_solve(mesh, params, data, NewtonOptions(tol=1e-12))
    assert report.converged
    e = report.increments
    orders = [
        np.log(e[k + 1] / e[k]) / np.log(e[k] / e[k - 1])
        for k in range(1, len(e) - 1)
        if e[k - 1] <= HOLD_INCREMENT and e[k + 1] >= 1e-12
    ]
    assert orders and min(orders) >= 1.8, f"increments {e}, orders {orders}"


def test_newton_solution_is_initial_guess_independent():
    mesh, params, data = manufactured(forchheimer=100.0)
    f1, r1 = newton_solve(mesh, params, data, NewtonOptions(initial=(0.1, 0.0)))
    f2, r2 = newton_solve(mesh, params, data, NewtonOptions(initial=(-0.4, 0.2)))
    assert r1.converged and r2.converged
    nv = f1.dofmap.n_uB + f1.dofmap.n_uD
    # both runs end in the same basin: velocities agree to solver tolerance
    assert np.abs(f1.x[:nv] - f2.x[:nv]).max() < 1e-7


def test_report_records_lu_fill_per_iteration():
    mesh, params, data = manufactured(forchheimer=10.0)
    _, report = newton_solve(mesh, params, data)
    n = report.iterations
    assert len(report.lu_nnz) == len(report.linear_residuals) == n
    assert len(report.refinements) == len(report.factored) == n
    assert all(isinstance(k, int) and k > 0 for k in report.lu_nnz)
    assert isinstance(report.darcy_lu_nnz, int) and report.darcy_lu_nnz > 0
    # The first two increments are large, so both iterations factor and
    # their first solve meets the bound; the settled iterations reuse the
    # second factor, refining with it.
    assert report.factored == [True, True, False, False]
    assert report.refinements[:2] == [0, 0]
    assert all(isinstance(k, int) and k >= 1 for k in report.refinements[2:])
    assert report.lu_nnz[2:] == [report.lu_nnz[1]] * 2
    assert all(r <= LU_RESIDUAL_TOL for r in report.linear_residuals)


def test_report_records_the_step_residuals():
    # The normalized residual of each step's reduced system at the
    # iterate it starts from: the nonlinear residual falls with Newton.
    mesh, params, data = manufactured(nx=8, forchheimer=10.0)
    disc = solver.Discretization.build(mesh, data)
    fields, report = newton_solve(disc, params, data)
    assert report.converged and len(report.step_residuals) == report.iterations
    assert all(np.isfinite(r) and r > 0.0 for r in report.step_residuals)
    assert report.step_residuals[-1] <= 1e-6 * report.step_residuals[0]
    # At the solution it is what _normalized gives on its reduced system.
    ws = disc.workspace
    A, b = apply_constraints(ws, *NewtonSystem(params, data, ws).at(fields.x), fields.x)
    static = solver.StaticSystem.build(disc, params, data)
    K, rhs = static.reduced(A), static.reduced_rhs(b)
    x_R = fields.x[ws.free][disc.layout.free_R]
    out = solver.sparse_lu_solve(A, b, static, x_R)
    assert out.step_residual == solver._normalized(K @ x_R - rhs, x_R, rhs, solver._norm_inf(K))


def free_darcy_count(dofmap):
    """Free u_D plus p_D unknowns: the Darcy block the solve eliminates."""
    c = dofmap.constrained
    n_fixed_uD = np.count_nonzero((c >= dofmap.off_uD) & (c < dofmap.off_p))
    return dofmap.n_uD - n_fixed_uD + dofmap.rt.tri_ids.size


def recording_splu(monkeypatch, calls=None):
    """Record every matrix the solver factors, and in ``calls`` the
    keyword arguments of each factor call."""
    seen = []

    def spy(M, **kwargs):
        seen.append(M)
        if calls is not None:
            calls.append(kwargs)
        return splu(M, **kwargs)

    monkeypatch.setattr(solver, "splu", spy)
    return seen


def is_ordered(kwargs):
    """Whether a factor call is the ordered one with diagonal pivots."""
    return kwargs.get("permc_spec") == "NATURAL" and kwargs.get("diag_pivot_thresh") == 0.0


def is_tight(kwargs):
    """Whether a factor call carries the module's supernode settings."""
    return (kwargs.get("relax"), kwargs.get("panel_size")) == (
        solver.SUPERLU_RELAX, solver.SUPERLU_PANEL_SIZE
    )


def unordered(kwargs):
    """The keywords of a factor call without those of the ordered one."""
    return {k: v for k, v in kwargs.items() if k not in ("permc_spec", "diag_pivot_thresh", "options")}


def check_factors(report, seen, calls, dofmap):
    """The Darcy block is factored once per solve with partial pivoting,
    the reduced block once per iteration that factored, on one fixed CSC
    pattern, in its own order with diagonal pivots and no fallback; an
    iteration that reused a factor reports the fill of the last one."""
    n_D = free_darcy_count(dofmap)
    n = dofmap.n_free - n_D + (1 if dofmap.gauge_dof >= 0 else 0)
    assert len(seen) == len(calls) == 1 + sum(report.factored)
    assert report.factored[0]
    darcy, reduced = seen[0], seen[1:]
    assert darcy.shape == (n_D, n_D) and not is_ordered(calls[0])
    assert all(is_ordered(kwargs) for kwargs in calls[1:])
    assert all(is_tight(kwargs) for kwargs in calls)
    for M in reduced:
        assert M.format == "csc" and M.shape == (n, n)
        np.testing.assert_array_equal(M.indptr, reduced[0].indptr)
        np.testing.assert_array_equal(M.indices, reduced[0].indices)
    fills = iter(int(splu(M, **kwargs).nnz) for M, kwargs in zip(reduced, calls[1:]))
    used = []
    for factored in report.factored:
        used.append(next(fills) if factored else used[-1])
    assert report.lu_nnz == used
    assert report.darcy_lu_nnz == int(splu(darcy, **calls[0]).nnz)


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_newton_factors_only_the_free_dofs_on_one_pattern(problem, monkeypatch):
    mesh, params, data = problem()
    calls = []
    seen = recording_splu(monkeypatch, calls)
    fields, report = newton_solve(mesh, params, data)
    assert report.iterations >= 3
    check_factors(report, seen, calls, fields.dofmap)


def test_channel_reuses_a_factor_on_one_pattern(monkeypatch):
    mesh, params, data = channel(nx=16, forchheimer=1e3)
    calls = []
    seen = recording_splu(monkeypatch, calls)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged and not all(report.factored)
    check_factors(report, seen, calls, fields.dofmap)
    for factored, steps in zip(report.factored, report.refinements):
        if not factored:
            assert 1 <= steps <= solver.REFINE_MAX_STEPS
    assert all(r <= LU_RESIDUAL_TOL for r in report.linear_residuals)


@pytest.mark.parametrize(
    "problem, nx, forchheimer, bound",
    [(manufactured, 8, 1e3, 1e-9), (channel, 8, 1e3, 1e-9), (channel, 16, 1e4, 1e-13)],
    ids=["gauge", "mixed", "mixed-16"],
)
def test_held_factors_leave_the_iterates_unchanged(problem, nx, forchheimer, bound, monkeypatch):
    # HOLD_INCREMENT = 0 holds no factor: every iteration factors.  Held
    # steps refine the correction from the iterate, so on the mixed
    # channel they match fresh ones to round-off; the gauge pressure's
    # conditioning sets the gauge case's drift.
    mesh, params, data = problem(nx=nx, forchheimer=forchheimer)
    disc = solver.Discretization.build(mesh, data)
    fields, report = newton_solve(disc, params, data)
    assert not all(report.factored)
    monkeypatch.setattr(solver, "HOLD_INCREMENT", 0.0)
    ref_fields, ref_report = newton_solve(disc, params, data)
    assert all(ref_report.factored) and ref_report.refinements == [0] * ref_report.iterations
    assert report.iterations == ref_report.iterations
    assert np.abs(fields.x - ref_fields.x).max() <= bound * np.abs(ref_fields.x).max()


def test_a_step_holds_the_factor_exactly_while_its_increment_is_small(monkeypatch):
    # The held factor a step passes on is the one the previous step
    # returned when that step's increment is at most HOLD_INCREMENT, and
    # None otherwise.
    mesh, params, data = channel(nx=16, forchheimer=1e4)
    calls = []
    sparse_lu_solve = solver.sparse_lu_solve

    def spy(A, b, static, iterate, held=None):
        out = sparse_lu_solve(A, b, static, iterate, held)
        calls.append((held, out.factor))
        return out

    monkeypatch.setattr(solver, "sparse_lu_solve", spy)
    _, report = newton_solve(solver.Discretization.build(mesh, data), params, data)
    assert report.converged and len(calls) == report.iterations
    small = [inc <= solver.HOLD_INCREMENT for inc in report.increments[:-1]]
    assert any(small) and not all(small)
    assert calls[0][0] is None
    for (_, returned), (held, _), hold in zip(calls, calls[1:], small):
        assert held is (returned if hold else None)


def test_refinement_from_the_iterate_needs_fewer_corrections():
    # A held factor is one of the Jacobian at an earlier iterate.  From
    # an iterate x_k near the solution, refining the correction meets
    # REFINE_TOL in fewer steps than refining from M^-1 rhs: the error
    # left to remove is the size of the increment, not of the solution.
    mesh, params, data = channel(nx=8, forchheimer=1e3)
    disc = solver.Discretization.build(mesh, data)
    ws, free_R = disc.workspace, disc.layout.free_R
    static = solver.StaticSystem.build(disc, params, data)
    fields, _ = newton_solve(disc, params, data, linear=static)
    system = NewtonSystem(params, data, ws)
    velocity = ws.free[ws.free < disc.dofmap.n_uB]

    def near(scale):
        x = fields.x.copy()
        x[velocity] *= scale
        A, b = apply_constraints(ws, *system.at(x), x)
        return x[ws.free][free_R], static.reduced(A), static.reduced_rhs(b)

    _, K_old, _ = near(1.02)
    x_k, K, rhs = near(1.002)
    held = solver.LUFactor(K_old)
    norm = solver._norm_inf(K)

    def residual(x):
        return K @ x - rhs

    r_k = residual(x_k)
    start = (x_k, solver._normalized(r_k, x_k, rhs, norm), r_k)
    x_cold, res_cold, cold = solver._refine(held, residual, rhs, norm)
    x_warm, res_warm, warm = solver._refine(held, residual, rhs, norm, start)
    assert res_cold <= REFINE_TOL and res_warm <= REFINE_TOL
    assert 1 <= warm < cold
    x_ref = solver.LUFactor(K).solve(rhs)
    for x in (x_cold, x_warm):
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


def newton_system(problem, nx=8, forchheimer=1e3, seed=5):
    """One Newton system with a Forchheimer block at a random iterate, the
    StaticSystem of its solve and the iterate's reduced unknowns."""
    mesh, params, data = problem(nx=nx, forchheimer=forchheimer)
    disc = solver.Discretization.build(mesh, data)
    ws, dofmap = disc.workspace, disc.dofmap
    x = np.random.default_rng(seed).normal(size=dofmap.n_total)
    x[dofmap.constrained] = prescribed_values(dofmap, mesh, data)
    A, b = apply_constraints(ws, *NewtonSystem(params, data, ws).at(x), x)
    return disc, A, b, solver.StaticSystem.build(disc, params, data), x[ws.free][disc.layout.free_R]


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_a_failing_held_factor_falls_back_to_a_fresh_factor(problem):
    disc, A, b, static, x_R = newton_system(problem)
    fresh = solver.sparse_lu_solve(A, b, static, x_R)
    assert fresh.factored and fresh.refinements == 0
    factor = fresh.factor

    # The factor of the same system serves at once.
    again = solver.sparse_lu_solve(A, b, static, x_R, factor)
    assert not again.factored and again.factor is factor
    assert again.lu_nnz == fresh.lu_nnz
    assert np.abs(again.x - fresh.x).max() <= 1e-12 * np.abs(fresh.x).max()

    # A factor of three times the matrix cuts the residual by less than
    # REFINE_MIN_RATE per step: the solve releases it and factors anew,
    # from the start, so the result is the fresh solve's.
    bad = solver.LUFactor(3.0 * static.reduced(A))
    out = solver.sparse_lu_solve(A, b, static, x_R, bad)
    assert out.factored and out.factor is not bad and out.refinements >= 1
    assert bad.lu is None
    np.testing.assert_array_equal(out.x, fresh.x)
    assert out.residual == fresh.residual and out.lu_nnz == fresh.lu_nnz


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_an_inaccurate_ordered_factor_falls_back_to_partial_pivoting(problem, monkeypatch):
    disc, A, b, static, x_R = newton_system(problem)
    # The reference: the ordered call factors with partial pivoting, on
    # the same supernodes, and that factor serves at once.
    monkeypatch.setattr(solver, "splu", lambda M, **kwargs: splu(M, **unordered(kwargs)))
    ref = solver.sparse_lu_solve(A, b, static, x_R)
    assert ref.factored and ref.refinements == 0

    # An ordered factor of three times the matrix cuts the residual by
    # less than REFINE_MIN_RATE per step: the solve releases it and
    # factors with partial pivoting, from the start.
    made, released = [], []
    release = solver.LUFactor.release

    def spy_release(factor):
        released.append(factor)
        release(factor)

    def three_times(M, **kwargs):
        made.append(is_ordered(kwargs))
        return splu(3.0 * M, **kwargs) if is_ordered(kwargs) else splu(M, **kwargs)

    monkeypatch.setattr(solver.LUFactor, "release", spy_release)
    monkeypatch.setattr(solver, "splu", three_times)
    out = solver.sparse_lu_solve(A, b, static, x_R)
    assert made == [True, False]
    assert len(released) == 1 and released[0].lu is None and released[0] is not out.factor
    assert out.factored and out.refinements >= 1
    np.testing.assert_array_equal(out.x, ref.x)
    assert out.residual == ref.residual and out.lu_nnz == ref.lu_nnz


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_the_condensed_layout_pairs_each_pressure_with_a_bubble(problem):
    mesh, params, data = problem()
    disc = solver.Discretization.build(mesh, data)
    ws, dof, lo = disc.workspace, disc.dofmap, disc.layout
    reduced = np.ones(ws.free.size, dtype=bool)
    reduced[lo.free_D] = False
    np.testing.assert_array_equal(np.sort(lo.free_R), np.flatnonzero(reduced))
    order = ws.free[lo.free_R]
    # The gauge, if any, then the multipliers come last, and they are
    # exactly the reduced rows that meet the Darcy set.
    last = np.concatenate([[dof.gauge_dof] if dof.gauge_dof >= 0 else [],
                           dof.off_lam + np.arange(dof.n_lam)]).astype(int)
    np.testing.assert_array_equal(order[-last.size:], last)
    np.testing.assert_array_equal(lo.coupled, order.size - last.size + np.arange(last.size))
    n = ws.free.size
    pattern = sp.csr_matrix((np.ones(ws.ff_indices.size), ws.ff_indices, ws.ff_indptr), shape=(n, n))
    meets = pattern[lo.free_R][:, lo.free_D].getnnz(axis=1) > 0
    np.testing.assert_array_equal(np.flatnonzero(meets), lo.coupled)
    # Each Brinkman pressure right after a bubble of its own triangle.
    at = np.empty(dof.n_total, dtype=int)
    at[order] = np.arange(order.size)
    before = order[at[ws.p_dof_B] - 1]
    assert (before[:, None] == dof.br.l2g[:, 6:]).any(axis=1).all()


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_every_fresh_reduced_factor_has_one_fill(problem, monkeypatch):
    # Diagonal pivots in the layout's order leave the fill to the
    # pattern: every iteration factors (HOLD_INCREMENT = 0) and every
    # factor has the same nnz(L+U), also for another F on the mesh.
    mesh, params, data = problem(nx=8, forchheimer=1e3)
    disc = solver.Discretization.build(mesh, data)
    monkeypatch.setattr(solver, "HOLD_INCREMENT", 0.0)
    calls = []
    recording_splu(monkeypatch, calls)
    _, report = newton_solve(disc, params, data)
    _, other = newton_solve(disc, replace(params, forchheimer=10.0), data)
    assert all(report.factored) and report.iterations >= 5
    # The two Darcy blocks with partial pivoting, every reduced block
    # ordered.
    assert sum(not is_ordered(kwargs) for kwargs in calls) == 2
    assert len(calls) == report.iterations + other.iterations + 2
    assert set(report.lu_nnz) == set(other.lu_nnz) and len(set(report.lu_nnz)) == 1


# Newton iterations of the channel at nx=16 for K_D = 1e-3, 1e-6, 1e-9:
# those of factoring every step.
EXTREME_ITERATIONS = {1e4: (8, 7, 7), 1e6: (7, 8, 6), 1e8: (7, 7, 7)}


@pytest.mark.parametrize("forchheimer", sorted(EXTREME_ITERATIONS))
def test_channel_extremes_converge_on_ordered_factors(forchheimer, monkeypatch):
    params, data, (rect_B, rect_D) = heterogeneous_flow_problem(forchheimer)
    disc = solver.Discretization.build(generate_stacked_rect(rect_B, rect_D, 16, 8, 8), data)
    cases = [replace(params, K_D=K_D) for K_D in (1e-3, 1e-6, 1e-9)]
    # HOLD_INCREMENT = 0 holds no factor: every iteration factors.
    with monkeypatch.context() as m:
        m.setattr(solver, "HOLD_INCREMENT", 0.0)
        fresh = [newton_solve(disc, case, data)[1].iterations for case in cases]
    assert fresh == list(EXTREME_ITERATIONS[forchheimer])
    calls = []
    recording_splu(monkeypatch, calls)
    for case, iterations in zip(cases, fresh):
        calls.clear()
        fields, report = newton_solve(disc, case, data)
        assert report.converged and report.iterations == iterations
        assert interface_flux_residual(fields) <= 1e-10
        assert all(r <= LU_RESIDUAL_TOL for r in report.linear_residuals)
        # The Darcy block with partial pivoting, then no fresh reduced
        # factor that falls back.
        assert not is_ordered(calls[0]) and all(is_ordered(kwargs) for kwargs in calls[1:])
        assert all(is_tight(kwargs) for kwargs in calls)
        assert len(calls) == 1 + sum(report.factored)


def test_newton_rejects_a_non_finite_assembly(monkeypatch):
    mesh, params, data = channel(forchheimer=1e3)
    calls = []
    forchheimer_terms = solver.asm.forchheimer_terms

    def poisoned(w, params, ws):
        calls.append(1)
        out, corr = forchheimer_terms(w, params, ws)
        if len(calls) == 2:
            out[out.size // 2] = np.nan
        return out, corr

    monkeypatch.setattr(solver.asm, "forchheimer_terms", poisoned)
    with pytest.raises(SolverError, match="not finite at Newton iteration 2"):
        newton_solve(mesh, params, data)


@pytest.mark.parametrize("forchheimer", [0.0, 1e3])
def test_each_newton_step_evaluates_the_forchheimer_weights_once(forchheimer, monkeypatch):
    mesh, params, data = channel(forchheimer=forchheimer)
    calls = []
    for name in ("forchheimer_map", "forchheimer_weight"):
        original = getattr(solver.asm, name)

        def counted(w, power, name=name, original=original):
            calls.append(name)
            return original(w, power)

        monkeypatch.setattr(solver.asm, name, counted)
    _, report = newton_solve(mesh, params, data)
    assert report.converged
    # Each step evaluates the map, which evaluates the weight; the
    # residual of the last iterate evaluates the weight alone.
    if forchheimer == 0.0:
        assert report.iterations == 1 and calls == []
    else:
        assert report.iterations > 1
        assert calls == ["forchheimer_map", "forchheimer_weight"] * report.iterations + [
            "forchheimer_weight"
        ]


@pytest.mark.parametrize("mode", ["constraint", "mixed"])
def test_condensed_solve_matches_a_factored_free_system(mode):
    # One Newton system with a Forchheimer block, solved with the Darcy
    # unknowns eliminated, against spsolve on the full free system.
    if mode == "mixed":
        mesh, params, data = channel(nx=8, forchheimer=1e3)
    else:
        mesh, params, data = manufactured(nx=8, forchheimer=1e3)
    disc = solver.Discretization.build(mesh, data)
    ws, dofmap = disc.workspace, disc.dofmap
    x = np.random.default_rng(5).normal(size=dofmap.n_total)
    x[dofmap.constrained] = prescribed_values(dofmap, mesh, data)
    A, b = apply_constraints(ws, *NewtonSystem(params, data, ws).at(x), x)
    assert (dofmap.gauge_dof < 0) == (mode == "mixed")
    if mode == "constraint":
        # Without its gauge row and column the system is singular along
        # the constant pressure and multiplier; the gauge row alone sees
        # that mode, with the total area.
        kernel = np.zeros(dofmap.n_total)
        kernel[dofmap.off_p : dofmap.off_lam + dofmap.n_lam] = 1.0
        gauge = np.searchsorted(ws.free, dofmap.gauge_dof)
        image = A @ kernel[ws.free]
        assert image[gauge] == pytest.approx(mesh.areas.sum(), rel=1e-14)
        image[gauge] = 0.0
        assert np.abs(image).max() <= 1e-14
    x_ref = spsolve(sp.csc_matrix(A), b)

    static = solver.StaticSystem.build(disc, params, data)
    out = solver.sparse_lu_solve(A, b, static, x[ws.free][disc.layout.free_R])
    x_c = out.x
    assert np.abs(x_c - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
    assert out.residual <= 1e-14 and out.refinements == 0 and out.factored
    assert 0 < out.lu_nnz and 0 < static.lu_nnz
    # The reported residual is the reduced system's; the full free
    # system's, with the Darcy rows, meets the bound as well.
    K, rhs = static.reduced(A), static.reduced_rhs(b)
    x_R = x_c[disc.layout.free_R]
    assert out.residual == solver._normalized(K @ x_R - rhs, x_R, rhs, solver._norm_inf(K))
    full = np.abs(A @ x_c - b).max() / (abs(A).sum(axis=1).max() * np.abs(x_c).max()
                                        + np.abs(b).max())
    assert full <= LU_RESIDUAL_TOL


def test_refinement_keeps_the_darcy_factor_released(monkeypatch):
    # A factor of 1.000001 M for the reduced block leaves the first
    # residual above the bound; refinement runs on the reduced system,
    # so the Darcy block is never factored again.
    mesh, params, data = manufactured(nx=4, forchheimer=0.0)
    exact, _ = newton_solve(mesh, params, data)
    seen = []

    def perturbed_splu(M, **kwargs):
        seen.append(M.shape[0])
        scale = 1.0 if len(seen) % 2 else 1.0 + 1e-6
        return splu(sp.csc_matrix(M * scale), **kwargs)

    monkeypatch.setattr(solver, "splu", perturbed_splu)
    fields, report = newton_solve(mesh, params, data)
    n_D = free_darcy_count(fields.dofmap)
    assert report.factored == [True] and report.refinements[0] >= 1
    assert report.linear_residuals[0] <= LU_RESIDUAL_TOL
    assert len(seen) == 2 and seen[0] == n_D != seen[1]
    assert np.abs(fields.x - exact.x).max() <= 1e-9 * np.abs(exact.x).max()


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_an_inaccurate_darcy_elimination_fails_where_it_is_made(problem, monkeypatch):
    # The Darcy block is factored once and never refined: a factor of
    # (1 + 1e-6) A_DD leaves X and y off by about 1e-6, which the check at
    # the elimination rejects before any Newton step.
    mesh, params, data = problem()
    disc = solver.Discretization.build(mesh, data)
    n_D = disc.layout.free_D.size
    assert n_D != disc.layout.free_R.size

    def perturbed_splu(M, **kwargs):
        scale = 1.0 + 1e-6 if M.shape[0] == n_D else 1.0
        return splu(sp.csc_matrix(M * scale), **kwargs)

    monkeypatch.setattr(solver, "splu", perturbed_splu)
    with pytest.raises(SolverError, match="Darcy elimination residual"):
        solver.StaticSystem.build(disc, params, data)
    with pytest.raises(SolverError, match="Darcy elimination residual"):
        newton_solve(disc, params, data)


def test_refinement_runs_when_the_bound_is_tiny(monkeypatch):
    mesh, params, data = channel(nx=8, forchheimer=0.0)
    seen = recording_splu(monkeypatch)
    # The Darcy elimination is checked when it is made, under the bound
    # of the module; only the Newton step meets the tiny one.
    disc = solver.Discretization.build(mesh, data)
    static = solver.StaticSystem.build(disc, params, data)
    monkeypatch.setattr(solver, "LU_RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolverError, match="Newton iteration 1: direct solve residual"):
        newton_solve(disc, params, data, linear=static)
    # The Darcy block and the reduced block, once each: refinement never
    # factors.
    assert len(seen) == 2 and seen[0].shape != seen[1].shape


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_constrained_dofs_keep_their_prescribed_values_exactly(problem):
    mesh, params, data = problem()
    fields, _ = newton_solve(mesh, params, data)
    dofmap = fields.dofmap
    assert dofmap.constrained.size > 0
    np.testing.assert_array_equal(
        fields.x[dofmap.constrained], prescribed_values(dofmap, mesh, data)
    )


def test_report_dof_counts_free_field_unknowns():
    mesh, params, data = manufactured()
    fields, report = newton_solve(mesh, params, data)
    dofmap = fields.dofmap
    assert report.dof == dofmap.n_free
    assert report.dof == dofmap.n_fields - dofmap.constrained.size


def test_solution_fields_split_views():
    mesh, params, data = manufactured()
    fields, _ = newton_solve(mesh, params, data)
    dofmap = fields.dofmap
    assert fields.u_B.size == dofmap.n_uB
    assert fields.u_D.size == dofmap.n_uD
    assert fields.p.size == mesh.num_triangles
    assert fields.lam.size == fields.interface.num_nodes
    np.testing.assert_array_equal(fields.u_B, fields.x[: dofmap.n_uB])


# ------------------------------------------------- shared discretization


def example1_cells():
    """example1_variant cells whose parameters and data differ, on one mesh."""
    cells = []
    for F in (1.0, 1.0e2, 1.0e3):
        for K_D in (0.1, 1.0e-3):
            params = PhysicalParams(mu=1.0, forchheimer=F, power=3.0, K_B=1.0, K_D=K_D)
            cells.append((params, manufactured_problem(params)[1]))
    return cells


def state(obj):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(obj).items()}


@pytest.mark.parametrize("threads", [0, 4], ids=["serial", "threaded"])
def test_shared_discretization_reproduces_mesh_first_solves(threads):
    mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8)
    cells = example1_cells()
    fresh = [newton_solve(mesh, params, data) for params, data in cells]
    disc = solver.Discretization.build(mesh, cells[0][1])
    before = [state(disc.workspace), state(disc.layout)]

    if threads:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(newton_solve, disc, p, d) for p, d in cells * 2]
                shared = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
    else:
        shared = [newton_solve(disc, p, d) for p, d in cells * 2]

    for (f1, r1), (f2, r2) in zip(fresh * 2, shared):
        assert r2.converged
        np.testing.assert_array_equal(f2.x, f1.x)
        assert r2.iterations == r1.iterations
        assert r2.lu_nnz == r1.lu_nnz
        assert f2.dofmap is disc.dofmap and f2.mesh is mesh
    # Nothing a solve computes is kept on the shared workspace or layout.
    after = [state(disc.workspace), state(disc.layout)]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        for key, value in old.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(new[key], value)


def test_discretizations_compare_by_identity():
    # Array fields make a field-wise == ambiguous; two builds are two
    # objects, and each can key a cache.
    mesh, params, data = manufactured(nx=4)
    a, b = solver.Discretization.build(mesh, data), solver.Discretization.build(mesh, data)
    assert a != b and a == a
    assert {a: 1, b: 2}[a] == 1


def reachable_array_bytes(root):
    """Bytes of the distinct ndarray buffers reachable from ``root``
    through attributes, dict values and sequence items; a view counts as
    its base."""
    seen, buffers, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(vars(obj).values())
    return sum(buffers.values())


def test_a_discretization_keeps_no_per_point_basis_table():
    # The Brinkman basis is stored once, as value coefficients: a table of
    # its values at the quadrature points and stored gradient coefficients
    # took 3.8 MiB in all at study nx=16, against 2.4 MiB without them.
    mesh, params, data = manufactured(nx=16)
    disc = solver.Discretization.build(mesh, data)
    assert reachable_array_bytes(disc) <= 2.6 * 2**20


def test_shared_discretization_rejects_another_layout():
    mesh, params, data = channel()
    disc = solver.Discretization.build(mesh, data)
    _, gauge_data = manufactured_problem(params)
    with pytest.raises(ValueError, match="pressure gauge"):
        newton_solve(disc, params, gauge_data)
    sealed = replace(data, darcy_bc={**data.darcy_bc, "GD_LEFT": ("pressure", zero_scalar)})
    assert not sealed.gauge_pressure
    with pytest.raises(ValueError, match="essential boundary conditions"):
        newton_solve(disc, params, sealed)


# ------------------------------------------------- shared static system


def channel_cells(nx=8):
    """Sweep cells of the channel: (F, K_D) pairs on one mesh, with the
    StaticSystem of each K_D built from another F's parameters and data."""
    mesh = channel(nx=nx)[0]
    disc = solver.Discretization.build(mesh, heterogeneous_flow_problem(1.0)[1])
    statics = {
        K_D: solver.StaticSystem.build(disc, *heterogeneous_flow_problem(1.0, K_D=K_D)[:2])
        for K_D in (1e-3, 1e-6)
    }
    cells = []
    for F in (10.0, 1e3, 1e4):
        for K_D, static in statics.items():
            params, data, _ = heterogeneous_flow_problem(F, K_D=K_D)
            cells.append((params, data, static))
    return disc, cells


def gauge_cells(nx=8):
    """example1_variant cells, with the StaticSystem of each K_D built
    from the first cell of that K_D."""
    disc = solver.Discretization.build(manufactured(nx=nx)[0], example1_cells()[0][1])
    statics = {}
    cells = []
    for params, data in example1_cells():
        static = statics.setdefault(params.K_D, solver.StaticSystem.build(disc, params, data))
        cells.append((params, data, static))
    return disc, cells


@pytest.mark.parametrize("make", [channel_cells, gauge_cells], ids=["mixed", "gauge"])
def test_shared_static_systems_reproduce_unshared_solves(make, monkeypatch):
    disc, cells = make()
    calls = []
    recording_splu(monkeypatch, calls)
    for params, data, static in cells:
        before = state(static)
        calls.clear()
        own_fields, own = newton_solve(disc, params, data)
        n_own = len(calls)
        calls.clear()
        fields, report = newton_solve(disc, params, data, linear=static)
        np.testing.assert_array_equal(fields.x, own_fields.x)
        assert report == own and report.converged
        # The shared system spares the solve its Darcy factor.
        assert len(calls) == n_own - 1 and all(is_ordered(kwargs) for kwargs in calls)
        after = state(static)
        assert after.keys() == before.keys()
        for key, value in before.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(after[key], value)


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_a_static_system_assembles_only_the_darcy_load(problem, monkeypatch):
    # The solve's own StaticSystem reads the Darcy rows of the full load;
    # a built one assembles those rows alone, to the same bits.
    mesh, params, data = problem()
    disc = solver.Discretization.build(mesh, data)
    ws, dofmap = disc.workspace, disc.dofmap
    x = np.zeros(dofmap.n_total)
    x[dofmap.constrained] = prescribed_values(dofmap, mesh, data)
    own = solver.StaticSystem(
        disc, params, solver.asm.static_values(params, ws), solver.asm.assemble_rhs(data, ws), x
    )

    def no_full_load(data, ws):
        raise AssertionError("assemble_rhs called")

    monkeypatch.setattr(solver.asm, "assemble_rhs", no_full_load)
    built = solver.StaticSystem.build(disc, params, data)
    for name in ("b", "y", "X", "schur"):
        np.testing.assert_array_equal(getattr(built, name), getattr(own, name))


def superlu_inside(obj, seen=None):
    """Whether ``obj`` or anything its attributes reach is a SuperLU."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, SuperLU):
        return True
    if isinstance(obj, (list, tuple)):
        return any(superlu_inside(o, seen) for o in obj)
    if isinstance(obj, dict):
        return any(superlu_inside(o, seen) for o in obj.values())
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return any(superlu_inside(o, seen) for o in vars(obj).values())
    return False


def test_a_static_system_holds_no_factor():
    disc, cells = gauge_cells()
    params, data, static = cells[0]
    assert not superlu_inside(static)
    fields, _ = newton_solve(disc, params, data, linear=static)
    assert not superlu_inside(static)
    # The factor a linear solve on it made is returned, not kept there.
    ws = disc.workspace
    A, b = apply_constraints(ws, *NewtonSystem(params, data, ws).at(fields.x), fields.x)
    out = solver.sparse_lu_solve(A, b, static, fields.x[ws.free][disc.layout.free_R])
    assert superlu_inside(out) and not superlu_inside(static)


def test_solves_of_several_F_on_one_static_system_on_several_threads():
    disc, cells = channel_cells()
    cells = [cell for cell in cells if cell[2] is cells[0][2]]
    serial = [newton_solve(disc, p, d, linear=static) for p, d, static in cells]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(newton_solve, disc, p, d, None, static)
                       for p, d, static in cells * 2]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (f1, r1), (f2, r2) in zip(serial * 2, threaded):
        np.testing.assert_array_equal(f2.x, f1.x)
        assert r2 == r1


def test_a_static_system_rejects_another_solve():
    mesh, params, data = channel(nx=8)
    disc = solver.Discretization.build(mesh, data)
    K_B = np.array([[0.1, 0.0], [0.0, 0.1]])
    params = replace(params, K_B=K_B)
    static = solver.StaticSystem.build(disc, params, data)
    # Another F and p share it; an equal K_B array is the same object.
    newton_solve(disc, replace(params, forchheimer=1.0, power=3.0), data, linear=static)
    others = [
        ("another Discretization", solver.Discretization.build(mesh, data), params),
        ("another Discretization", mesh, params),
        ("another mu", disc, replace(params, mu=2.0)),
        ("another K_B", disc, replace(params, K_B=K_B.copy())),
        ("another K_D", disc, replace(params, K_D=1e-4)),
    ]
    for message, where, other in others:
        with pytest.raises(ValueError, match=message):
            newton_solve(where, other, data, linear=static)
    # Other Darcy data: a nonzero Darcy source.
    darcy = replace(data, f_D=lambda pts: np.ones_like(pts))
    with pytest.raises(ValueError, match="Darcy part of the right-hand side"):
        newton_solve(disc, params, darcy, linear=static)
    # A callable permeability is compared by identity, a number by value.
    field = lambda pts: np.broadcast_to(1e-3 * np.eye(2), (len(pts), 2, 2))  # noqa: E731
    static = solver.StaticSystem.build(disc, replace(params, K_D=field), data)
    newton_solve(disc, replace(params, K_D=field, mu=1), data, linear=static)
    with pytest.raises(ValueError, match="another K_D"):
        newton_solve(disc, replace(params, K_D=lambda pts: field(pts)), data, linear=static)


# ----------------------------------------------------- forest matching


def matched_bubbles(disc):
    """Each Brinkman triangle's matched bubble, read from the layout: the
    DOF its pressure is eliminated right after."""
    ws, dof = disc.workspace, disc.dofmap
    order = ws.free[disc.layout.free_R]
    at = np.empty(dof.n_total, dtype=int)
    at[order] = np.arange(order.size)
    return order[at[ws.p_dof_B] - 1]


def assert_acyclic_matching(disc):
    """The matched bubbles, as edges between their Brinkman triangles (or
    a triangle and one root for an edge it has alone), form a forest."""
    mesh, br = disc.mesh, disc.dofmap.br
    mate = matched_bubbles(disc)
    assert (mate[:, None] == br.l2g[:, 6:]).any(axis=1).all()
    m = br.tri_ids.size
    local = np.full(mesh.num_triangles + 1, m)
    local[br.tri_ids] = np.arange(m)
    edges = br.edge_ids[mate - 2 * br.vertex_ids.size]
    ends = local[mesh.edge_tris[edges]]
    graph = sp.csr_matrix((np.ones(m), (ends[:, 0], ends[:, 1])), shape=(m + 1, m + 1))
    n_parts, _ = connected_components(graph, directed=False)
    assert np.unique(edges).size == m
    assert m == (m + 1) - n_parts


@pytest.mark.parametrize("nx", [16, 32])
def test_crisscross_study_factors_only_in_the_layout_order(nx, monkeypatch):
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    _, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, nx, nx, nx, pattern="crisscross")
    disc = solver.Discretization.build(mesh, data)
    assert_acyclic_matching(disc)
    calls = []
    recording_splu(monkeypatch, calls)
    _, report = newton_solve(disc, params, data)
    assert report.converged and report.iterations == 4
    # The Darcy block, then only ordered reduced factors: none fell back.
    assert len(calls) == 1 + sum(report.factored)
    assert not is_ordered(calls[0]) and all(is_ordered(kwargs) for kwargs in calls[1:])
    assert len(set(report.lu_nnz)) == 1


@pytest.mark.parametrize("grading", ["right", "crisscross", "x-graded"])
def test_study_meshes_factor_the_gauge_row_in_the_layout_order(grading, monkeypatch):
    # The gauge is an ordinary row of the reduced block: every fresh
    # reduced factor takes the layout's order with diagonal pivots, so no
    # factor falls back to COLAMD and each solve has one fill.
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    _, data = manufactured_problem(params)
    calls = []
    recording_splu(monkeypatch, calls)
    for nx in (4, 8, 16, 32):
        mesh = generate_stacked_rect(
            RECT_B, RECT_D, nx, nx, nx, pattern="right" if grading == "x-graded" else grading
        )
        if grading == "x-graded":
            mesh = x_graded(mesh)
        calls.clear()
        _, report = newton_solve(solver.Discretization.build(mesh, data), params, data)
        assert report.converged and report.iterations == 4
        assert len(calls) == 1 + sum(report.factored)
        assert all(is_ordered(kwargs) for kwargs in calls[1:])
        assert len(set(report.lu_nnz)) == 1


def shuffled(mesh, seed, roll):
    """``mesh`` with its vertices and triangles renumbered at random and
    the local vertex order of each triangle rotated by ``roll``."""
    rng = np.random.default_rng(seed)
    old = rng.permutation(mesh.num_vertices)
    new = np.argsort(old)
    tris = rng.permutation(mesh.num_triangles)
    triangles = np.roll(new[mesh.triangles[tris]], roll, axis=1)
    tagged = np.flatnonzero(mesh.edge_tags != "")
    pairs = np.sort(new[mesh.edges[tagged]], axis=1)
    return _build_topology(
        mesh.vertices[old], triangles, mesh.subdomain[tris], pairs, mesh.edge_tags[tagged]
    )


@settings(max_examples=12, deadline=None)
@given(
    problem=st.sampled_from(["gauge", "mixed"]),
    pattern=st.sampled_from(["right", "crisscross"]),
    seed=st.integers(0, 2**32 - 1),
    roll=st.integers(0, 2),
)
def test_renumbered_meshes_match_along_a_forest_and_never_fall_back(problem, pattern, seed, roll):
    if problem == "gauge":
        params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
        _, data = manufactured_problem(params)
        mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8, pattern=pattern)
    else:
        params, data, (rect_B, rect_D) = heterogeneous_flow_problem(1e3)
        mesh = generate_stacked_rect(rect_B, rect_D, 8, 4, 4, pattern=pattern)
    disc = solver.Discretization.build(shuffled(mesh, seed, roll), data)
    assert_acyclic_matching(disc)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        recording_splu(patch, calls)
        _, report = newton_solve(disc, params, data)
    assert report.converged
    assert len(calls) == 1 + sum(report.factored)
    assert all(is_ordered(kwargs) for kwargs in calls[1:])


# --------------------------------------------------------------- tracing


def test_benchmark_tracer_records_the_linear_solve_spans(monkeypatch):
    # perfbench/spans.py wraps solver.sparse_lu_solve and solver.splu by
    # name; a renamed solver function would leave its spans empty.
    import bfdarcy
    import bfdarcy.cli  # noqa: F401  (the tracer wraps the CLI too)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    mesh, params, data = manufactured(nx=4)
    tracer = spans.Tracer()
    with tracer.installed(bfdarcy):
        _, report = bfdarcy.solver.newton_solve(mesh, params, data)
    assert bfdarcy.solver.splu is splu
    names = [s.name for s in tracer.spans]
    assert names.count("solver.newton") == 1
    assert names.count("solver.lu") == report.iterations
    assert names.count("solver.factor") == 1 + sum(report.factored)
    assert names.count("solver.trisolve") >= names.count("solver.factor")
    # Set-up runs once per solve, the restriction once per Newton step.
    for once in ("mesh.interface", "assembly.dofmap", "assembly.workspace",
                 "assembly.check_perm", "assembly.rhs"):
        assert names.count(once) == 1, once
    assert names.count("assembly.constraints") == report.iterations
