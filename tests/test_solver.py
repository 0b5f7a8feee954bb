"""Direct linear solver and Newton iteration tests."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from bfdarcy import (
    PhysicalParams,
    SingularSystemError,
    SolverError,
    apply_constraints,
    assemble_b,
    assemble_da,
    assemble_rhs,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    manufactured_problem,
    newton_solve,
    prescribed_values,
    pressure_mean,
    sparse_lu_solve,
)
from bfdarcy import solver
from bfdarcy.assembly import Workspace, zero_scalar
from bfdarcy.solver import (
    LU_RESIDUAL_TOL,
    PRESSURE_PENALTY,
    REFINE_TOL,
    GaugeBorder,
    NewtonOptions,
    nonlinear_residual,
)

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


def test_lu_solves_the_identity():
    A = sp.eye(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(sparse_lu_solve(A, b), b, atol=1e-15)


def test_lu_handles_a_zero_diagonal():
    # requires pivoting: the matrix swaps the two unknowns
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = sparse_lu_solve(A, np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-15)


def test_lu_matches_dense_solve_on_a_saddle_block():
    rng = np.random.default_rng(42)
    n, m = 160, 40
    K = rng.normal(size=(n, n))
    K = K @ K.T + n * np.eye(n)  # SPD leading block
    B = rng.normal(size=(m, n))
    A = np.block([[K, B.T], [B, np.zeros((m, m))]])
    b = rng.normal(size=n + m)

    x = sparse_lu_solve(sp.csr_matrix(A), b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)


def test_lu_rejects_singular_matrices():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        sparse_lu_solve(A, np.ones(2))
    # a structurally empty row as well
    A = sp.lil_matrix((3, 3))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    with pytest.raises(SingularSystemError):
        sparse_lu_solve(A.tocsr(), np.ones(3))


class CountingLU:
    """SuperLU wrapper that counts triangular solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0
        self.nnz = lu.nnz

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_lu_solves_a_gauge_border_on_a_singular_block(delta, monkeypatch):
    # A graph Laplacian is singular along the constant vector only; the
    # last row and column are the empty slot of the gauge scalar.
    rng = np.random.default_rng(8)
    n = 30
    W = np.triu(rng.uniform(0.5, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.2), 1)
    W += np.diag(np.ones(n - 1), 1)  # keep the graph connected
    W = W + W.T
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.diag(W.sum(axis=1)) - W
    c = np.zeros(n + 1)
    c[10:n] = rng.uniform(0.1, 1.0, size=n - 10)
    K = A + np.outer(c, np.eye(n + 1)[n]) + np.outer(np.eye(n + 1)[n], c)
    K[n, n] = -delta
    b = rng.normal(size=n + 1)

    factors = []

    def counting_splu(M):
        factors.append(CountingLU(splu(M)))
        return factors[-1]

    monkeypatch.setattr(solver, "splu", counting_splu)

    out = sparse_lu_solve(sp.csr_matrix(A), b, GaugeBorder(n, c, delta), full_output=True)
    np.testing.assert_allclose(out.x, np.linalg.solve(K, b), rtol=1e-10, atol=1e-12)
    assert out.residual <= LU_RESIDUAL_TOL
    # one factor of the unbordered block, one two-column solve for the
    # border, one solve for b: the recovery is exact, so no refinement
    assert len(factors) == 1 and factors[0].solves == 2
    assert out.lu_nnz == factors[0].nnz > 0
    assert out.refinements == 0 and out.factored


def test_lu_reports_whether_refinement_ran(monkeypatch):
    # A factor of 1.000001 A leaves a first residual far above the bound;
    # refinement with it brings the residual below REFINE_TOL.
    rng = np.random.default_rng(4)
    A = sp.csr_matrix(rng.normal(size=(40, 40)) + 40.0 * np.eye(40))
    b = rng.normal(size=40)
    out = sparse_lu_solve(A, b, full_output=True)
    assert out.refinements == 0 and out.residual <= LU_RESIDUAL_TOL

    monkeypatch.setattr(solver, "splu", lambda M: splu(sp.csc_matrix(M * (1.0 + 1e-6))))
    out = sparse_lu_solve(A, b, full_output=True)
    assert out.refinements >= 1 and out.residual <= REFINE_TOL
    np.testing.assert_allclose(out.x, np.linalg.solve(A.toarray(), b), rtol=1e-10)


def test_lu_error_is_a_solver_error():
    assert issubclass(SingularSystemError, SolverError)


def test_lu_rejects_a_nan_residual(monkeypatch):
    # A factor of the finite matrix gives a finite x for a matrix with a
    # NaN entry, so only the residual shows the fault.
    rng = np.random.default_rng(6)
    clean = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
    A = clean.copy()
    A[3, 7] = np.nan
    b = rng.normal(size=20)
    held = solver.BorderedLU(sp.csc_matrix(clean))
    with pytest.raises(SolverError):
        sparse_lu_solve(sp.csr_matrix(A), b, factor=held)
    monkeypatch.setattr(solver, "splu", lambda M: splu(sp.csc_matrix(clean)))
    with pytest.raises(SolverError, match="residual nan"):
        sparse_lu_solve(sp.csr_matrix(A), b)


@pytest.mark.parametrize("mode", ["constraint", "penalty"])
def test_gauge_solve_matches_the_factored_bordered_system(mode):
    # F = 0 makes the problem affine: newton_solve performs exactly one
    # linear solve, so its result is the solution of the bordered system.
    mesh, params, data = manufactured(nx=8, forchheimer=0.0)
    fields, report = newton_solve(mesh, params, data, NewtonOptions(pressure_mode=mode))
    dofmap = fields.dofmap
    assert dofmap.gauge_dof >= 0

    ws = Workspace(mesh, fields.interface, dofmap)
    values = assemble_da(fields.x, params, ws).data + assemble_b(ws).data
    A, b = apply_constraints(ws, values, assemble_rhs(data, ws), fields.x)
    # The border in the numbering of the free DOFs, the gauge included.
    p_dofs = np.searchsorted(ws.free, dofmap.off_p + np.arange(dofmap.n_p))
    gauge = np.searchsorted(ws.free, dofmap.gauge_dof)
    g = np.full(dofmap.n_p, gauge)
    delta = PRESSURE_PENALTY if mode == "penalty" else 0.0
    border = sp.coo_matrix(
        (
            np.concatenate([mesh.areas, mesh.areas, [-delta]]),
            (np.concatenate([g, p_dofs, [gauge]]),
             np.concatenate([p_dofs, g, [gauge]])),
        ),
        shape=A.shape,
    )
    K = sp.csc_matrix(A + border)
    x_ref = spsolve(K, b)

    x = fields.x[ws.free]
    assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
    assert abs(pressure_mean(fields)) <= 1e-12
    res = np.abs(K @ x - b).max() / (abs(K).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
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


def test_newton_rejects_bad_pressure_mode():
    mesh, params, data = manufactured()
    with pytest.raises(ValueError, match="pressure mode"):
        newton_solve(mesh, params, data, NewtonOptions(pressure_mode="lagrange"))


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
    fields, report = newton_solve(mesh, params, data, NewtonOptions(tol=1e-12))
    assert report.converged
    assert nonlinear_residual(fields, params, data) < 1e-10


@pytest.mark.parametrize("degree", [4, 8])
def test_nonlinear_residual_uses_the_quadrature_of_the_solve(degree):
    mesh, params, data = channel(nx=8, forchheimer=10.0)
    fields, report = newton_solve(mesh, params, data, NewtonOptions(quad_degree=degree))
    assert report.converged
    assert nonlinear_residual(fields, params, data) < 1e-10
    assert fields.quad_degree == degree


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


def free_darcy_count(dofmap):
    """Free u_D plus p_D unknowns: the Darcy block the solve eliminates."""
    c = dofmap.constrained
    n_fixed_uD = np.count_nonzero((c >= dofmap.off_uD) & (c < dofmap.off_p))
    return dofmap.n_uD - n_fixed_uD + dofmap.rt.tri_ids.size


def recording_splu(monkeypatch):
    seen = []

    def spy(M, *args, **kwargs):
        seen.append(M)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", spy)
    return seen


def check_factors(report, seen, dofmap):
    """The Darcy block is factored once per solve, the reduced block once
    per iteration that factored, on one fixed CSC pattern; an iteration
    that reused a factor reports the fill of the last one."""
    n_D = free_darcy_count(dofmap)
    n = dofmap.n_free - n_D + (1 if dofmap.gauge_dof >= 0 else 0)
    assert len(seen) == 1 + sum(report.factored)
    assert report.factored[0]
    darcy, reduced = seen[0], seen[1:]
    assert darcy.shape == (n_D, n_D)
    for M in reduced:
        assert M.format == "csc" and M.shape == (n, n)
        np.testing.assert_array_equal(M.indptr, reduced[0].indptr)
        np.testing.assert_array_equal(M.indices, reduced[0].indices)
    fills = iter(int(splu(M).nnz) for M in reduced)
    used = []
    for factored in report.factored:
        used.append(next(fills) if factored else used[-1])
    assert report.lu_nnz == used
    assert report.darcy_lu_nnz == int(splu(darcy).nnz)


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_newton_factors_only_the_free_dofs_on_one_pattern(problem, monkeypatch):
    mesh, params, data = problem()
    seen = recording_splu(monkeypatch)
    fields, report = newton_solve(mesh, params, data)
    assert report.iterations >= 3
    check_factors(report, seen, fields.dofmap)


def test_channel_reuses_a_factor_on_one_pattern(monkeypatch):
    mesh, params, data = channel(nx=16, forchheimer=1e3)
    seen = recording_splu(monkeypatch)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged and not all(report.factored)
    check_factors(report, seen, fields.dofmap)
    for factored, steps in zip(report.factored, report.refinements):
        if not factored:
            assert 1 <= steps <= solver.REFINE_MAX_STEPS
    assert all(r <= LU_RESIDUAL_TOL for r in report.linear_residuals)


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_held_factors_leave_the_iterates_unchanged(problem, monkeypatch):
    # HOLD_INCREMENT = 0 holds no factor: every iteration factors.
    mesh, params, data = problem(nx=8, forchheimer=1e3)
    disc = solver.Discretization.build(mesh, data)
    fields, report = newton_solve(disc, params, data)
    assert not all(report.factored)
    monkeypatch.setattr(solver, "HOLD_INCREMENT", 0.0)
    ref_fields, ref_report = newton_solve(disc, params, data)
    assert all(ref_report.factored) and ref_report.refinements == [0] * ref_report.iterations
    assert report.iterations == ref_report.iterations
    assert np.abs(fields.x - ref_fields.x).max() <= 1e-9 * np.abs(ref_fields.x).max()


def newton_system(problem, nx=8, forchheimer=1e3, seed=5):
    """One Newton system with a Forchheimer block at a random iterate."""
    mesh, params, data = problem(nx=nx, forchheimer=forchheimer)
    disc = solver.Discretization.build(mesh, data)
    ws, dofmap = disc.workspace, disc.dofmap
    x = np.random.default_rng(seed).normal(size=dofmap.n_total)
    x[dofmap.constrained] = prescribed_values(dofmap, mesh, data)
    values = assemble_da(x, params, ws).data + assemble_b(ws).data
    rhs = assemble_rhs(data, ws) + solver.asm.forchheimer_rhs(x, params, ws)
    A, b = apply_constraints(ws, values, rhs, x)
    return ws, A, b


@pytest.mark.parametrize("problem", [manufactured, channel], ids=["gauge", "mixed"])
def test_a_failing_held_factor_falls_back_to_a_fresh_factor(problem):
    ws, A, b = newton_system(problem)
    border = solver.gauge_border(ws, "constraint")
    darcy = solver.DarcyBlock(ws, A, b, border)
    fresh = sparse_lu_solve(A, b, border, full_output=True, darcy=darcy)
    assert fresh.factored and fresh.refinements == 0

    # The factor of the same system serves at once.
    again = sparse_lu_solve(A, b, border, full_output=True, darcy=darcy, factor=fresh.factor)
    assert not again.factored and again.factor is fresh.factor
    assert again.lu_nnz == fresh.lu_nnz
    assert np.abs(again.x - fresh.x).max() <= 1e-12 * np.abs(fresh.x).max()

    # A factor of three times the matrix cuts the residual by less than
    # REFINE_MIN_RATE per step: the solve releases it and factors anew,
    # from the start, so the result is the fresh solve's.
    bad = solver.BorderedLU(3.0 * darcy.pinned(darcy.reduced(A)), darcy.border)
    out = sparse_lu_solve(A, b, border, full_output=True, darcy=darcy, factor=bad)
    assert out.factored and out.factor is not bad and out.refinements >= 1
    assert bad.lu is None
    np.testing.assert_array_equal(out.x, fresh.x)
    assert out.residual == fresh.residual and out.lu_nnz == fresh.lu_nnz


def test_newton_rejects_a_non_finite_assembly(monkeypatch):
    mesh, params, data = channel(forchheimer=1e3)
    calls = []
    forchheimer_data = solver.asm.forchheimer_data

    def poisoned(w, params, ws):
        calls.append(1)
        out = forchheimer_data(w, params, ws)
        if len(calls) == 2:
            out[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(solver.asm, "forchheimer_data", poisoned)
    with pytest.raises(SolverError, match="not finite at Newton iteration 2"):
        newton_solve(mesh, params, data)


@pytest.mark.parametrize("mode", ["constraint", "penalty", "mixed"])
def test_condensed_solve_matches_a_factored_free_system(mode):
    # One Newton system with a Forchheimer block, solved with the Darcy
    # unknowns eliminated, against spsolve on the full bordered system.
    if mode == "mixed":
        mesh, params, data = channel(nx=8, forchheimer=1e3)
    else:
        mesh, params, data = manufactured(nx=8, forchheimer=1e3)
    disc = solver.Discretization.build(mesh, data)
    ws, dofmap = disc.workspace, disc.dofmap
    x = np.random.default_rng(5).normal(size=dofmap.n_total)
    x[dofmap.constrained] = prescribed_values(dofmap, mesh, data)
    values = assemble_da(x, params, ws).data + assemble_b(ws).data
    rhs = assemble_rhs(data, ws) + solver.asm.forchheimer_rhs(x, params, ws)
    A, b = apply_constraints(ws, values, rhs, x)
    border = solver.gauge_border(ws, "penalty" if mode == "penalty" else "constraint")
    assert (border is None) == (mode == "mixed")
    K = A
    if border is not None:
        e_s = sp.csr_matrix(([1.0], ([border.slot], [0])), shape=(A.shape[0], 1))
        c = sp.csr_matrix(border.coupling[:, None])
        K = A + c @ e_s.T + e_s @ c.T - border.diagonal * (e_s @ e_s.T)
    x_ref = spsolve(sp.csc_matrix(K), b)

    darcy = solver.DarcyBlock(ws, A, b, border)
    out = sparse_lu_solve(A, b, border, full_output=True, darcy=darcy)
    x_c = out.x
    assert np.abs(x_c - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
    assert out.residual <= 1e-14 and out.refinements == 0 and out.factored
    assert 0 < out.lu_nnz and 0 < darcy.lu_nnz
    full = np.abs(K @ x_c - b).max() / (abs(K).sum(axis=1).max() * np.abs(x_c).max()
                                        + np.abs(b).max())
    assert full == pytest.approx(out.residual, rel=1e-6, abs=1e-18)


def test_refinement_keeps_the_darcy_factor_released(monkeypatch):
    # A factor of 1.000001 M for the reduced block leaves the first
    # residual above the bound; refinement runs on the reduced system,
    # so the Darcy block is never factored again.
    mesh, params, data = manufactured(nx=4, forchheimer=0.0)
    exact, _ = newton_solve(mesh, params, data)
    seen = []

    def perturbed_splu(M):
        seen.append(M.shape[0])
        scale = 1.0 if len(seen) % 2 else 1.0 + 1e-6
        return splu(sp.csc_matrix(M * scale))

    monkeypatch.setattr(solver, "splu", perturbed_splu)
    fields, report = newton_solve(mesh, params, data)
    n_D = free_darcy_count(fields.dofmap)
    assert report.factored == [True] and report.refinements[0] >= 1
    assert report.linear_residuals[0] <= LU_RESIDUAL_TOL
    assert len(seen) == 2 and seen[0] == n_D != seen[1]
    assert np.abs(fields.x - exact.x).max() <= 1e-9 * np.abs(exact.x).max()


def test_refinement_runs_when_the_bound_is_tiny(monkeypatch):
    mesh, params, data = channel(nx=8, forchheimer=0.0)
    seen = recording_splu(monkeypatch)
    monkeypatch.setattr(solver, "LU_RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolverError, match="Newton iteration 1: direct solve residual"):
        newton_solve(mesh, params, data)
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


def workspace_state(ws):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(ws).items()}


@pytest.mark.parametrize("threads", [0, 4], ids=["serial", "threaded"])
def test_shared_discretization_reproduces_mesh_first_solves(threads):
    mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8)
    cells = example1_cells()
    fresh = [newton_solve(mesh, params, data) for params, data in cells]
    disc = solver.Discretization.build(mesh, cells[0][1])
    before = workspace_state(disc.workspace)

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
    # Nothing a solve computes is kept on the shared workspace.
    after = workspace_state(disc.workspace)
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(after[key], value)


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
    with pytest.raises(ValueError, match="quadrature degree"):
        newton_solve(disc, params, data, NewtonOptions(quad_degree=8))
