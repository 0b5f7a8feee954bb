"""Newton linearization of the coupled problem and the direct linear solve.

Each Newton step solves for the new iterate directly: the left-hand side
carries the Gateaux derivative at the current iterate, the right-hand
side the load functional plus the correction F (p-2)(|w|^(p-2) w, v_B).
The iteration stops when the relative l2 increment of the coefficient
vector drops to the tolerance; with a vanishing Forchheimer coefficient
the operator is affine and a single solve is the exact discrete solution.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import assembly as asm
from .elements import interpolate_br
from .mesh import build_interface


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed."""


class SingularSystemError(SolverError):
    """The factorization hit an exactly singular pivot."""


# Normalized-residual bound the direct solve must meet (backward-error
# style: ||Ax-b||_inf / (||A||_inf ||x||_inf + ||b||_inf)).
LU_RESIDUAL_TOL = 1.0e-10

# Penalty variant of the pressure gauge: eliminating the bordered scalar
# with -PRESSURE_PENALTY on its diagonal adds (p, 1)(q, 1)/PRESSURE_PENALTY
# exactly, so the pressure mean still vanishes to solver accuracy.
PRESSURE_PENALTY = 1.0e-8


def _normalized_residual(A, x, b):
    num = np.abs(A @ x - b).max() if b.size else 0.0
    den = (
        np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        if b.size
        else 1.0
    )
    return num / den if den > 0.0 else num


@dataclass(frozen=True)
class GaugeBorder:
    """The pressure-gauge border of a system matrix A.

    The bordered operator is K = A + c e_s^T + e_s c^T - delta e_s e_s^T,
    where s is ``slot`` (an empty row and column of A), c is ``coupling``
    (the triangle areas on the pressure DOFs, zero elsewhere) and delta
    is ``diagonal``: 0 keeps the gauge row exact, PRESSURE_PENALTY makes
    it a penalty.
    """

    slot: int
    coupling: np.ndarray
    diagonal: float = 0.0

    def bordered(self, A):
        """K as a CSR matrix."""
        n = A.shape[0]
        idx = np.flatnonzero(self.coupling)
        s = np.full(idx.size, self.slot)
        rows = np.concatenate([s, idx, [self.slot]])
        cols = np.concatenate([idx, s, [self.slot]])
        vals = np.concatenate([self.coupling[idx], self.coupling[idx], [-self.diagonal]])
        return (A + sp.csr_matrix((vals, (rows, cols)), shape=(n, n))).tocsr()


def gauge_border(ws, pressure_mode):
    """The mean-zero pressure gauge in the free-DOF numbering of
    ``apply_constraints``, or None without one."""
    dofmap = ws.dofmap
    if dofmap.gauge_dof < 0:
        return None
    c = np.zeros(dofmap.n_total)
    c[dofmap.off_p : dofmap.off_p + dofmap.n_p] = ws.mesh.areas
    delta = PRESSURE_PENALTY if pressure_mode == "penalty" else 0.0
    return GaugeBorder(int(np.searchsorted(ws.free, dofmap.gauge_dof)), c[ws.free], delta)


def sparse_lu_solve(A, b, border=None, full_output=False):
    """Solve A x = b, or the bordered K x = b, by sparse LU with partial pivoting.

    With a GaugeBorder the dense border row and column are not factored.
    A is singular only along the constant (p, lambda) mode, so
    M = A + e_j e_j^T + e_s e_s^T, with j the first pressure DOF, is
    nonsingular and has the sparsity of A.  Each right-hand side then
    costs one solve with M plus a 2x2 system for (x_j, x_s):

        x = y0 + x_j y1 - x_s y2,  y0 = M^-1 b_x, y1 = M^-1 e_j, y2 = M^-1 c

    where b_x is b with its gauge entry zeroed; y1 and y2 come from one
    two-column solve per factorization.

    The residual check and the refinement step act on K itself.  Raises
    SingularSystemError on an exactly singular pivot and SolverError if
    the normalized residual stays above LU_RESIDUAL_TOL even after one
    step of iterative refinement.  With ``full_output`` returns
    (x, normalized residual, nnz(L+U), whether the refinement step ran).
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    M, K = A, A
    if border is not None:
        c, s = border.coupling, border.slot
        j = int(np.flatnonzero(c)[0])
        M = (A + sp.csc_matrix(([1.0, 1.0], ([j, s], [j, s])), shape=A.shape)).tocsc()
        K = border.bordered(A)
    try:
        lu = splu(M)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc

    if border is None:
        solve = lu.solve
    else:
        e_j = np.zeros(A.shape[0])
        e_j[j] = 1.0
        Y = lu.solve(np.column_stack([e_j, c]))
        y1, y2 = Y[:, 0], Y[:, 1]
        G = np.array([[y1[j] - 1.0, -y2[j]], [c @ y1, -(c @ y2) - border.diagonal]])

        def solve(rhs):
            rhs_x = rhs.copy()
            rhs_x[s] = 0.0
            y0 = lu.solve(rhs_x)
            try:
                xj, xs = np.linalg.solve(G, [-y0[j], rhs[s] - c @ y0])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"singular gauge border: {exc}") from exc
            x = y0 + xj * y1 - xs * y2
            x[s] = xs
            return x

    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("sparse LU produced non-finite values")
    res = _normalized_residual(K, x, b)
    refined = bool(res > LU_RESIDUAL_TOL)
    if refined:
        x = x + solve(b - K @ x)
        res = _normalized_residual(K, x, b)
        if res > LU_RESIDUAL_TOL:
            raise SolverError(f"direct solve residual {res:g} exceeds {LU_RESIDUAL_TOL:g}")
    if full_output:
        return x, res, int(lu.nnz), refined
    return x


@dataclass
class NewtonOptions:
    tol: float = 1.0e-6
    max_iter: int = 50
    initial: tuple = (0.1, 0.0)
    pressure_mode: str = "constraint"
    quad_degree: int = 6


@dataclass
class SolutionFields:
    """Solution vector together with its layout and mesh context.

    ``quad_degree`` is the degree of the quadrature rule the solve
    assembled on; checks of the discrete equations must use the same one.
    """

    x: np.ndarray
    dofmap: asm.DofMap
    mesh: object
    interface: object
    quad_degree: int

    @property
    def u_B(self):
        return self.dofmap.split(self.x)[0]

    @property
    def u_D(self):
        return self.dofmap.split(self.x)[1]

    @property
    def p(self):
        return self.dofmap.split(self.x)[2]

    @property
    def lam(self):
        return self.dofmap.split(self.x)[3]


@dataclass
class SolveReport:
    """Outcome of one nonlinear solve."""

    iterations: int
    increments: list
    linear_residuals: list
    lu_nnz: list
    refinements: list
    converged: bool
    dof: int
    tol: float

    def __str__(self):
        state = "converged" if self.converged else "NOT converged"
        return (
            f"{state} in {self.iterations} iterations "
            f"(dof={self.dof}, last increment={self.increments[-1]:.3e})"
        )


@dataclass(frozen=True)
class Discretization:
    """One mesh with everything a solve on it needs that the parameters
    and the values of the problem data do not change.

    It holds the mesh, its interface, the DofMap of one boundary-condition
    layout and the assembly Workspace (basis tables, CSR pattern, free and
    lift positions).  Build it once per mesh with ``Discretization.build``
    and pass it to ``newton_solve`` in place of the mesh: every solve on
    it then skips that set-up.  It is never written to, so solves on
    several threads may share it.  Whatever depends on ``params`` or on
    ``data`` (prescribed boundary values, inverse permeabilities, loads,
    the gauge border) is computed inside each solve and never stored here.
    """

    mesh: object
    interface: object
    dofmap: asm.DofMap
    workspace: asm.Workspace

    @classmethod
    def build(cls, mesh, data, quad_degree=6):
        """Discretize ``mesh`` for the boundary-condition layout of ``data``
        (which tags carry essential data; their values do not matter) on
        the quadrature rule of degree ``quad_degree``."""
        interface = build_interface(mesh)
        dofmap = asm.build_dofmap(mesh, interface, data)
        workspace = asm.Workspace(mesh, interface, dofmap, degree=quad_degree)
        return cls(mesh, interface, dofmap, workspace)


def newton_solve(mesh, params, data, options=None):
    """Solve the coupled nonlinear problem on a mesh.

    ``mesh`` is a Mesh, discretized for this solve alone, or a
    Discretization to reuse: solves of several (params, data) on one mesh
    share its set-up.  Returns (SolutionFields, SolveReport).  The
    iteration count equals the number of linear solves performed.

    Raises ValueError for options out of range (``max_iter`` < 1,
    ``tol`` <= 0, an unknown pressure mode), for a Discretization built
    on another quadrature degree than ``options.quad_degree``, and for
    data whose boundary-condition layout (constrained DOFs, pressure
    gauge) differs from the Discretization's.
    """
    opts = options or NewtonOptions()
    if opts.pressure_mode not in ("constraint", "penalty"):
        raise ValueError(f"pressure mode must be constraint|penalty, got {opts.pressure_mode!r}")
    if opts.max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {opts.max_iter}")
    if not opts.tol > 0.0:
        raise ValueError(f"tol must be > 0, got {opts.tol}")
    disc = mesh
    if not isinstance(disc, Discretization):
        disc = Discretization.build(mesh, data, opts.quad_degree)
    mesh, interface, dofmap, ws = disc.mesh, disc.interface, disc.dofmap, disc.workspace
    if ws.degree != opts.quad_degree:
        raise ValueError(
            f"the discretization uses quadrature degree {ws.degree}, "
            f"the options ask for {opts.quad_degree}"
        )
    asm.check_permeabilities(params, mesh, opts.quad_degree)
    border = gauge_border(ws, opts.pressure_mode)

    x = np.zeros(dofmap.n_total)
    init = np.asarray(opts.initial, dtype=float)
    x[: dofmap.n_uB] = interpolate_br(
        lambda pts: np.broadcast_to(init, (len(pts), 2)).copy(), mesh, space=dofmap.br
    )
    x[dofmap.constrained] = asm.prescribed_values(dofmap, mesh, data)

    # The operator is Da(x) + b on the workspace's fixed pattern.  Da at
    # F = 0 is its linear part; only the Forchheimer block changes with x.
    static = (
        asm.assemble_da(x, replace(params, forchheimer=0.0), ws).data
        + asm.assemble_b(ws).data
    )
    base_rhs = asm.assemble_rhs(data, ws)

    affine = params.forchheimer == 0.0
    # The Newton map feeds back only through the velocity iterate, so the
    # Cauchy test runs on the velocity coefficient block.
    nv = dofmap.n_uB + dofmap.n_uD
    increments = []
    residuals = []
    lu_nnz = []
    refinements = []
    converged = False

    max_iter = 1 if affine else opts.max_iter
    for it in range(1, max_iter + 1):
        values, rhs = static, base_rhs
        if not affine:
            values = static + asm.forchheimer_data(x, params, ws)
            rhs = base_rhs + asm.forchheimer_rhs(x, params, ws)

        A, b = asm.apply_constraints(ws, values, rhs, x)
        try:
            x_free, res, nnz, refined = sparse_lu_solve(A, b, border, full_output=True)
        except SolverError as exc:
            raise SolverError(f"linear solve failed at Newton iteration {it}: {exc}") from exc
        residuals.append(res)
        lu_nnz.append(nnz)
        refinements.append(refined)
        # Constrained entries keep their prescribed values exactly.
        x_new = x.copy()
        x_new[ws.free] = x_free

        if affine:
            increments.append(0.0)
            x = x_new
            converged = True
            break

        num = np.linalg.norm(x_new[:nv] - x[:nv])
        den = np.linalg.norm(x_new[:nv])
        inc = num / den if den > 0.0 else num
        increments.append(inc)
        x = x_new
        if inc <= opts.tol:
            converged = True
            break

    fields = SolutionFields(
        x=x, dofmap=dofmap, mesh=mesh, interface=interface, quad_degree=opts.quad_degree
    )
    report = SolveReport(
        iterations=len(increments),
        increments=increments,
        linear_residuals=residuals,
        lu_nnz=lu_nnz,
        refinements=refinements,
        converged=converged,
        dof=dofmap.n_free,
        tol=opts.tol,
    )
    return fields, report


def nonlinear_residual(fields, params, data, workspace=None):
    """Max-norm of the nonlinear first-row residual on free velocity DOFs.

    Evaluates [a(u), v] + [b(v), (p, lam)] - [rhs, v] for every
    unconstrained velocity test function of the converged solution, on
    the quadrature the solve assembled on.
    """
    dofmap, mesh = fields.dofmap, fields.mesh
    ws = workspace or asm.Workspace(mesh, fields.interface, dofmap, degree=fields.quad_degree)
    act = asm.assemble_a_nonlinear(fields.x, params, ws)
    act += asm.assemble_b(ws) @ fields.x
    act -= asm.assemble_rhs(data, ws)
    free = ws.free
    return np.abs(act[free[free < dofmap.n_uB + dofmap.n_uD]]).max()
