"""Newton linearization of the coupled problem and the direct linear solve.

Each Newton step solves for the new iterate directly: the left-hand side
carries the Gateaux derivative at the current iterate, the right-hand
side the load functional plus the correction F (p-2)(|w|^(p-2) w, v_B).
The iteration stops when the relative l2 increment of the coefficient
vector drops to the tolerance; with a vanishing Forchheimer coefficient
the operator is affine and a single solve is the exact discrete solution.

The Darcy block of the linear system does not change with the iterate,
so each solve factors it once (``DarcyBlock``) and every Newton step
solves only for the Brinkman and multiplier unknowns, with the Darcy
block's Schur complement on the multiplier block.  Once the iteration
has settled, the Jacobian barely moves between steps, so a step first
tries the previous step's factor with iterative refinement (the chord
or Shamanskii idea; C. T. Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995) and factors anew only when that fails.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

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

# Iterative refinement aims at this normalized residual on the system it
# factors.  A new factor usually meets it with its first solve; a factor
# held from an earlier Newton iteration serves only once refinement with
# it meets it, far below LU_RESIDUAL_TOL, so that reusing a factor costs
# no accuracy.
REFINE_TOL = 1.0e-15

# Refinement gives up when a step cuts the residual by less than this
# factor, or when the observed rate predicts more than REFINE_MAX_STEPS
# steps to reach REFINE_TOL.
REFINE_MIN_RATE = 2.0
REFINE_MAX_STEPS = 12

# A Newton iteration's factor is held for the next iteration only if that
# iteration's relative increment is at most this: beyond it the Jacobian
# moves too far for the old factor to pay.
HOLD_INCREMENT = 0.2


def _bordered_residual(A, x, b, border=None):
    """K x - b for K = A, or A with ``border``, without forming K."""
    r = A @ x - b
    if border is not None:
        c, s = border.coupling, border.slot
        r += c * x[s]
        r[s] += c @ x - border.diagonal * x[s]
    return r


def _norm_inf(A, border=None):
    """||K||_inf for a CSR or CSC A and K = A or A with ``border``, from
    the row sums of |A.data| plus the border's."""
    n = A.shape[0]
    rows = A.indices if A.format == "csc" else np.repeat(np.arange(n), np.diff(A.indptr))
    norms = np.bincount(rows, np.abs(A.data), minlength=n)
    if border is not None:
        c = np.abs(border.coupling)
        norms += c
        norms[border.slot] = c.sum() + abs(border.diagonal)
    return norms.max(initial=0.0)


def _normalized(r, x, b, norm):
    """||r||_inf / (norm ||x||_inf + ||b||_inf) for the residual r of x;
    NaN when x, b or the norm is not finite."""
    if not b.size:
        return 0.0
    num = np.abs(r).max()
    den = norm * np.abs(x).max() + np.abs(b).max()
    if not np.isfinite(den):
        return np.nan
    return num / den if den > 0.0 else num


def _normalized_residual(A, x, b, border=None):
    """||K x - b||_inf / (||K||_inf ||x||_inf + ||b||_inf) for K = A or A
    with ``border``."""
    return _normalized(_bordered_residual(A, x, b, border), x, b, _norm_inf(A, border))


@dataclass(frozen=True)
class GaugeBorder:
    """The pressure-gauge border of a system matrix A.

    The bordered operator is K = A + c e_s^T + e_s c^T - delta e_s e_s^T,
    where s is ``slot`` (an empty row and column of A), c is ``coupling``
    and delta is ``diagonal``.  The gauge of ``gauge_border`` has the
    triangle areas on the pressure DOFs in c and delta = 0, which keeps
    the mean-zero row exact; eliminating the Darcy unknowns gives a
    border with a nonzero delta (see ``DarcyBlock``).  ``pin`` is the
    first nonzero of c.
    """

    slot: int
    coupling: np.ndarray
    diagonal: float = 0.0

    @property
    def pin(self):
        return int(np.flatnonzero(self.coupling)[0])


def gauge_border(ws):
    """The mean-zero pressure gauge in the free-DOF numbering of
    ``apply_constraints``, or None without one."""
    dofmap = ws.dofmap
    if dofmap.gauge_dof < 0:
        return None
    c = np.zeros(dofmap.n_total)
    c[dofmap.off_p : dofmap.off_p + dofmap.n_p] = ws.mesh.areas
    return GaugeBorder(int(np.searchsorted(ws.free, dofmap.gauge_dof)), c[ws.free])


def _factor(M):
    try:
        return splu(M)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc


def _pin(A, j, s):
    """A + e_j e_j^T + e_s e_s^T as a CSC matrix on A's pattern, with the
    two diagonal slots inserted where A lacks them.  Explicit zeros of A
    stay in the pattern, which is the one SuperLU orders."""
    A = sp.csc_matrix(A)
    if not A.has_sorted_indices:
        A = A.sorted_indices()
    indptr, indices, data = A.indptr.copy(), A.indices, A.data.copy()
    # The later column first: an insertion there moves no earlier slot.
    for k in sorted((j, s), reverse=True):
        p = indptr[k] + np.searchsorted(indices[indptr[k] : indptr[k + 1]], k)
        if p < indptr[k + 1] and indices[p] == k:
            data[p] += 1.0
        else:
            indices, data = np.insert(indices, p, k), np.insert(data, p, 1.0)
            indptr[k + 1 :] += 1
    return sp.csc_matrix((data, indices, indptr), shape=A.shape)


class BorderedLU:
    """The sparse LU of A, or of A with its gauge pins, and the solve with
    K = A or A bordered.

    Without a border this factors A.  With one it factors
    M = A + e_j e_j^T + e_s e_s^T (j = ``border.pin``, s = ``border.slot``),
    formed here on A's pattern: A is singular only along the constant
    (p, lambda) mode, so M is nonsingular.  Each right-hand side then
    costs one solve with M plus a 2x2 system for (x_j, x_s):

        x = y0 + x_j y1 - x_s y2,  y0 = M^-1 b_x, y1 = M^-1 e_j, y2 = M^-1 c

    where b_x is b with its gauge entry zeroed; y1 and y2 come from one
    two-column solve here.  ``nnz`` is nnz(L+U).
    """

    def __init__(self, A, border=None):
        if border is None:
            M = sp.csc_matrix(A)
        else:
            M = _pin(A, border.pin, border.slot)
        self.lu = _factor(M)
        del M
        self.nnz = int(self.lu.nnz)
        self.border = border
        if border is not None:
            c, j = border.coupling, border.pin
            e_j = np.zeros(c.size)
            e_j[j] = 1.0
            Y = self.lu.solve(np.column_stack([e_j, c]))
            self.y1, self.y2 = Y[:, 0], Y[:, 1]
            self.G = np.array(
                [[self.y1[j] - 1.0, -self.y2[j]],
                 [c @ self.y1, -(c @ self.y2) - border.diagonal]]
            )

    def solve(self, rhs):
        border = self.border
        if border is None:
            return self.lu.solve(rhs)
        c, s, j = border.coupling, border.slot, border.pin
        rhs_x = rhs.copy()
        rhs_x[s] = 0.0
        y0 = self.lu.solve(rhs_x)
        try:
            xj, xs = np.linalg.solve(self.G, [-y0[j], rhs[s] - c @ y0])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular gauge border: {exc}") from exc
        x = y0 + xj * self.y1 - xs * self.y2
        x[s] = xs
        return x

    def release(self):
        """Free the factor, whoever still refers to this object; it cannot
        solve afterwards."""
        self.lu = self.y1 = self.y2 = None


def _refine(factor, residual, rhs, norm):
    """Solve with ``factor``, then refine on the system whose residual
    K x - rhs is ``residual(x)`` (``norm`` = ||K||_inf) until the
    normalized residual meets REFINE_TOL.

    Refinement gives up once a step cuts the residual by less than
    REFINE_MIN_RATE, or once the observed rate predicts more than
    REFINE_MAX_STEPS steps in all; a step that does not lower the
    residual is not taken, so a NaN residual ends it at once.  Returns
    (x, normalized residual, refinement steps taken).
    """
    x = factor.solve(rhs)
    r = residual(x)
    res = _normalized(r, x, rhs, norm)
    steps = 0
    while not res <= REFINE_TOL:
        x_new = x - factor.solve(r)
        r_new = residual(x_new)
        res_new = _normalized(r_new, x_new, rhs, norm)
        if not res_new < res:
            break
        x, r, res, prev = x_new, r_new, res_new, res
        steps += 1
        if res <= REFINE_TOL:
            break
        rate = prev / res
        if rate < REFINE_MIN_RATE or steps + np.log(res / REFINE_TOL) / np.log(rate) > REFINE_MAX_STEPS:
            break
    return x, res, steps


def _csc_gather(pos, rows, cols, n):
    """Gather positions, row indices and column pointers of the n x n CSC
    matrix whose entry (rows[k], cols[k]) is taken from position pos[k]."""
    order = np.argsort(cols * n + rows)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return pos[order].astype(np.intc), rows[order].astype(np.intc), indptr.astype(np.intc)


class CondensedLayout:
    """Where the blocks of the condensed solve sit in the free system.

    The free DOFs of a Workspace split into the Darcy set (``free_D``:
    free u_D and all p_D) and the reduced set (``free_R``: the rest, the
    gauge included), both as positions in ``ws.free``.  The two meet only
    in the multiplier rows (``lam_R``).  ``dd_*``, ``cd_*`` and ``rr_*``
    gather, from the data of ``apply_constraints``' A_ff, the Darcy block
    in CSC order, the multiplier-Darcy coupling, and the reduced block in
    CSC order with a dense multiplier block; the source of the reduced
    gather is A_ff's data followed by that block (row-major).

    It depends on the Workspace alone; ``Discretization.build`` makes one
    per mesh, and nothing writes to it afterwards.
    """

    def __init__(self, ws):
        dof, free = ws.dofmap, ws.free
        darcy = np.zeros(dof.n_total, dtype=bool)
        darcy[dof.off_uD : dof.off_p] = True
        darcy[ws.p_dof_D] = True
        in_D = darcy[free]
        self.free_D = np.flatnonzero(in_D)
        self.free_R = np.flatnonzero(~in_D)
        local = np.empty(free.size, dtype=int)
        local[self.free_D] = np.arange(self.free_D.size)
        local[self.free_R] = np.arange(self.free_R.size)
        n_lam, n_R = dof.n_lam, self.free_R.size
        self.lam_R = local[np.searchsorted(free, dof.off_lam + np.arange(n_lam))]

        rows = np.repeat(np.arange(free.size), np.diff(ws.ff_indptr))
        cols = ws.ff_indices
        D_row, D_col = in_D[rows], in_D[cols]
        rows, cols = local[rows], local[cols]

        dd = np.flatnonzero(D_row & D_col)
        self.dd_pos, self.dd_indices, self.dd_indptr = _csc_gather(
            dd, rows[dd], cols[dd], self.free_D.size
        )
        lam_index = np.full(n_R, -1)
        lam_index[self.lam_R] = np.arange(n_lam)
        self.cd_pos = np.flatnonzero(~D_row & D_col)
        self.cd_rows = lam_index[rows[self.cd_pos]]
        self.cd_cols = cols[self.cd_pos]

        rr = np.flatnonzero(~D_row & ~D_col)
        lam_r, lam_c = np.meshgrid(self.lam_R, self.lam_R, indexing="ij")
        self.rr_pos, self.rr_indices, self.rr_indptr = _csc_gather(
            np.concatenate([rr, cols.size + np.arange(n_lam * n_lam)]),
            np.concatenate([rows[rr], lam_r.ravel()]),
            np.concatenate([cols[rr], lam_c.ravel()]),
            n_R,
        )


class DarcyBlock:
    """The Darcy unknowns of one solve's free system, eliminated.

    The free u_D and p_D of the system of ``apply_constraints`` form a
    block A_DD that does not depend on the Newton iterate.  They meet the
    other unknowns only in the multiplier rows C_D = A[lambda, D] (and
    the transposed columns) and, with a gauge border, in its coupling
    c_D.  Built from a CondensedLayout and one Newton iteration's system
    (A, b), this factors A_DD once, keeps

        X = A_DD^-1 C_D^T,  z = A_DD^-1 c_D,  y = A_DD^-1 b_D,

    and releases the factor.  ``sparse_lu_solve`` then solves, factors
    and refines only the reduced system (``reduced``, ``reduced_rhs``):
    the other unknowns, with S_D = C_D X subtracted from the (empty)
    multiplier block, bordered by ``border``, the gauge border of the
    reduced system (coupling c_R - X^T c_D, diagonal delta + c_D . z).
    x_D = y - X lambda - z x_s recovers the rest (``recover``).

    b_D does not change across Newton iterations (the Forchheimer terms
    act on u_B only, and the lift uses fixed prescribed values), so ``y``
    serves every iteration; a right-hand side with another Darcy part is
    rejected.
    """

    def __init__(self, layout, A, b, border=None):
        self.layout = lo = layout
        n_D, n_lam = lo.free_D.size, lo.lam_R.size
        matrix = sp.csc_matrix(
            (A.data[lo.dd_pos], lo.dd_indices, lo.dd_indptr), shape=(n_D, n_D)
        )
        self.coupling = sp.csr_matrix(
            (A.data[lo.cd_pos], (lo.cd_rows, lo.cd_cols)), shape=(n_lam, n_D)
        )
        self.b = b[lo.free_D]
        cols = [self.coupling.T.toarray(), self.b[:, None]]
        if border is not None:
            c_D = border.coupling[lo.free_D]
            cols.append(c_D[:, None])
        lu = _factor(matrix)
        self.lu_nnz = int(lu.nnz)
        Y = lu.solve(np.hstack(cols))
        del lu
        self.X, self.y = Y[:, :n_lam], Y[:, n_lam]
        self.schur = -(self.coupling @ self.X).ravel()
        self.z = self.c_D = self.border = None
        if border is not None:
            self.z, self.c_D = Y[:, n_lam + 1], c_D
            c_R = border.coupling[lo.free_R]
            c_R[lo.lam_R] -= self.X.T @ c_D
            self.border = GaugeBorder(
                int(np.searchsorted(lo.free_R, border.slot)), c_R, border.diagonal + c_D @ self.z
            )

    def reduced(self, A):
        """The reduced block of the free system A as a CSC matrix."""
        lo = self.layout
        n = lo.free_R.size
        data = np.concatenate([A.data, self.schur])[lo.rr_pos]
        return sp.csc_matrix((data, lo.rr_indices, lo.rr_indptr), shape=(n, n))

    def reduced_rhs(self, b):
        """The reduced system's right-hand side for the free system's b."""
        lo = self.layout
        if not np.array_equal(b[lo.free_D], self.b):
            raise ValueError("the Darcy part of the right-hand side differs from the block's")
        rhs = b[lo.free_R]
        rhs[lo.lam_R] -= self.coupling @ self.y
        if self.z is not None:
            rhs[self.border.slot] -= self.c_D @ self.y
        return rhs

    def recover(self, x_R):
        """The solution of the free system from the reduced system's."""
        lo = self.layout
        x_D = self.y - self.X @ x_R[lo.lam_R]
        if self.z is not None:
            x_D -= self.z * x_R[self.border.slot]
        x = np.empty(x_R.size + x_D.size)
        x[lo.free_R] = x_R
        x[lo.free_D] = x_D
        return x


class LinearSolve(NamedTuple):
    """What ``sparse_lu_solve`` returns.

    ``residual`` is the normalized residual on the full (bordered)
    system, ``lu_nnz`` nnz(L+U) of the factor that served, ``refinements``
    the refinement steps run (those with an abandoned held factor
    included), ``factored`` whether the call computed that factor and
    ``factor`` the factor itself, to hold for a later call.
    """

    x: np.ndarray
    residual: float
    lu_nnz: int
    refinements: int
    factored: bool
    factor: BorderedLU


def sparse_lu_solve(A, b, border=None, darcy=None, factor=None):
    """Solve A x = b, or the bordered K x = b, by sparse LU with partial
    pivoting and iterative refinement.

    With a GaugeBorder the dense border row and column are not factored
    (see ``BorderedLU``).  With a DarcyBlock of this system the Darcy
    unknowns are not factored either: the solve and its refinement act
    on the reduced system of ``darcy`` alone, and the Darcy part of x
    comes from the block's once-per-solve quantities.

    ``factor``, a BorderedLU that an earlier call returned for a system
    on the same pattern with the same border (a previous Newton
    iteration's), is tried first.  It serves only if refinement with it
    meets REFINE_TOL under the rules of ``_refine``; otherwise the call
    releases it before it factors the system, as it does without one,
    and refines the same way.

    Whichever factor served, the normalized residual on the full K must
    meet LU_RESIDUAL_TOL.  Raises SingularSystemError on an exactly
    singular pivot or a non-finite solution and SolverError when the
    residual misses the bound (a NaN residual does).  Returns a
    LinearSolve.
    """
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    if darcy is None:
        K, rhs, K_border = A, b, border
    else:
        K, rhs, K_border = darcy.reduced(A), darcy.reduced_rhs(b), darcy.border
    norm = _norm_inf(K, K_border)

    def residual(x):
        return _bordered_residual(K, x, rhs, K_border)

    steps = 0
    if factor is not None:
        x, res, steps = _refine(factor, residual, rhs, norm)
        if not res <= REFINE_TOL:
            factor.release()
            factor = None
    factored = factor is None
    if factored:
        factor = BorderedLU(K, K_border)
        x, res, more = _refine(factor, residual, rhs, norm)
        steps += more
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("sparse LU produced non-finite values")
    if darcy is not None:
        x = darcy.recover(x)
        res = _normalized_residual(A, x, b, border)
    if not res <= LU_RESIDUAL_TOL:
        raise SolverError(f"direct solve residual {res:g} exceeds {LU_RESIDUAL_TOL:g}")
    return LinearSolve(x, res, factor.nnz, steps, factored, factor)


@dataclass
class NewtonOptions:
    tol: float = 1.0e-6
    max_iter: int = 50
    initial: tuple = (0.1, 0.0)


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
    """Outcome of one nonlinear solve.

    Per Newton iteration: the relative velocity increment, the normalized
    residual of the linear solve on the full free system, nnz(L+U) of
    the factor that iteration used (of the reduced block, with the Darcy
    unknowns eliminated), the refinement steps it ran (see
    ``LinearSolve``) and whether it factored: an iteration that did not
    reused the factor of an earlier one.  ``darcy_lu_nnz`` is nnz(L+U)
    of the Darcy block, factored once per solve.
    """

    iterations: int
    increments: list
    linear_residuals: list
    lu_nnz: list
    refinements: list
    factored: list
    converged: bool
    dof: int
    tol: float
    darcy_lu_nnz: int

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
    layout, the assembly Workspace (basis tables, CSR pattern, free and
    lift positions, quadrature rule) and the CondensedLayout of the linear
    solve.  Build it once per mesh with ``Discretization.build``
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
    layout: CondensedLayout

    @classmethod
    def build(cls, mesh, data, quad_degree=6):
        """Discretize ``mesh`` for the boundary-condition layout of ``data``
        (which tags carry essential data; their values do not matter) on
        the quadrature rule of degree ``quad_degree``."""
        interface = build_interface(mesh)
        dofmap = asm.build_dofmap(mesh, interface, data)
        workspace = asm.Workspace(mesh, interface, dofmap, degree=quad_degree)
        return cls(mesh, interface, dofmap, workspace, CondensedLayout(workspace))


def newton_solve(mesh, params, data, options=None):
    """Solve the coupled nonlinear problem on a mesh.

    ``mesh`` is a Mesh, discretized for this solve alone on the default
    quadrature of ``Discretization.build``, or a Discretization to reuse:
    solves of several (params, data) on one mesh share its set-up and
    assemble on its quadrature.  Returns (SolutionFields, SolveReport).
    The iteration count equals the number of linear solves performed.

    Raises ValueError for options out of range (``max_iter`` < 1,
    ``tol`` <= 0) and for data whose boundary-condition layout
    (constrained DOFs, pressure gauge) differs from the Discretization's.
    Raises SolverError, naming the Newton iteration, when an assembled
    system is not finite or its linear solve fails.
    """
    opts = options or NewtonOptions()
    if opts.max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {opts.max_iter}")
    if not opts.tol > 0.0:
        raise ValueError(f"tol must be > 0, got {opts.tol}")
    disc = mesh
    if not isinstance(disc, Discretization):
        disc = Discretization.build(mesh, data)
    mesh, interface, dofmap, ws = disc.mesh, disc.interface, disc.dofmap, disc.workspace
    asm.check_permeabilities(params, mesh, ws.degree)
    border = gauge_border(ws)

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
    factored = []
    converged = False
    darcy = None
    # The factor held for the next linear solve, kept only while the
    # iteration has settled (HOLD_INCREMENT).
    factor = None

    max_iter = 1 if affine else opts.max_iter
    for it in range(1, max_iter + 1):
        values, rhs = static, base_rhs
        if not affine:
            values = static + asm.forchheimer_data(x, params, ws)
            rhs = base_rhs + asm.forchheimer_rhs(x, params, ws)
        if not (np.isfinite(values).all() and np.isfinite(rhs).all()):
            raise SolverError(f"assembled system is not finite at Newton iteration {it}")
        A, b = asm.apply_constraints(ws, values, rhs, x)
        del values, rhs
        try:
            if darcy is None:
                darcy = DarcyBlock(disc.layout, A, b, border)
            x_free, res, nnz, steps, fresh, factor = sparse_lu_solve(
                A, b, border, darcy=darcy, factor=factor
            )
        except SolverError as exc:
            raise SolverError(f"linear solve failed at Newton iteration {it}: {exc}") from exc
        # Nothing of this iteration's system outlives its solve.
        del A, b
        residuals.append(res)
        lu_nnz.append(nnz)
        refinements.append(steps)
        factored.append(fresh)
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
        if not inc <= HOLD_INCREMENT:
            factor = None

    fields = SolutionFields(
        x=x, dofmap=dofmap, mesh=mesh, interface=interface, quad_degree=ws.degree
    )
    report = SolveReport(
        iterations=len(increments),
        increments=increments,
        linear_residuals=residuals,
        lu_nnz=lu_nnz,
        refinements=refinements,
        factored=factored,
        converged=converged,
        dof=dofmap.n_free,
        tol=opts.tol,
        darcy_lu_nnz=darcy.lu_nnz,
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
