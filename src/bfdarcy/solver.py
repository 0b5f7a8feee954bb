"""Newton linearization of the coupled problem and the direct linear solve.

Each Newton step solves for the new iterate directly: the left-hand side
carries the Gateaux derivative at the current iterate, the right-hand
side the load functional plus the correction F (p-2)(|w|^(p-2) w, v_B).
``assembly.NewtonSystem``, built once per solve, forms that system:
``at(x)`` returns the step's values and right-hand side, and
``residual(x)`` the nonlinear residual the report gives for the last
iterate.  The iteration stops when the relative l2 increment of the
coefficient vector drops to the tolerance; with a vanishing Forchheimer
coefficient the operator is affine and a single solve is the exact
discrete solution.

The Darcy block of the linear system does not change with the iterate,
so it is factored once and every Newton step solves only for the
Brinkman, multiplier and gauge unknowns, with the Darcy block's Schur
complement on the rows that meet it, factored in a fixed saddle-point
order with diagonal pivots (``CondensedLayout``).  A ``StaticSystem``
holds what does not depend on F, p or the iterate: the F = 0 data and
that elimination, checked once, when it is made.  Solves that differ
only in F or p, as the cells of a sweep do, may share one; the factor a solve reuses between steps is a
local of its Newton loop.  Once the iteration has settled, the
Jacobian barely moves between steps, so a step first tries the previous
step's factor with iterative refinement (the chord or Shamanskii idea;
C. T. Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995) and factors anew only when that fails.  That refinement
starts from the current iterate and refines the correction (N. J.
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
2002, ch. 12), so the error a held factor leaves scales with the Newton
increment, not with the iterate, and it stops only below REFINE_ETA
times the iterate's own residual: a reused step is then as accurate as
a fresh one.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import spilu, splu

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

# A held factor refines the correction from the current iterate x_k
# (``_refine``), and its solve also aims at this fraction of x_k's own
# normalized residual.  Close to convergence the first correction alone
# can meet REFINE_TOL, which is normwise, while still carrying a
# relative error near that of the held factor; a step that stops there
# turns Newton's quadratic convergence linear (one more iteration at
# F = 1e8, K_D = 1e-6 on the channel).  1e-3 and 1e-4 both give the
# iteration counts of factoring every step; 1e-2 does not.
REFINE_ETA = 1.0e-4

# Supernode settings of every SuperLU factor (``_factor``).  scipy's
# default relaxed supernodes pad L and U with explicit zeros, which cost
# time in the factorization and in every triangular solve; these keep the
# supernodes tight.  SUPERLU_RELAX must not exceed SUPERLU_PANEL_SIZE.
SUPERLU_RELAX = 3
SUPERLU_PANEL_SIZE = 4

# Refinement gives up when a step cuts the residual by less than this
# factor, or when the observed rate predicts more than REFINE_MAX_STEPS
# steps to reach its goal (``_refine``).
REFINE_MIN_RATE = 2.0
REFINE_MAX_STEPS = 12

# A Newton iteration's factor is held for the next iteration only if that
# iteration's relative increment is at most this: beyond it the Jacobian
# moves too far for the old factor to pay.
HOLD_INCREMENT = 0.2


def _norm_inf(A):
    """||A||_inf for a CSC A, from the row sums of |A.data|."""
    return np.bincount(A.indices, np.abs(A.data), minlength=A.shape[0]).max(initial=0.0)


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


def _factor(M, ordered=False):
    """SuperLU of the CSC matrix M: with COLAMD and partial pivoting, or,
    when ``ordered``, in M's own order with diagonal pivots.  Either way
    on tight supernodes (SUPERLU_RELAX, SUPERLU_PANEL_SIZE), so nnz(L+U)
    counts no padding."""
    tight = dict(relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE)
    try:
        if ordered:
            return splu(
                M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}, **tight,
            )
        return splu(M, **tight)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc


class LUFactor:
    """The sparse LU of A (see ``_factor``) and the solve with it.

    ``sparse_lu_solve`` makes one of a StaticSystem's reduced system,
    which ``newton_solve`` holds between Newton steps.  The factor uses
    COLAMD and partial pivoting, or with ``ordered`` A's own order and
    its diagonal pivots: the order of a CondensedLayout's reduced block,
    which pairs every zero pressure diagonal with a bubble eliminated
    before it.  Only a solve with it shows whether such a factor is
    accurate.  ``nnz`` is nnz(L+U).
    """

    def __init__(self, A, ordered=False):
        self.lu = _factor(sp.csc_matrix(A), ordered)
        self.nnz = int(self.lu.nnz)

    def solve(self, rhs):
        return self.lu.solve(rhs)

    def release(self):
        """Free the factor, whoever still refers to this object; it cannot
        solve afterwards."""
        self.lu = None


def _refine(factor, residual, rhs, norm, start=None):
    """Solve with ``factor``, then refine on the system whose residual
    K x - rhs is ``residual(x)`` (``norm`` = ||K||_inf) until the
    normalized residual meets REFINE_TOL.

    Without ``start`` the first solve is M^-1 rhs (M the factored
    matrix).  With ``start`` = (x_k, its normalized residual res_k, its
    residual r_k) the first solve is a correction, x_k - M^-1 r_k, and
    refinement aims at REFINE_ETA res_k as well as at REFINE_TOL: the
    error to remove is then the size of x - x_k, not of x, and the goal
    below res_k keeps a step from stopping on a residual that only looks
    small next to ||x||.

    Refinement gives up once a step cuts the residual by less than
    REFINE_MIN_RATE, or once the observed rate predicts more than
    REFINE_MAX_STEPS steps in all; a step that does not lower the
    residual is not taken, and a NaN residual takes none.  Returns
    (x, normalized residual, refinement steps taken); the steps are the
    solves after the first.
    """
    if start is None:
        goal = REFINE_TOL
        x = factor.solve(rhs)
    else:
        x_k, res_k, r_k = start
        goal = min(REFINE_TOL, REFINE_ETA * res_k)
        x = x_k - factor.solve(r_k)
    r = residual(x)
    res = _normalized(r, x, rhs, norm)
    steps = 0
    while res > goal:
        x_new = x - factor.solve(r)
        r_new = residual(x_new)
        res_new = _normalized(r_new, x_new, rhs, norm)
        if not res_new < res:
            break
        x, r, res, prev = x_new, r_new, res_new, res
        steps += 1
        if res <= goal:
            break
        rate = prev / res
        if rate < REFINE_MIN_RATE or steps + np.log(res / goal) / np.log(rate) > REFINE_MAX_STEPS:
            break
    return x, res, steps


def _csc_gather(pos, rows, cols, n):
    """Gather positions, row indices and column pointers of the n x n CSC
    matrix whose entry (rows[k], cols[k]) is taken from position pos[k]."""
    order = np.argsort(cols * n + rows)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return pos[order].astype(np.intc), rows[order].astype(np.intc), indptr.astype(np.intc)


def _forest_matching(mesh, br, bubbles):
    """Each Brinkman triangle's matched bubble (``bubbles`` holds the
    reduced positions of its three edge bubbles, -1 where constrained),
    or -1 for a triangle the forest does not reach.

    The triangles form a graph through the free bubbles that two of them
    share, with one virtual root joined to every triangle that has a free
    bubble of its own alone (on the interface or a natural boundary).  A
    breadth-first search from the root gives each triangle it reaches a
    predecessor, and the triangle takes the bubble it shares with it; a
    triangle reached from the root takes its first such bubble.  So no
    set of matched bubbles closes a cycle of triangles.
    """
    m = br.tri_ids.size
    local = np.full(mesh.num_triangles, -1)
    local[br.tri_ids] = np.arange(m)
    ends = mesh.edge_tris[mesh.tri_edges[br.tri_ids]]
    other = np.where(ends[..., 0] == br.tri_ids[:, None], ends[..., 1], ends[..., 0])
    # The neighbour through each local edge: another Brinkman triangle,
    # the root (m), or none (-1) through a constrained bubble.
    nbr = np.where(other >= 0, local[other], -1)
    nbr[nbr < 0] = m
    nbr[bubbles < 0] = -1
    tri, k = np.nonzero(nbr >= 0)
    graph = sp.csr_matrix((np.ones(tri.size), (tri, nbr[tri, k])), shape=(m + 1, m + 1))
    _, pred = breadth_first_order(graph, m, directed=False, return_predecessors=True)
    pred = pred[:m]
    k = np.argmax(nbr == pred[:, None], axis=1)
    return np.where(pred >= 0, bubbles[np.arange(m), k], -1)


def _saddle_order(ws, reduced, rows, cols):
    """The reduced set ``reduced`` (positions in ``ws.free``, increasing)
    in the order its factor eliminates it, given the free system's
    pattern (``rows``, ``cols``, positions in ``ws.free``).

    A Brinkman pressure has a zero diagonal and meets the velocity,
    exactly, only through the three edge bubbles of its triangle.  So
    each pressure is matched to one free bubble of its own triangle,
    along a breadth-first forest of the triangles (``_forest_matching``):
    matched bubbles on a cycle of triangles would make the pairs' leading
    block singular, as the signed incidence of a cycle is.  The velocity
    and pressure graph, each pair merged into one node, is ordered by
    minimum degree (SuperLU's MMD on A^T + A, read from an incomplete
    factor of a diagonally dominant matrix with that graph, on
    single-column supernodes), and each pair is expanded bubble first.
    Eliminating the bubble first makes the pressure's pivot nonzero, so
    the factor can take its diagonal pivots in this order.  The gauge,
    if the layout has one, and then the multipliers come last: the rows
    that meet the Darcy block, which stay out of the node graph.  This is
    the constrained ordering of saddle-point LDL^T factors (M. Tuma, SIAM
    J. Matrix Anal. Appl. 23, 2002; A. C. de Niet and F. W. Wubs, IMA J.
    Numer. Anal. 29, 2009).
    """
    dof = ws.dofmap
    n = reduced.size
    at = np.full(dof.n_total, -1)
    at[ws.free[reduced]] = np.arange(n)
    pressures = at[ws.p_dof_B]
    mate = _forest_matching(ws.mesh, dof.br, at[dof.br.l2g[:, 6:]])
    paired = mate >= 0

    last = ws.free[reduced] >= dof.off_lam
    head = ~last
    head[pressures[paired]] = False
    heads = np.flatnonzero(head)
    node = np.full(n, -1)
    node[heads] = np.arange(heads.size)
    node[pressures[paired]] = node[mate[paired]]

    # The node graph, from the free system's pattern.
    node_of = np.full(ws.free.size, -1)
    node_of[reduced] = node
    r, c = node_of[rows], node_of[cols]
    keep = (r >= 0) & (c >= 0) & (r != c)
    r, c = r[keep], c[keep]
    m = heads.size
    diag = np.arange(m)
    dominant = sp.csc_matrix(
        (
            np.concatenate([-np.ones(r.size), np.bincount(c, minlength=m) + 1.0]),
            (np.concatenate([r, diag]), np.concatenate([c, diag])),
        ),
        shape=(m, m),
    )
    perm_c = spilu(
        dominant, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
        relax=1, panel_size=1,
    ).perm_c
    order = np.argsort(perm_c)

    partner = np.full(m, -1)
    partner[node[pressures[paired]]] = pressures[paired]
    pairs = np.column_stack([heads[order], partner[order]]).ravel()
    # The gauge is the last DOF; it goes before the multipliers.
    tail = np.roll(np.flatnonzero(last), int(dof.gauge_dof >= 0))
    return reduced[np.concatenate([pairs[pairs >= 0], tail])]


class CondensedLayout:
    """Where the blocks of the condensed solve sit in the free system.

    The free DOFs of a Workspace split into the Darcy set (``free_D``:
    free u_D and all p_D, increasing) and the reduced set (``free_R``:
    the rest, the gauge included), both as positions in ``ws.free``.
    ``free_R`` is in the elimination order of the reduced factor (see
    ``_saddle_order``): Brinkman velocities and pressures by minimum
    degree, each pressure right after a bubble of its triangle, then the
    gauge and the multipliers.  The two sets meet only in those last rows
    (``coupled``, positions in ``free_R``).  ``dd_*``, ``cd_*`` and
    ``rr_*`` gather, from the data of ``apply_constraints``' A_ff, the
    Darcy block in CSC order, the coupling of the ``coupled`` rows to the
    Darcy set, and the reduced block in CSC order with a dense block on
    the ``coupled`` rows and columns, so the reduced matrix arrives
    permuted; the source of the reduced gather is A_ff's data followed by
    that block (row-major).

    It depends on the Workspace alone; ``Discretization.build`` makes one
    per mesh, and nothing writes to it afterwards.
    """

    def __init__(self, ws):
        dof, free = ws.dofmap, ws.free
        darcy = np.zeros(dof.n_total, dtype=bool)
        darcy[dof.off_uD : dof.off_p] = True
        darcy[ws.p_dof_D] = True
        in_D = darcy[free]
        rows = np.repeat(np.arange(free.size), np.diff(ws.ff_indptr))
        cols = ws.ff_indices
        self.free_D = np.flatnonzero(in_D)
        self.free_R = _saddle_order(ws, np.flatnonzero(~in_D), rows, cols)
        local = np.empty(free.size, dtype=int)
        local[self.free_D] = np.arange(self.free_D.size)
        local[self.free_R] = np.arange(self.free_R.size)

        D_row, D_col = in_D[rows], in_D[cols]
        rows, cols = local[rows], local[cols]

        dd = np.flatnonzero(D_row & D_col)
        self.dd_pos, self.dd_indices, self.dd_indptr = _csc_gather(
            dd, rows[dd], cols[dd], self.free_D.size
        )
        self.cd_pos = np.flatnonzero(~D_row & D_col)
        self.coupled, self.cd_rows = np.unique(rows[self.cd_pos], return_inverse=True)
        self.cd_cols = cols[self.cd_pos]

        rr = np.flatnonzero(~D_row & ~D_col)
        n_c = self.coupled.size
        c_r, c_c = np.meshgrid(self.coupled, self.coupled, indexing="ij")
        self.rr_pos, self.rr_indices, self.rr_indptr = _csc_gather(
            np.concatenate([rr, cols.size + np.arange(n_c * n_c)]),
            np.concatenate([rows[rr], c_r.ravel()]),
            np.concatenate([cols[rr], c_c.ravel()]),
            self.free_R.size,
        )


def _same(a, b):
    """Equal values for numbers, identity for anything else (arrays,
    callables)."""
    if isinstance(a, numbers.Number) and isinstance(b, numbers.Number):
        return a == b
    return a is b


class StaticSystem:
    """What the Newton steps of a solve on one Discretization need from
    its linear system that F, p and the iterate do not change: the F = 0
    data and the Darcy unknowns eliminated.

    ``values`` is the F = 0 CSR data of ``assembly.NewtonSystem`` (the
    linear velocity blocks and the coupling block), which depends on mu,
    K_B and K_D.  The free u_D and p_D of the system of
    ``apply_constraints`` form a block A_DD that no Newton step changes.
    They meet the other unknowns only in the layout's ``coupled`` rows,
    the multipliers and the pressure gauge if there is one:
    C_D = A[coupled, D] (and the transposed columns).  This factors A_DD
    once, keeps

        X = A_DD^-1 C_D^T,  y = A_DD^-1 b_D,

    and releases the factor (``lu_nnz`` is its nnz(L+U)).  A Newton step
    then solves, factors and refines only the reduced system
    (``reduced``, ``reduced_rhs``): the other unknowns, in the layout's
    elimination order, with S_D = C_D X subtracted from the (empty)
    block of the coupled rows.  x_D = y - X x_C, x_C the coupled
    unknowns, recovers the rest (``recover``).

    The Darcy rows of the free system's residual at a recovered x are
    E_y - E_X x_C, E = A_DD [X y] - [C_D^T b_D], whatever the step.  So
    each column of E, normalized (``_normalized``) with ||A_DD||_inf,
    must meet LU_RESIDUAL_TOL here, or construction raises SolverError.

    b_D depends on the Darcy data alone (the Forchheimer terms act on u_B
    only, and the lift uses fixed prescribed values), so ``y`` serves
    every step; a right-hand side with another Darcy part is rejected.
    Build one with ``StaticSystem.build``.  It holds no factor, and
    nothing writes to it after it is built, so solves of several F on
    several threads may share it (``newton_solve``'s ``linear``); the
    caller that builds it owns it.
    """

    def __init__(self, disc, params, values, load, x):
        """The static system of ``params`` on ``disc``, from the F = 0
        data ``values`` of their Newton system (``assembly.static_values``),
        a load vector ``load`` whose Darcy rows are those of the problem
        data (``assembly.darcy_rhs``; other rows are not read) and a
        vector ``x`` that holds the prescribed values on the constrained
        DOFs.  The permeabilities must have passed
        ``check_permeabilities``."""
        ws, lo = disc.workspace, disc.layout
        self.disc = disc
        self.mu, self.K_B, self.K_D = params.mu, params.K_B, params.K_D
        self.values = values
        n_D, n_c = lo.free_D.size, lo.coupled.size
        matrix = sp.csc_matrix(
            (values[ws.ff_pos[lo.dd_pos]], lo.dd_indices, lo.dd_indptr), shape=(n_D, n_D)
        )
        self.coupling = sp.csr_matrix(
            (values[ws.ff_pos[lo.cd_pos]], (lo.cd_rows, lo.cd_cols)), shape=(n_c, n_D)
        )
        self.b = asm.lifted_rhs(ws, values, load, x)[lo.free_D]
        lu = _factor(matrix)
        self.lu_nnz = int(lu.nnz)
        rhs = np.hstack([self.coupling.T.toarray(), self.b[:, None]])
        Y = lu.solve(rhs)
        del lu
        E, norm = matrix @ Y - rhs, _norm_inf(matrix)
        res = np.max([_normalized(E[:, j], Y[:, j], rhs[:, j], norm) for j in range(n_c + 1)])
        if not res <= LU_RESIDUAL_TOL:
            raise SolverError(f"Darcy elimination residual {res:g} exceeds {LU_RESIDUAL_TOL:g}")
        self.X, self.y = Y[:, :n_c], Y[:, n_c]
        self.schur = -(self.coupling @ self.X).ravel()

    @classmethod
    def build(cls, disc, params, data):
        """The static system of ``params`` and ``data`` on the
        Discretization ``disc``; F and p do not enter it, and of the
        load only the Darcy rows are assembled."""
        ws, dofmap = disc.workspace, disc.dofmap
        asm.check_permeabilities(params, ws)
        x = np.zeros(dofmap.n_total)
        x[dofmap.constrained] = asm.prescribed_values(dofmap, disc.mesh, data)
        return cls(disc, params, asm.static_values(params, ws), asm.darcy_rhs(data, ws), x)

    def check(self, disc, params):
        """Raise ValueError unless a solve of ``params`` on ``disc`` may use
        this: the same Discretization object, and the mu, K_B and K_D it
        was built for (equal numbers; the same arrays or callables)."""
        if disc is not self.disc:
            raise ValueError("the static system was built on another Discretization")
        for name in ("mu", "K_B", "K_D"):
            if not _same(getattr(params, name), getattr(self, name)):
                raise ValueError(f"the static system was built for another {name}")

    def reduced(self, A):
        """The reduced block of the free system A as a CSC matrix."""
        lo = self.disc.layout
        n = lo.free_R.size
        data = np.concatenate([A.data, self.schur])[lo.rr_pos]
        return sp.csc_matrix((data, lo.rr_indices, lo.rr_indptr), shape=(n, n))

    def reduced_rhs(self, b):
        """The reduced system's right-hand side for the free system's b."""
        lo = self.disc.layout
        if not np.array_equal(b[lo.free_D], self.b):
            raise ValueError("the Darcy part of the right-hand side differs from the block's")
        rhs = b[lo.free_R]
        rhs[lo.coupled] -= self.coupling @ self.y
        return rhs

    def recover(self, x_R):
        """The solution of the free system from the reduced system's."""
        lo = self.disc.layout
        x_D = self.y - self.X @ x_R[lo.coupled]
        x = np.empty(x_R.size + x_D.size)
        x[lo.free_R] = x_R
        x[lo.free_D] = x_D
        return x


class LinearSolve(NamedTuple):
    """What ``sparse_lu_solve`` returns.

    ``residual`` is the normalized residual of the reduced system at the
    accepted solution, ``lu_nnz`` nnz(L+U) of the reduced factor that served,
    ``refinements`` the refinement steps run, the solves with a factor
    after its first (those with an abandoned held or ordered factor
    included), ``factored`` whether the call computed that factor, and
    ``factor`` that LUFactor, which a later step may pass as ``held``.
    ``step_residual`` is the normalized residual of the reduced system
    at the given iterate (the nonlinear residual of a Newton step on the
    reduced unknowns).
    """

    x: np.ndarray
    residual: float
    lu_nnz: int
    refinements: int
    factored: bool
    factor: LUFactor
    step_residual: float


def sparse_lu_solve(A, b, static, iterate, held=None):
    """Solve the free system A x = b through the StaticSystem ``static``
    of its Newton solve.

    Only the reduced system of ``static`` is factored and refined; the
    Darcy part of x comes from ``static``.  ``iterate`` holds the reduced
    unknowns of the current Newton iterate x_k, in the layout's order
    (``CondensedLayout.free_R``).

    ``held``, the factor of an earlier step on the same pattern, is tried
    first.  Refinement with it starts from x_k and refines the correction
    (see ``_refine``): a held factor is inexact by the Jacobian's change
    since it was made, and the error it leaves is then relative to the
    Newton increment, not to the iterate.  It serves only if refinement
    meets REFINE_TOL under the rules of ``_refine``; otherwise the call
    releases it and factors the reduced system in the layout's
    elimination order with diagonal pivots, which keeps its fill fixed by
    the pattern.  That factor is held to the same rule, and when it
    misses it is released and the system factored with COLAMD and
    partial pivoting.  The factor that served is returned as
    ``LinearSolve.factor``.

    Fresh factors refine from M^-1 rhs.  A correction from x_k leaves
    round-off of the size of x_k, which the normalized residual, scaled
    by the solution, does not forgive when the solution is much smaller
    than x_k, as in the first steps of some solves; the hold rule
    (HOLD_INCREMENT) keeps a held step's solution close to x_k in size.

    Whichever factor served, the normalized residual of the reduced
    system must meet LU_RESIDUAL_TOL (``static`` checked the Darcy part).
    Raises SingularSystemError on an exactly singular pivot or a
    non-finite solution and SolverError when the residual misses the
    bound (a NaN residual does).  Returns a LinearSolve.
    """
    K, rhs = static.reduced(A), static.reduced_rhs(b)
    norm = _norm_inf(K)

    def residual(x):
        return K @ x - rhs

    r_k = residual(iterate)
    step_res = _normalized(r_k, iterate, rhs, norm)
    # The held factor, from x_k, then the ordered factor and the
    # pivoting factor, from M^-1 rhs: each serves if refinement with it
    # meets REFINE_TOL, the last one always.
    tries = [] if held is None else [(lambda: held, (iterate, step_res, r_k))]
    tries += [
        (lambda: LUFactor(K, ordered=True), None),
        (lambda: LUFactor(K), None),
    ]
    steps = 0
    for make, first in tries:
        factor = make()
        x, res, more = _refine(factor, residual, rhs, norm, first)
        steps += more
        if res <= REFINE_TOL or make is tries[-1][0]:
            break
        factor.release()
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("sparse LU produced non-finite values")
    if not res <= LU_RESIDUAL_TOL:
        raise SolverError(f"direct solve residual {res:g} exceeds {LU_RESIDUAL_TOL:g}")
    return LinearSolve(static.recover(x), res, factor.nnz, steps, factor is not held, factor, step_res)


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
    residual of the linear solve on the reduced system, the normalized
    residual of the step's reduced system at the iterate the step starts
    from (``step_residuals``: the nonlinear residual on the reduced
    unknowns, normalized as ``_normalized`` does), nnz(L+U) of the factor
    that iteration used (of the reduced block, with the Darcy unknowns
    eliminated and the pressure gauge, if any, one of its rows), the
    refinement steps it ran (the solves with a factor
    after its first; see ``LinearSolve``) and whether it factored: an
    iteration that did not reused the factor its solve held from an
    earlier one, and refined the correction from its iterate.  The
    reduced block is factored in the layout's order with diagonal pivots,
    so its nnz(L+U) depends on the mesh and the boundary-condition layout
    alone; only a factor that fell back to partial pivoting reports
    another.  ``darcy_lu_nnz`` is nnz(L+U) of the Darcy block, factored
    with partial pivoting once per StaticSystem, which solves of several
    F may share, so it may move with rounding.  Every factor is on tight
    supernodes (``_factor``), so neither count includes padding.

    ``final_residual`` is the max-norm of the nonlinear residual at the
    last iterate over the free rows (``NewtonSystem.residual``), computed
    once per solve, converged or not.  It is not normalized, so it grows
    with the scale of the data and with F.
    """

    iterations: int
    increments: list
    linear_residuals: list
    step_residuals: list
    lu_nnz: list
    refinements: list
    factored: list
    converged: bool
    dof: int
    tol: float
    darcy_lu_nnz: int
    final_residual: float

    def __str__(self):
        state = "converged" if self.converged else "NOT converged"
        return (
            f"{state} in {self.iterations} iterations "
            f"(dof={self.dof}, last increment={self.increments[-1]:.3e})"
        )


@dataclass(frozen=True, eq=False)
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
    the eliminated Darcy block) is computed per solve, or held by a
    StaticSystem that its caller keeps, and never stored here.
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


def newton_solve(disc, params, data, options=None, linear=None):
    """Solve the coupled nonlinear problem on a mesh.

    ``disc`` is a Discretization to reuse: solves of several (params,
    data) on one mesh share its set-up and assemble on its quadrature.
    It may also be a Mesh, discretized for this solve alone on the
    default quadrature of ``Discretization.build``.  ``linear`` is a
    StaticSystem built on ``disc`` for the mu, K_B, K_D and Darcy data of
    this solve, which solves that differ only in F or p may share; with
    None the solve builds its own.  Returns (SolutionFields,
    SolveReport).  The iteration count equals the number of linear
    solves performed.

    Raises ValueError for options out of range (``max_iter`` < 1,
    ``tol`` <= 0), for data whose boundary-condition layout (constrained
    DOFs, pressure gauge) differs from the Discretization's, and for a
    ``linear`` built on another Discretization, for other mu, K_B or K_D
    (see ``StaticSystem.check``) or for other Darcy data.  Raises
    SolverError, naming the Newton iteration, when an assembled system is
    not finite or its linear solve fails.
    """
    opts = options or NewtonOptions()
    if opts.max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {opts.max_iter}")
    if not opts.tol > 0.0:
        raise ValueError(f"tol must be > 0, got {opts.tol}")
    if linear is not None:
        linear.check(disc, params)
    if not isinstance(disc, Discretization):
        disc = Discretization.build(disc, data)
    mesh, interface, dofmap, ws = disc.mesh, disc.interface, disc.dofmap, disc.workspace
    if linear is None:
        asm.check_permeabilities(params, ws)

    x = np.zeros(dofmap.n_total)
    init = np.asarray(opts.initial, dtype=float)
    x[: dofmap.n_uB] = interpolate_br(
        lambda pts: np.broadcast_to(init, (len(pts), 2)).copy(), mesh, space=dofmap.br
    )
    x[dofmap.constrained] = asm.prescribed_values(dofmap, mesh, data)

    if linear is None:
        system = asm.NewtonSystem(params, data, ws)
        linear = StaticSystem(disc, params, system.static, system.load, x)
    else:
        system = asm.NewtonSystem(params, data, ws, linear.values)
    held = None
    affine = params.forchheimer == 0.0
    # The Newton map feeds back only through the velocity iterate, so the
    # Cauchy test runs on the velocity coefficient block.
    nv = dofmap.n_uB + dofmap.n_uD
    increments = []
    residuals = []
    step_residuals = []
    lu_nnz = []
    refinements = []
    factored = []
    converged = False

    max_iter = 1 if affine else opts.max_iter
    for it in range(1, max_iter + 1):
        values, rhs = system.at(x)
        if not (np.isfinite(values).all() and np.isfinite(rhs).all()):
            raise SolverError(f"assembled system is not finite at Newton iteration {it}")
        A, b = asm.apply_constraints(ws, values, rhs, x)
        del values, rhs
        try:
            x_free, res, nnz, steps, fresh, held, step_res = sparse_lu_solve(
                A, b, linear, x[ws.free][disc.layout.free_R], held
            )
        except SolverError as exc:
            raise SolverError(f"linear solve failed at Newton iteration {it}: {exc}") from exc
        # Nothing of this iteration's system outlives its solve.
        del A, b
        residuals.append(res)
        step_residuals.append(step_res)
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
        # The factor is held for the next step only while the iteration
        # has settled.
        if not inc <= HOLD_INCREMENT:
            held = None

    fields = SolutionFields(
        x=x, dofmap=dofmap, mesh=mesh, interface=interface, quad_degree=ws.degree
    )
    report = SolveReport(
        iterations=len(increments),
        increments=increments,
        linear_residuals=residuals,
        step_residuals=step_residuals,
        lu_nnz=lu_nnz,
        refinements=refinements,
        factored=factored,
        converged=converged,
        dof=dofmap.n_free,
        tol=opts.tol,
        darcy_lu_nnz=linear.lu_nnz,
        final_residual=float(np.abs(system.residual(x)).max()),
    )
    return fields, report
