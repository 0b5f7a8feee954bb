"""Weak forms, degrees of freedom and sparse assembly of the coupled system.

The unknown vector is laid out as [u_B | u_D | p | lambda | gauge] where
u_B holds Bernardi-Raugel coefficients, u_D Raviart-Thomas fluxes, p one
constant per triangle (both regions), lambda the interface multiplier
nodes, and gauge an optional scalar that fixes the pressure mean when no
natural boundary condition does: its row and column hold the triangle
areas on the pressures, so its row is the mean-zero condition.

The nonlinear operator on the velocity pair is

    [a(u), v] = mu (grad u_B, grad v_B) + (K_B^-1 u_B, v_B)
                + F (|u_B|^(p-2) u_B, v_B) + (K_D^-1 u_D, v_D)

and its Gateaux derivative at w adds the rank-one Forchheimer coupling
F (p-2) (|w|^(p-4) (w . u) w, v).  The linearized step solves for the new
iterate directly, with the correction F (p-2) (|w|^(p-2) w, v) on the
right-hand side; ``NewtonSystem`` forms each step's system and the
residual of an iterate.  ``forchheimer_map`` is the one pointwise form
of phi(w) = |w|^(p-2) w and of its derivative.

Every matrix lives on the one CSR pattern a ``Workspace`` builds per
mesh, and ``apply_constraints`` restricts it to the free DOFs by index.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .mesh import GAMMA_B_TAGS, GAMMA_D_TAGS

# Brinkman triangles per chunk of the Forchheimer element matrices: at
# 256 each per-quadrature-point temporary stays below 0.5 MB on the
# degree-6 rule.
FORCHHEIMER_CHUNK = 256

# Gauss points per edge of every edge integral: prescribed fluxes, the
# interface terms and the natural boundary terms.
EDGE_POINTS = 4


def zero_vector(pts, normals=None):
    return np.zeros((len(pts), 2))


def zero_scalar(pts, normals=None):
    return np.zeros(len(pts))


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity, Forchheimer law and permeabilities.

    ``K_B`` and ``K_D`` accept a positive scalar, a symmetric positive
    definite 2x2 array, or a callable mapping (n, 2) points to (n, 2, 2)
    tensors.  ``power`` is the Forchheimer exponent p in [3, 4].  Every
    number must be finite; a callable's values are checked by
    ``check_permeabilities``.
    """

    mu: float = 1.0
    forchheimer: float = 0.0
    power: float = 3.0
    K_B: object = 1.0
    K_D: object = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"viscosity must be positive and finite, got mu={self.mu}")
        if not 0.0 <= self.forchheimer < np.inf:
            raise ValueError(f"Forchheimer coefficient must be finite, >= 0: F={self.forchheimer}")
        if not 3.0 <= self.power <= 4.0:
            raise ValueError(f"exponent out of range [3,4]: p={self.power}")
        for name in ("K_B", "K_D"):
            K = getattr(self, name)
            if not callable(K) and not np.isfinite(np.asarray(K, dtype=float)).all():
                raise ValueError(f"{name} must be finite, got {K}")


def tensor_field(K, pts):
    """Evaluate a permeability specification as (n, 2, 2) tensors."""
    if callable(K):
        T = np.asarray(K(pts), dtype=float)
        if T.shape != (len(pts), 2, 2):
            raise ValueError("permeability callable must return (n, 2, 2) tensors")
        return T
    K = np.asarray(K, dtype=float)
    if K.ndim == 0:
        K = float(K) * np.eye(2)
    if K.shape != (2, 2):
        raise ValueError("permeability must be a scalar, a 2x2 array, or a callable")
    return np.broadcast_to(K, (len(pts), 2, 2))


def _invert(T):
    """Inverses of a stack of 2x2 tensors, (n, 2, 2) -> (n, 2, 2)."""
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    inv = np.empty(T.shape)
    inv[:, 0, 0] = T[:, 1, 1]
    inv[:, 1, 1] = T[:, 0, 0]
    inv[:, 0, 1] = -T[:, 0, 1]
    inv[:, 1, 0] = -T[:, 1, 0]
    return inv / det[:, None, None]


def inverse_tensor_field(K, pts):
    """The inverse of a permeability specification as (n, 2, 2) tensors.

    A constant tensor is inverted once and broadcast to every point, with
    the same arithmetic per entry as a field of tensors.  The result is a
    contiguous array either way, so the products that use it do not
    depend on which kind of K it came from.
    """
    if callable(K):
        return _invert(tensor_field(K, pts))
    inv = _invert(tensor_field(K, np.zeros((1, 2))))[0]
    return np.broadcast_to(inv, (len(pts), 2, 2)).copy()


def check_permeabilities(params, ws):
    """Verify both permeability tensors are SPD at all quadrature points
    of the Workspace ``ws``.

    A constant tensor is the same at every point, so it is checked once.
    """
    for name, K, qpts in (("K_B", params.K_B, ws.qpts_B), ("K_D", params.K_D, ws.qpts_D)):
        if callable(K):
            T = tensor_field(K, qpts.reshape(-1, 2))
        else:
            T = tensor_field(K, np.zeros((1, 2)))
        if not np.isfinite(T).all():
            raise ValueError(f"{name} must be finite")
        asym = np.abs(T - T.transpose(0, 2, 1)).max()
        if asym > 1e-12 * (1.0 + np.abs(T).max()):
            raise ValueError(f"{name} must be symmetric (asymmetry {asym:g})")
        lam_min = np.linalg.eigvalsh(T).min()
        if lam_min <= 0.0:
            raise ValueError(f"{name} must be positive definite (min eigenvalue {lam_min:g})")


@dataclass(frozen=True)
class ProblemData:
    """Sources and boundary data of one filtration problem.

    Callable conventions (all vectorized over an (n, 2) point array):
    sources ``f_B``/``f_D`` return (n, 2), ``g_D`` returns (n,).
    ``velocity_bc`` maps each Brinkman boundary tag to ("dirichlet", g)
    with g(pts) -> (n, 2) or ("traction", t) with t(pts, normals) ->
    (n, 2); ``darcy_bc`` maps each Darcy tag to ("flux", q) with
    q(pts, normals) -> (n,) or ("pressure", pbar) with pbar(pts) -> (n,).
    ``interface_traction``, if given, adds <t, v_B> on the interface to
    the right-hand side (manufactured problems need it to compensate the
    normal-stress mismatch of the chosen exact fields).
    """

    f_B: object = zero_vector
    f_D: object = zero_vector
    g_D: object = zero_scalar
    velocity_bc: dict = None
    darcy_bc: dict = None
    interface_traction: object = None

    def __post_init__(self):
        vbc = dict(self.velocity_bc) if self.velocity_bc else {}
        dbc = dict(self.darcy_bc) if self.darcy_bc else {}
        for tag in GAMMA_B_TAGS:
            vbc.setdefault(tag, ("dirichlet", zero_vector))
        for tag in GAMMA_D_TAGS:
            dbc.setdefault(tag, ("flux", zero_scalar))
        for tag, (kind, _) in vbc.items():
            if tag not in GAMMA_B_TAGS:
                raise ValueError(f"unknown velocity boundary tag {tag!r}")
            if kind not in ("dirichlet", "traction"):
                raise ValueError(f"velocity BC kind must be dirichlet|traction, got {kind!r}")
        for tag, (kind, _) in dbc.items():
            if tag not in GAMMA_D_TAGS:
                raise ValueError(f"unknown Darcy boundary tag {tag!r}")
            if kind not in ("flux", "pressure"):
                raise ValueError(f"Darcy BC kind must be flux|pressure, got {kind!r}")
        object.__setattr__(self, "velocity_bc", vbc)
        object.__setattr__(self, "darcy_bc", dbc)

    @property
    def gauge_pressure(self):
        """True when only essential conditions are given, so the pressure
        is defined up to a constant and needs the mean-zero gauge."""
        essential = all(k == "dirichlet" for k, _ in self.velocity_bc.values()) and all(
            k == "flux" for k, _ in self.darcy_bc.values()
        )
        return essential


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global numbering [u_B | u_D | p | lambda | gauge] of one
    boundary-condition layout.

    ``constrained`` lists, in increasing order, the essential DOFs of the
    layout: Dirichlet vertex and bubble values on the Brinkman boundary
    and prescribed fluxes on the Darcy boundary.  They are not unknowns of
    the linear solve: ``apply_constraints`` keeps only the free rows and
    columns and moves the constrained columns, times the prescribed
    values, to the right-hand side.

    The map depends on which boundary tags carry essential data, never on
    the data's values, so one DofMap serves every problem with the same
    layout.  ``prescribed_values`` evaluates the values of one problem.
    """

    br: el.BRSpace
    rt: el.RT0Space
    n_uB: int
    n_uD: int
    n_p: int
    n_lam: int
    off_uD: int
    off_p: int
    off_lam: int
    gauge_dof: int
    n_total: int
    constrained: np.ndarray

    @property
    def n_fields(self):
        return self.n_uB + self.n_uD + self.n_p + self.n_lam

    @property
    def n_free(self):
        return self.n_fields - self.constrained.size

    def split(self, x):
        """Views of a solution vector: (u_B, u_D, p, lam)."""
        return (
            x[: self.n_uB],
            x[self.off_uD : self.off_uD + self.n_uD],
            x[self.off_p : self.off_p + self.n_p],
            x[self.off_lam : self.off_lam + self.n_lam],
        )


def _edge_points(mesh, eids, npts):
    t, w = el.edge_rule(npts)
    return el.points_on_edges(mesh, eids, t), mesh.edge_lengths[eids][:, None] * w[None, :]


def _essential_blocks(mesh, br, rt, off_uD, data):
    """(kind, fn, eids, dofs) of every boundary tag with essential data and
    at least one edge, in the order its prescriptions apply.  A Dirichlet
    block's dofs are the (x, y) pairs of its vertices, then its bubbles."""
    blocks = []
    for bcs, essential in ((data.velocity_bc, "dirichlet"), (data.darcy_bc, "flux")):
        for tag, (kind, fn) in bcs.items():
            if kind != essential:
                continue
            eids = mesh.edges_with_tag(tag)
            if eids.size == 0:
                continue
            if kind == "dirichlet":
                vl = br.vertex_local[np.unique(mesh.edges[eids])]
                bubbles = 2 * br.vertex_ids.size + br.edge_local[eids]
                dofs = np.concatenate([np.stack([2 * vl, 2 * vl + 1], axis=1).ravel(), bubbles])
            else:
                dofs = off_uD + rt.edge_local[eids]
            blocks.append((kind, fn, eids, dofs))
    return blocks


def build_dofmap(mesh, interface, data):
    """Number the unknowns for the boundary-condition layout of ``data``.

    Only the kinds of boundary data matter, not their values."""
    br = el.br_space(mesh)
    rt = el.rt0_space(mesh)
    n_uB, n_uD = br.n_dofs, rt.n_dofs
    n_p = mesh.num_triangles
    n_lam = interface.num_nodes
    off_uD = n_uB
    off_p = off_uD + n_uD
    off_lam = off_p + n_p
    gauge_dof = off_lam + n_lam if data.gauge_pressure else -1
    n_total = off_lam + n_lam + (1 if data.gauge_pressure else 0)
    blocks = _essential_blocks(mesh, br, rt, off_uD, data)
    constrained = np.unique(np.concatenate([np.empty(0, dtype=int)] + [b[3] for b in blocks]))

    return DofMap(
        br=br,
        rt=rt,
        n_uB=n_uB,
        n_uD=n_uD,
        n_p=n_p,
        n_lam=n_lam,
        off_uD=off_uD,
        off_p=off_p,
        off_lam=off_lam,
        gauge_dof=gauge_dof,
        n_total=n_total,
        constrained=constrained,
    )


def prescribed_values(dofmap, mesh, data):
    """The values of ``data``'s essential conditions on ``dofmap.constrained``.

    Dirichlet vertex DOFs take the data at the vertex, bubbles and Darcy
    fluxes its flux through the edge (4-point edge rule).  A DOF shared by
    two boundary tags takes the later prescription, which must agree with
    the earlier one.  Raises ValueError on conflicting prescriptions and
    when ``data`` has another boundary-condition layout than the one the
    map was built for.
    """
    if data.gauge_pressure != (dofmap.gauge_dof >= 0):
        raise ValueError(
            "the data's pressure gauge does not match the DOF map: "
            f"data gauge={data.gauge_pressure}, map gauge={dofmap.gauge_dof >= 0}"
        )
    normals = mesh.outward_normals()
    dofs, vals = [np.empty(0, dtype=int)], [np.empty(0)]
    for kind, fn, eids, block_dofs in _essential_blocks(
        mesh, dofmap.br, dofmap.rt, dofmap.off_uD, data
    ):
        pts, wts = _edge_points(mesh, eids, EDGE_POINTS)
        if kind == "dirichlet":
            vertex_vals = np.asarray(fn(mesh.vertices[np.unique(mesh.edges[eids])]), dtype=float)
            gv = np.asarray(fn(pts.reshape(-1, 2))).reshape(pts.shape)
            vals += [vertex_vals.ravel(), np.einsum("eq,eqd,ed->e", wts, gv, normals[eids])]
        else:
            nrm = np.repeat(normals[eids][:, None, :], pts.shape[1], axis=1)
            qv = np.asarray(fn(pts.reshape(-1, 2), nrm.reshape(-1, 2))).reshape(wts.shape)
            vals.append(np.einsum("eq,eq->e", wts, qv))
        dofs.append(block_dofs)
    dofs, vals = np.concatenate(dofs), np.concatenate(vals)

    order = np.argsort(dofs, kind="stable")
    dofs, vals = dofs[order], vals[order]
    shared = dofs[1:] == dofs[:-1]
    clash = shared & (np.abs(vals[1:] - vals[:-1]) > 1e-12 * (1.0 + np.abs(vals[1:])))
    if clash.any():
        k = int(np.flatnonzero(clash)[0])
        raise ValueError(
            f"conflicting prescriptions on shared DOF {int(dofs[k])}: "
            f"{float(vals[k])!r} vs {float(vals[k + 1])!r}"
        )
    last = np.ones(dofs.size, dtype=bool)
    last[:-1] = ~shared
    if not np.array_equal(dofs[last], dofmap.constrained):
        raise ValueError(
            "the data's essential boundary conditions do not match the DOF map: "
            f"{int(last.sum())} constrained DOFs against {dofmap.constrained.size}"
        )
    return vals[last]


class Workspace:
    """Per-mesh assembly context: basis coefficients, the operator's CSR
    pattern and the restriction to free DOFs.

    The Brinkman basis has one stored form: the Bernardi-Raugel value
    coefficients on the six value monomials (``coef_B``, see
    ``elements.br_coefficients``); every value integral contracts them
    with the ``monomials`` at the rule's points.  The stiffness derives
    the gradient coefficients by the chain rule
    (``elements.br_gradients``) and contracts them with ``grad_gram``, the
    4x4 Gram sum_q w_q b_s b_t of the gradient monomials on the reference
    rule; the element weights are 2 |T| times the rule's.  On the Darcy triangles it keeps the
    Raviart-Thomas coefficients on the barycentric coordinates
    (``coef_D``).  ``_mass_block`` forms the mass blocks of both spaces.

    The spaces on a fixed mesh give an operator whose sparsity never
    changes, so the pattern is built once here.  Each velocity block has
    a slot array (``slots_B``, ``slots_D``) mapping its element entries to
    positions in the CSR ``data``; assembling is one ``np.bincount`` per
    block.  The coupling block, -(q, div v_B) - (q, div v_D) on the
    pressure rows, <v_B . n - v_D . n, xi> on the multiplier rows, the
    triangle areas on the gauge row when the layout has a gauge, and the
    transposes on the velocity and pressure rows, depends on the mesh
    alone and follows from the degrees of freedom (``_coupling_entries``);
    its data (``b_data``) is assembled here once, and the pattern holds
    its slots whose entries sum to nonzero.  The gauge has no diagonal
    slot.  ``free`` lists the unconstrained DOFs (the gauge scalar
    included), and ``apply_constraints`` gathers the free-free submatrix
    and lifts the constrained columns with index arrays built here.  The edge tables of the natural boundary terms are
    kept per boundary tag in ``natural``, and that of the interface
    traction in ``interface_edges`` (``_edge_table``).  ``degree`` is the
    degree of the triangle quadrature rule every integral is assembled on.

    Index and position arrays the per-iteration gathers use are 32-bit,
    the width scipy.sparse and SuperLU store, so no gather converts them.

    A workspace holds only what the mesh, the DOF layout and the
    quadrature determine, and nothing writes to it after construction:
    everything that depends on the parameters or on the problem data
    (inverse permeabilities, prescribed values, loads) is computed per
    call.  One workspace can therefore serve many solves, also on several
    threads at once.
    """

    def __init__(self, mesh, interface, dofmap, degree):
        self.mesh = mesh
        self.interface = interface
        self.dofmap = dofmap
        self.degree = degree
        rule = el.quad_rule(degree)
        self.rule = rule

        br, rt = dofmap.br, dofmap.rt
        tb = br.tri_ids
        self.verts_B = mesh.vertices[mesh.triangles[tb]]
        self.signs_B = mesh.tri_edge_signs[tb]
        self.area_B = mesh.areas[tb]
        self.qpts_B = el.physical_points(self.verts_B, rule.bary)
        self.wq_B = 2.0 * self.area_B[:, None] * rule.weights[None, :]
        self.coef_B = el.br_coefficients(self.verts_B, self.signs_B)
        self.monomials = el.value_monomials(rule.bary)
        b = el.gradient_monomials(rule.bary)
        self.grad_gram = (rule.weights[:, None] * b).T @ b

        td = rt.tri_ids
        self.verts_D = mesh.vertices[mesh.triangles[td]]
        self.signs_D = mesh.tri_edge_signs[td]
        self.area_D = mesh.areas[td]
        self.qpts_D = el.physical_points(self.verts_D, rule.bary)
        self.wq_D = 2.0 * self.area_D[:, None] * rule.weights[None, :]
        # An RT0 function is affine, so its coefficient on eta_i is its
        # value at vertex P_i.
        self.coef_D, _ = el.rt0_basis(self.verts_D, self.signs_D, self.verts_D)

        self.p_dof_B = dofmap.off_p + tb
        self.p_dof_D = dofmap.off_p + td

        self._build_edge_tables()
        self._build_pattern()

    def _build_edge_tables(self):
        """Edge tables of every boundary tag with natural data in this
        layout (its edge DOFs are free) and of the interface traction."""
        mesh, dof = self.mesh, self.dofmap
        edge_dofs = {
            **{tag: 2 * dof.br.vertex_ids.size + dof.br.edge_local for tag in GAMMA_B_TAGS},
            **{tag: dof.off_uD + dof.rt.edge_local for tag in GAMMA_D_TAGS},
        }
        self.natural = {}
        for tag, dofs in edge_dofs.items():
            eids = mesh.edges_with_tag(tag)
            if eids.size == 0 or (dof.constrained == dofs[eids[0]]).any():
                continue
            self.natural[tag] = self._edge_table(eids, mesh.edge_tris[eids, 0], tag in GAMMA_B_TAGS)
        iface = self.interface
        self.interface_edges = self._edge_table(iface.edge_ids, iface.tri_B, True)

    def _edge_table(self, eids, tri, brinkman):
        """Points, normals, weights, basis traces and global DOFs on the
        edges ``eids``, each seen from its triangle ``tri``: the values of
        the nine Bernardi-Raugel functions of a Brinkman triangle, or the
        normal trace of the one Raviart-Thomas function of the edge, 1/|e|
        along the global normal (the other two have none on it)."""
        mesh, dof = self.mesh, self.dofmap
        pts, wts = _edge_points(mesh, eids, EDGE_POINTS)
        nrm = np.repeat(mesh.outward_normals()[eids][:, None, :], EDGE_POINTS, axis=1)
        if brinkman:
            t, _ = el.edge_rule(EDGE_POINTS)
            bary = el.edge_bary(mesh.triangles, mesh.edges[eids], tri, t)
            local = np.searchsorted(dof.br.tri_ids, tri)
            basis = el.br_values(self.coef_B[local], bary)
            l2g = dof.br.l2g[local]
        else:
            basis = np.repeat(1.0 / mesh.edge_lengths[eids][:, None, None], EDGE_POINTS, axis=2)
            l2g = dof.off_uD + dof.rt.edge_local[eids][:, None]
        return pts, nrm, wts, basis, l2g

    def _build_pattern(self):
        dof = self.dofmap
        n = dof.n_total
        l2g_B = dof.br.l2g
        l2g_D = dof.off_uD + dof.rt.l2g
        # The coupling slots are those whose entries sum to nonzero: the
        # middle vertex of a macro edge of two equally long edges meets
        # neither of its hats.
        rows_b, cols_b, vals_b = _coupling_entries(self)
        keys_b, at = np.unique(rows_b * n + cols_b, return_inverse=True)
        vals_b = np.bincount(at, vals_b)
        kept = vals_b != 0.0
        velocity = [(l2g[:, :, None] * n + l2g[:, None, :]).ravel() for l2g in (l2g_B, l2g_D)]
        keys, slots = np.unique(np.concatenate(velocity + [keys_b[kept]]), return_inverse=True)
        rows, cols = np.divmod(keys, n)
        self.nnz = keys.size
        self.indices = cols.astype(np.intc)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        sizes = np.cumsum([k.size for k in velocity])
        self.slots_B, self.slots_D, slots_b = np.split(slots.astype(np.intc), sizes)
        self.b_data = self.scatter(slots_b, vals_b[kept])

        is_free = np.ones(n, dtype=bool)
        is_free[dof.constrained] = False
        self.free = np.flatnonzero(is_free)
        reduced = np.full(n, -1)
        reduced[self.free] = np.arange(self.free.size)
        ff = is_free[rows] & is_free[cols]
        self.ff_pos = np.flatnonzero(ff).astype(np.intc)
        self.ff_indices = reduced[cols[ff]].astype(np.intc)
        self.ff_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(reduced[rows[ff]], minlength=self.free.size))]
        )
        lift = is_free[rows] & ~is_free[cols]
        self.lift_pos = np.flatnonzero(lift)
        self.lift_rows = reduced[rows[lift]]
        self.lift_cols = cols[lift]

    def scatter(self, slots, local):
        """CSR data holding the local entries ``local`` summed into ``slots``."""
        return np.bincount(slots, local.ravel(), minlength=self.nnz)

    def csr(self, data):
        """The n_total x n_total CSR matrix with ``data`` on this pattern."""
        n = self.dofmap.n_total
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def kinv_B(self, params):
        """K_B^-1 at the Brinkman quadrature points, (m, nq, 2, 2)."""
        return _inverse_at(params.K_B, self.qpts_B)

    def kinv_D(self, params):
        """K_D^-1 at the Darcy quadrature points, (m, nq, 2, 2)."""
        return _inverse_at(params.K_D, self.qpts_D)


def _inverse_at(K, qpts):
    return inverse_tensor_field(K, qpts.reshape(-1, 2)).reshape(*qpts.shape[:2], 2, 2)


def forchheimer_weight(w, power):
    """|w|^(p-2) (...) at points ``w`` (..., 2): the weight of phi(w)."""
    return np.linalg.norm(w, axis=-1) ** (power - 2.0)


def forchheimer_map(w, power):
    """The Forchheimer map phi(w) = |w|^(p-2) w at points ``w`` (..., 2),
    as its weight (``forchheimer_weight``) and its derivative
    D phi(w) = |w|^(p-2) I + (p-2) |w|^(p-4) w w^T (..., 2, 2).

    For p in [3, 4] the weight is continuous and 0 at w = 0, and so is the
    rank-one term; only |w|^(p-4), infinite at w = 0 for p < 4, needs a
    guard, and the rank-one term is 0 wherever it is not finite.
    """
    weight = forchheimer_weight(w, power)
    with np.errstate(divide="ignore", over="ignore"):
        rank_one = (power - 2.0) * np.linalg.norm(w, axis=-1) ** (power - 4.0)
    rank_one = np.where(np.isfinite(rank_one), rank_one, 0.0)
    jacobian = rank_one[..., None, None] * w[..., :, None] * w[..., None, :]
    jacobian += weight[..., None, None] * np.eye(2)
    return weight, jacobian


def _field(coeffs, basis):
    """The field sum_a coeffs[m, a] basis[m, a, ...] of each element,
    (m, nb) x (m, nb, ...) -> (m, ...)."""
    m, nb = basis.shape[:2]
    return (coeffs[:, None, :] @ basis.reshape(m, nb, -1)).reshape((m,) + basis.shape[2:])


def _load(basis, g):
    """Element loads sum_... basis[m, a, ...] g[m, ...], with any
    quadrature weights already folded into g: (m, nb, ...) -> (m, nb)."""
    m, nb = basis.shape[:2]
    return (basis.reshape(m, nb, -1) @ g.reshape(m, -1, 1))[..., 0]


def _gram(left, right):
    """Element matrices sum_q,... left[m, a, q, ...] right[m, b, q, ...],
    with the quadrature weights already folded into ``left``."""
    m = left.shape[0]
    right = right.reshape(m, right.shape[1], -1)
    return left.reshape(m, left.shape[1], -1) @ right.transpose(0, 2, 1)


def _mass_block(coef, wq, kinv, monomials):
    """Element matrices sum_q w_q phi_b . K^-1 phi_a, (m, nb, nb), of the
    functions with coefficients ``coef`` (m, nb, k, 2) on k monomials,
    from the weights ``wq`` (m, nq), a tensor K^-1 (m, nq, 2, 2) and the
    monomials (nq, k) at the quadrature points."""
    m, nb, k = coef.shape[:3]
    # T = w_q K^-1 at each point; gram[(t, i), (s, j)] = sum_q P_t P_s T_ij.
    # One small product per triangle: a single (4 m, nq) x (nq, k^2) product
    # is large enough for BLAS to start its own threads, which then compete
    # with the solves of the CLI's thread pool.
    T = (wq[..., None, None] * kinv).reshape(m, -1, 4)
    gram = T.transpose(0, 2, 1) @ (monomials[:, :, None] * monomials[:, None, :]).reshape(-1, k * k)
    gram = gram.reshape(m, 2, 2, k, k).transpose(0, 3, 1, 4, 2).reshape(m, 2 * k, 2 * k)
    v = coef.reshape(m, nb, 2 * k)
    # Row a of v @ gram^T is T phi_a against the monomials.
    return _gram(v @ gram.transpose(0, 2, 1), v)


def _velocity_linear_local(params, ws):
    """Element matrices of the velocity blocks at F = 0, (m, 9, 9) on B and
    (m, 3, 3) on D.

    Every term is a reference Gram of the rule contracted with the basis
    coefficients: mu (grad phi_a, grad phi_b) on B with the 4x4 Gram of
    the gradient monomials, and the K^-1 mass blocks (``_mass_block``) on
    the six value monomials on B and the three barycentric coordinates
    on D.
    """
    grad_eta = el.triangle_geometry(ws.verts_B)[1]
    g = el.br_gradients(ws.coef_B, grad_eta).reshape(-1, 9, 4, 4)
    stiff = _gram((params.mu * 2.0 * ws.area_B)[:, None, None, None] * (ws.grad_gram @ g), g)
    kblock = _mass_block(ws.coef_B, ws.wq_B, ws.kinv_B(params), ws.monomials)
    return stiff + kblock, _mass_block(ws.coef_D, ws.wq_D, ws.kinv_D(params), ws.rule.bary)


def _iterate_field(w, ws):
    """The Brinkman velocity of the full vector ``w`` at the quadrature
    points, (m, nq, 2)."""
    return ws.monomials @ _field(w[: ws.dofmap.n_uB][ws.dofmap.br.l2g], ws.coef_B)


def _brinkman_load(g, ws):
    """The full vector of (g, v_B) for a field ``g`` (m, nq, 2) at the
    quadrature points with the weights already folded in: a load is the
    monomial moments of its field against the coefficients."""
    corr = _load(ws.coef_B, ws.monomials.T @ g)
    return np.bincount(ws.dofmap.br.l2g.ravel(), corr.ravel(), minlength=ws.dofmap.n_total)


def forchheimer_terms(w, params, ws):
    """The Forchheimer terms of the Newton step at iterate ``w``, from one
    evaluation of its field and of ``forchheimer_map``: the CSR data, on
    the workspace pattern, of the Forchheimer block of Da(w), the mass
    block of F D phi(w), and the right-hand-side correction
    F (p-2) (|w|^(p-2) w, v_B) as a full vector."""
    F, p = params.forchheimer, params.power
    wfield = _iterate_field(w, ws)
    weight, T = forchheimer_map(wfield, p)
    loc = np.empty((T.shape[0], 9, 9))
    # Element chunks bound the temporaries of the mass block, which a
    # Newton iteration allocates while it holds the previous LU factor;
    # unchunked, they raise the study benchmark's peak RSS by about 5 MB.
    for start in range(0, T.shape[0], FORCHHEIMER_CHUNK):
        e = slice(start, start + FORCHHEIMER_CHUNK)
        loc[e] = _mass_block(ws.coef_B[e], ws.wq_B[e], F * T[e], ws.monomials)
    data = ws.scatter(ws.slots_B, loc)
    g = (F * (p - 2.0) * weight * ws.wq_B)[..., None] * wfield
    return data, _brinkman_load(g, ws)


def static_values(params, ws):
    """CSR data, on the workspace pattern, of the Newton system at F = 0:
    the linear velocity blocks and the coupling block."""
    loc_B, loc_D = _velocity_linear_local(params, ws)
    return ws.scatter(ws.slots_B, loc_B) + ws.scatter(ws.slots_D, loc_D) + ws.b_data


class NewtonSystem:
    """The linear system of every Newton step of one solve.

    Only the Forchheimer term changes from step to step: at the iterate
    w the Jacobian gains F (p-2) (|w|^(p-4) (w . u) w, v) and the
    right-hand side F (p-2) (|w|^(p-2) w, v).  The linear velocity blocks,
    the coupling block and the load are assembled once, here.  A solve
    that shares the F = 0 data with others passes it as ``static``, which
    must be that of ``params`` on ``ws``; nothing writes to it.
    """

    def __init__(self, params, data, ws, static=None):
        self.params = params
        self.ws = ws
        self.static = static_values(params, ws) if static is None else static
        self.load = assemble_rhs(data, ws)

    def at(self, x):
        """(values, rhs) of the step at iterate ``x``: CSR data on the
        workspace pattern and the full load vector."""
        if self.params.forchheimer == 0.0:
            return self.static, self.load
        data, corr = forchheimer_terms(x, self.params, self.ws)
        return self.static + data, self.load + corr

    def residual(self, x):
        """The nonlinear residual at ``x`` on the free rows: the F = 0
        operator applied to ``x``, plus F (phi(w), v_B), minus the load.
        ``x`` holds the prescribed values on the constrained DOFs.  This is
        K(x) x - rhs(x) of ``at``, formed from the action of the map
        rather than from its derivative."""
        ws, F = self.ws, self.params.forchheimer
        r = ws.csr(self.static) @ x - self.load
        if F != 0.0:
            wfield = _iterate_field(x, ws)
            weight = forchheimer_weight(wfield, self.params.power)
            r += _brinkman_load((F * weight * ws.wq_B)[..., None] * wfield, ws)
        return r[ws.free]


def _coupling_entries(ws):
    """Rows, columns and values of the coupling block, both halves, from
    the degrees of freedom; entries at one position add up.

    Bubbles and RT0 functions carry unit flux through their own edge along
    its global normal and vertex functions none, so a triangle's pressure
    row holds -s, s the edge's orientation sign, on its three edge DOFs.
    On interface edge a-b of length L, with eps = +-1 its global normal
    against n = (0, -1) and h_a, h_b the two hats of its macro edge at a
    and b, the multiplier rows hold +-eps (h_a + h_b) / 2 on the bubble
    and the RT0 flux, and n_y L (h_a - h_b) / 12 and its negative on the
    y-components at a and b: a vertex function's trace is its hat minus
    three times the edge's bubble t (1 - t).  The gauge row, if the layout
    has one, holds each triangle's area on its pressure: the mean-zero
    condition.
    """
    mesh, iface, dof = ws.mesh, ws.interface, ws.dofmap
    br, rt = dof.br, dof.rt
    p_rows = np.repeat(np.concatenate([ws.p_dof_B, ws.p_dof_D]), 3)
    p_cols = np.concatenate([br.l2g[:, 6:], dof.off_uD + rt.l2g]).ravel()
    p_vals = -np.concatenate([ws.signs_B, ws.signs_D]).ravel().astype(float)

    # Both hats of each macro edge at its left, middle and right node; the
    # interface is straight, so the middle values are length ratios.
    eids = iface.edge_ids
    L = mesh.edge_lengths[eids]
    pairs = L.reshape(-1, 2)
    middle = pairs[:, ::-1] / pairs.sum(axis=1, keepdims=True)
    hats = np.stack(np.broadcast_arrays([1.0, 0.0], middle, [0.0, 1.0]), axis=1)
    h_a, h_b = hats[:, :2].reshape(-1, 2), hats[:, 1:].reshape(-1, 2)
    eps = np.where(mesh.edge_tris[eids, 0] == iface.tri_B, 1.0, -1.0)[:, None]
    flux = eps * 0.5 * (h_a + h_b)
    vertex = iface.normal[1] * L[:, None] * (h_a - h_b) / 12.0
    s_vals = np.stack([flux, -flux, vertex, -vertex], axis=1)  # (ns, 4 columns, 2 hats)
    y_a, y_b = 2 * br.vertex_local[iface.edge_verts.T] + 1
    s_cols = np.stack(
        [2 * br.vertex_ids.size + br.edge_local[eids], dof.off_uD + rt.edge_local[eids], y_a, y_b],
        axis=1,
    )
    macro = np.arange(iface.num_edges) // 2
    s_rows = dof.off_lam + np.stack([macro, macro + 1], axis=1)
    s_rows, s_cols = np.broadcast_arrays(s_rows[:, None, :], s_cols[:, :, None])

    rows, cols, vals = [p_rows, s_rows.ravel()], [p_cols, s_cols.ravel()], [p_vals, s_vals.ravel()]
    if dof.gauge_dof >= 0:
        rows.append(np.full(dof.n_p, dof.gauge_dof))
        cols.append(dof.off_p + np.arange(dof.n_p))
        vals.append(mesh.areas)
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([vals, vals])


def assemble_rhs(data, ws):
    """Right-hand side vector: loads, boundary and interface data."""
    dof = ws.dofmap
    rhs = darcy_rhs(data, ws)
    fB = np.asarray(data.f_B(ws.qpts_B.reshape(-1, 2))).reshape(ws.qpts_B.shape)
    np.add.at(rhs, dof.br.l2g, _load(ws.coef_B, ws.monomials.T @ (ws.wq_B[..., None] * fB)))
    if data.interface_traction is not None:
        pts, _, wts, basis, l2g = ws.interface_edges
        tv = np.asarray(data.interface_traction(pts.reshape(-1, 2))).reshape(pts.shape)
        np.add.at(rhs, l2g, _load(basis, wts[..., None] * tv))
    _add_natural_bc(rhs, data.velocity_bc, "traction", ws)
    return rhs


def darcy_rhs(data, ws):
    """The Darcy rows of ``assemble_rhs`` (the f_D and g_D loads and the
    natural pressure data), bit for bit, with every other row zero."""
    dof = ws.dofmap
    rhs = np.zeros(dof.n_total)
    fD = np.asarray(data.f_D(ws.qpts_D.reshape(-1, 2))).reshape(ws.qpts_D.shape)
    moments = ws.rule.bary.T @ (ws.wq_D[..., None] * fD)  # (m, 3, 2) on eta_i
    np.add.at(rhs, dof.off_uD + dof.rt.l2g, _load(ws.coef_D, moments))
    gD = np.asarray(data.g_D(ws.qpts_D.reshape(-1, 2))).reshape(ws.wq_D.shape)
    np.add.at(rhs, ws.p_dof_D, -np.einsum("mq,mq->m", gD, ws.wq_D))
    _add_natural_bc(rhs, data.darcy_bc, "pressure", ws)
    return rhs


def _add_natural_bc(rhs, bcs, natural, ws):
    """Add the data of the boundary conditions ``bcs`` of kind ``natural``
    ("traction" or "pressure") to ``rhs``."""
    for tag, (kind, fn) in bcs.items():
        if kind != natural:
            continue
        if tag not in ws.natural:
            if ws.mesh.edges_with_tag(tag).size:
                raise ValueError(
                    f"boundary tag {tag!r} carries {kind} data, but the "
                    "workspace was built for a layout where it is essential"
                )
            continue
        pts, nrm, wts, basis, l2g = ws.natural[tag]
        if kind == "traction":
            tv = np.asarray(fn(pts.reshape(-1, 2), nrm.reshape(-1, 2))).reshape(pts.shape)
            np.add.at(rhs, l2g, _load(basis, wts[..., None] * tv))
        else:
            pv = np.asarray(fn(pts.reshape(-1, 2))).reshape(wts.shape)
            np.add.at(rhs, l2g, -_load(basis, pv * wts))


def apply_constraints(ws, data, rhs, x):
    """Restrict the system (CSR ``data`` on the workspace pattern, load
    vector ``rhs``) to the free DOFs.

    Returns (A_ff, b_f): A_ff = A[free, free] as a CSR matrix whose
    structure is the same on every call, and b_f = rhs[free] - A_fc x_c
    with x_c the constrained entries of the full vector ``x``, which must
    hold the prescribed values there (see ``prescribed_values``); its
    other entries are not read.  The pressure gauge, if any, is a free DOF
    like any other, with its row and column in A_ff.
    """
    n = ws.free.size
    A = sp.csr_matrix((data[ws.ff_pos], ws.ff_indices, ws.ff_indptr), shape=(n, n))
    return A, lifted_rhs(ws, data, rhs, x)


def lifted_rhs(ws, data, rhs, x):
    """b_f = rhs[free] - A_fc x_c, the right-hand side of
    ``apply_constraints``, without forming A_ff."""
    lift = np.bincount(ws.lift_rows, data[ws.lift_pos] * x[ws.lift_cols], minlength=ws.free.size)
    return rhs[ws.free] - lift
