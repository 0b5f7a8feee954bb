"""Weak forms, degrees of freedom and sparse assembly of the coupled system.

The unknown vector is laid out as [u_B | u_D | p | lambda | gauge] where
u_B holds Bernardi-Raugel coefficients, u_D Raviart-Thomas fluxes, p one
constant per triangle (both regions), lambda the interface multiplier
nodes, and gauge an optional scalar that fixes the pressure mean when no
natural boundary condition does.

The nonlinear operator on the velocity pair is

    [a(u), v] = mu (grad u_B, grad v_B) + (K_B^-1 u_B, v_B)
                + F (|u_B|^(p-2) u_B, v_B) + (K_D^-1 u_D, v_D)

and its Gateaux derivative at w adds the rank-one Forchheimer coupling
F (p-2) (|w|^(p-4) (w . u) w, v).  The linearized step solves for the new
iterate directly, with the correction F (p-2) (|w|^(p-2) w, v) on the
right-hand side.

Every matrix lives on the one CSR pattern a ``Workspace`` builds per
mesh, and ``apply_constraints`` restricts it to the free DOFs by index.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .mesh import GAMMA_B_TAGS, GAMMA_D_TAGS

# Below this speed the Forchheimer weights |w|^(p-2) and |w|^(p-4) are
# continuously extended by zero; for p < 4 the latter is singular at 0.
SPEED_FLOOR = 1.0e-12

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


def check_permeabilities(params, mesh, degree=6):
    """Verify both permeability tensors are SPD at all quadrature points.

    A constant tensor is the same at every point, so it is checked once.
    """
    rule = el.quad_rule(degree)
    for name, K, region in (("K_B", params.K_B, "B"), ("K_D", params.K_D, "D")):
        if callable(K):
            tris = mesh.triangles[mesh.subdomain == region]
            T = tensor_field(K, el.physical_points(mesh.vertices[tris], rule.bary).reshape(-1, 2))
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

    @property
    def bc_mode(self):
        return "standard" if self.gauge_pressure else "mixed"


@dataclass(frozen=True)
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
    a = mesh.vertices[mesh.edges[eids, 0]]
    b = mesh.vertices[mesh.edges[eids, 1]]
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    wts = mesh.edge_lengths[eids][:, None] * w[None, :]
    return pts, wts


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
    """Per-mesh assembly context: basis tables, the operator's CSR pattern
    and the restriction to free DOFs.

    The spaces on a fixed mesh give an operator whose sparsity never
    changes, so the pattern is built once here.  Each velocity block has
    a slot array (``slots_B``, ``slots_D``) mapping its element entries to
    positions in the CSR ``data``; assembling is one ``np.bincount`` per
    block.  The coupling block depends on the mesh alone, so its data
    (``b_data``) is assembled here once, and its entries that are exactly
    zero are left out of the pattern.  ``free`` lists the unconstrained
    DOFs (the gauge scalar included), and ``apply_constraints`` gathers
    the free-free submatrix and lifts the constrained columns with index
    arrays built here.  The edge tables of the natural boundary terms are
    kept per boundary tag in ``natural``.  ``degree`` is the degree of the
    triangle quadrature rule every integral is assembled on.

    Index and position arrays the per-iteration gathers use are 32-bit,
    the width scipy.sparse and SuperLU store, so no gather converts them.

    A workspace holds only what the mesh, the DOF layout and the
    quadrature determine, and nothing writes to it after construction:
    everything that depends on the parameters or on the problem data
    (inverse permeabilities, prescribed values, loads) is computed per
    call.  One workspace can therefore serve many solves, also on several
    threads at once.
    """

    def __init__(self, mesh, interface, dofmap, degree=6):
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
        self.phi, self.gphi = el.br_basis(self.verts_B, self.signs_B, rule.bary)
        self.div_phi = self.gphi[..., 0, 0] + self.gphi[..., 1, 1]

        td = rt.tri_ids
        self.verts_D = mesh.vertices[mesh.triangles[td]]
        self.signs_D = mesh.tri_edge_signs[td]
        self.area_D = mesh.areas[td]
        self.qpts_D = el.physical_points(self.verts_D, rule.bary)
        self.wq_D = 2.0 * self.area_D[:, None] * rule.weights[None, :]
        self.psi, self.div_psi = el.rt0_basis(self.verts_D, self.signs_D, self.qpts_D)

        self.p_dof_B = dofmap.off_p + tb
        self.p_dof_D = dofmap.off_p + td

        self._build_interface_tables()
        self._build_boundary_tables()
        self._build_pattern()

    def _build_interface_tables(self):
        iface, mesh, dof = self.interface, self.mesh, self.dofmap
        ns = iface.num_edges
        t, w = el.edge_rule(EDGE_POINTS)
        eids = iface.edge_ids
        a = mesh.vertices[iface.edge_verts[:, 0]]
        b = mesh.vertices[iface.edge_verts[:, 1]]
        self.spts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        self.swts = mesh.edge_lengths[eids][:, None] * w[None, :]

        # Brinkman traces: the nine basis functions of the incident B
        # triangle at the edge points.
        bary = _edge_bary(mesh, iface.edge_verts, iface.tri_B, EDGE_POINTS)
        self.sphi, _ = el.br_basis(
            mesh.vertices[mesh.triangles[iface.tri_B]], mesh.tri_edge_signs[iface.tri_B], bary
        )
        self.sl2g_B = dof.br.l2g[np.searchsorted(dof.br.tri_ids, iface.tri_B)]

        self.spsi, _ = el.rt0_basis(
            mesh.vertices[mesh.triangles[iface.tri_D]],
            mesh.tri_edge_signs[iface.tri_D],
            self.spts,
        )
        self.sl2g_D = dof.off_uD + dof.rt.l2g[np.searchsorted(dof.rt.tri_ids, iface.tri_D)]

        # Multiplier hats: each interface edge lies in macro edge k // 2
        # and sees exactly the two hats of that macro edge's ends.
        macro = np.arange(ns) // 2
        xl = iface.nodes_x[macro]
        xr = iface.nodes_x[macro + 1]
        frac = (self.spts[..., 0] - xl[:, None]) / (xr - xl)[:, None]
        self.shat = np.stack([1.0 - frac, frac], axis=2)  # (ns, nqe, 2)
        self.snodes = dof.off_lam + np.stack([macro, macro + 1], axis=1)

    def _build_boundary_tables(self):
        """Edge points, weights, normals, basis traces and global DOFs of
        every boundary tag with natural data in this layout (its edge DOFs
        are free), for the natural terms of ``assemble_rhs``: Brinkman
        basis values for a traction, Darcy normal traces for a pressure."""
        mesh, dof = self.mesh, self.dofmap
        normals = mesh.outward_normals()
        edge_dofs = {
            **{tag: 2 * dof.br.vertex_ids.size + dof.br.edge_local for tag in GAMMA_B_TAGS},
            **{tag: dof.off_uD + dof.rt.edge_local for tag in GAMMA_D_TAGS},
        }
        self.natural = {}
        for tag, dofs in edge_dofs.items():
            eids = mesh.edges_with_tag(tag)
            if eids.size == 0 or (dof.constrained == dofs[eids[0]]).any():
                continue
            pts, wts = _edge_points(mesh, eids, EDGE_POINTS)
            nrm = np.repeat(normals[eids][:, None, :], pts.shape[1], axis=1)
            tri = mesh.edge_tris[eids, 0]
            verts, signs = mesh.vertices[mesh.triangles[tri]], mesh.tri_edge_signs[tri]
            if tag in GAMMA_B_TAGS:
                bary = _edge_bary(mesh, mesh.edges[eids], tri, EDGE_POINTS)
                basis, _ = el.br_basis(verts, signs, bary)
                l2g = dof.br.l2g[np.searchsorted(dof.br.tri_ids, tri)]
            else:
                psi, _ = el.rt0_basis(verts, signs, pts)
                basis = np.einsum("maqd,mqd->maq", psi, nrm)
                l2g = dof.off_uD + dof.rt.l2g[np.searchsorted(dof.rt.tri_ids, tri)]
            self.natural[tag] = (pts, nrm, wts, basis, l2g)

    def _build_pattern(self):
        dof = self.dofmap
        n = dof.n_total
        l2g_B = dof.br.l2g
        l2g_D = dof.off_uD + dof.rt.l2g
        # Coupling entries in the order of _coupling_entries: pressure
        # rows against both velocities, then multiplier rows against both
        # interface traces; the transposed entries follow.
        coupling = [
            np.broadcast_arrays(self.p_dof_B[:, None], l2g_B),
            np.broadcast_arrays(self.p_dof_D[:, None], l2g_D),
            np.broadcast_arrays(self.snodes[:, None, :], self.sl2g_B[:, :, None]),
            np.broadcast_arrays(self.snodes[:, None, :], self.sl2g_D[:, :, None]),
        ]
        rows_b = np.concatenate([r.ravel() for r, _ in coupling])
        cols_b = np.concatenate([c.ravel() for _, c in coupling])
        rows_b, cols_b = np.concatenate([rows_b, cols_b]), np.concatenate([cols_b, rows_b])
        # Coupling entries that are exactly zero, such as multiplier rows
        # against x-components of Brinkman vertex functions on a
        # horizontal interface, stay out of the pattern.
        entries = _coupling_entries(self)
        kept = entries != 0.0
        blocks = [
            np.broadcast_arrays(l2g_B[:, :, None], l2g_B[:, None, :]),
            np.broadcast_arrays(l2g_D[:, :, None], l2g_D[:, None, :]),
            (rows_b[kept], cols_b[kept]),
        ]
        keys = np.concatenate([r.ravel() * n + c.ravel() for r, c in blocks])
        keys, slots = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(keys, n)
        self.nnz = keys.size
        self.indices = cols.astype(np.intc)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        sizes = np.cumsum([r.size for r, _ in blocks])
        self.slots_B, self.slots_D, slots_b = np.split(slots.astype(np.intc), sizes[:-1])
        self.b_data = self.scatter(slots_b, entries[kept])

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


def _edge_bary(mesh, edge_verts, tri, npts):
    """Barycentric coordinates, in triangle ``tri``, of the edge rule's
    points (1 - t) a + t b on the edge with endpoints ``edge_verts`` (a, b)."""
    t, _ = el.edge_rule(npts)
    tverts = mesh.triangles[tri]
    loc0 = np.argmax(tverts == edge_verts[:, :1], axis=1)
    loc1 = np.argmax(tverts == edge_verts[:, 1:2], axis=1)
    ns, nqe = tri.size, t.size
    bary = np.zeros((ns, nqe, 3))
    bary[np.arange(ns)[:, None], np.arange(nqe)[None, :], loc0[:, None]] = 1.0 - t[None, :]
    bary[np.arange(ns)[:, None], np.arange(nqe)[None, :], loc1[:, None]] = t[None, :]
    return bary


def _speed_weights(field, power):
    """|field|^(p-2) and |field|^(p-4) at quadrature points, continued by
    zero below SPEED_FLOOR."""
    speed = np.linalg.norm(field, axis=2)
    small = speed < SPEED_FLOOR
    safe = np.where(small, 1.0, speed)
    return (
        np.where(small, 0.0, safe ** (power - 2.0)),
        np.where(small, 0.0, safe ** (power - 4.0)),
    )


def _field(coeffs, basis):
    """The field sum_a coeffs[m, a] basis[m, a, ...] of each element,
    (m, nb) x (m, nb, nq, ...) -> (m, nq, ...)."""
    m, nb = basis.shape[:2]
    return (coeffs[:, None, :] @ basis.reshape(m, nb, -1)).reshape((m,) + basis.shape[2:])


def _load(basis, g):
    """Element loads sum_q,... basis[m, a, q, ...] g[m, q, ...], with the
    quadrature weights already folded into g: (m, nb, nq, ...) -> (m, nb)."""
    m, nb = basis.shape[:2]
    return (basis.reshape(m, nb, -1) @ g.reshape(m, -1, 1))[..., 0]


def _gram(left, right):
    """Element matrices sum_q,... left[m, a, q, ...] right[m, b, q, ...],
    with the quadrature weights already folded into ``left``."""
    m = left.shape[0]
    right = right.reshape(m, right.shape[1], -1)
    return left.reshape(m, left.shape[1], -1) @ right.transpose(0, 2, 1)


def _apply_tensor(T, basis):
    """T applied pointwise to every vector basis function,
    (m, nq, 2, 2) x (m, nb, nq, 2) -> (m, nb, nq, 2)."""
    return (basis.transpose(0, 2, 1, 3) @ T.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3)


def _forchheimer_weights(w, params, ws):
    """The Brinkman field w and its weights |w|^(p-2), |w|^(p-4) at quadrature points."""
    wfield = _field(w[: ws.dofmap.n_uB][ws.dofmap.br.l2g], ws.phi)
    return (wfield, *_speed_weights(wfield, params.power))


def _velocity_linear_local(params, ws):
    kphi = _apply_tensor(ws.wq_B[..., None, None] * ws.kinv_B(params), ws.phi)
    kpsi = _apply_tensor(ws.wq_D[..., None, None] * ws.kinv_D(params), ws.psi)
    stiff = _gram(params.mu * ws.wq_B[:, None, :, None, None] * ws.gphi, ws.gphi)
    return stiff + _gram(kphi, ws.phi), _gram(kpsi, ws.psi)


def _forchheimer_local(w, params, ws):
    F, p = params.forchheimer, params.power
    wfield, s_p2, s_p4 = _forchheimer_weights(w, params, ws)
    m, nb = ws.phi.shape[:2]
    loc = np.empty((m, nb, nb))
    # Element chunks bound the per-quadrature-point temporaries, which a
    # Newton iteration allocates while it holds the previous LU factor.
    for start in range(0, m, FORCHHEIMER_CHUNK):
        e = slice(start, start + FORCHHEIMER_CHUNK)
        phi, wq = ws.phi[e], ws.wq_B[e]
        loc[e] = _gram((F * s_p2[e] * wq)[:, None, :, None] * phi, phi)
        dots = phi[..., 0] * wfield[e, None, :, 0] + phi[..., 1] * wfield[e, None, :, 1]
        loc[e] += _gram((F * (p - 2.0) * s_p4[e] * wq)[:, None, :] * dots, dots)
    return loc


def forchheimer_data(w, params, ws):
    """CSR data, on the workspace pattern, of the Forchheimer block of Da(w)."""
    return ws.scatter(ws.slots_B, _forchheimer_local(w, params, ws))


def assemble_da(w, params, ws):
    """Gateaux derivative Da(w) on the velocity blocks, as a CSR matrix on
    the workspace pattern.

    ``w`` is a full solution vector (only its u_B block matters).
    """
    loc_B, loc_D = _velocity_linear_local(params, ws)
    data = ws.scatter(ws.slots_B, loc_B) + ws.scatter(ws.slots_D, loc_D)
    if params.forchheimer > 0.0:
        data += forchheimer_data(w, params, ws)
    return ws.csr(data)


def assemble_b(ws):
    """Velocity/(pressure, multiplier) coupling, both sides, as a CSR
    matrix on the workspace pattern.

    Contains -(q, div v_B) - (q, div v_D) on the pressure rows,
    <v_B . n - v_D . n, xi> on the multiplier rows, and the transposes on
    the velocity rows.
    """
    return ws.csr(ws.b_data.copy())


def _coupling_entries(ws):
    n = ws.interface.normal
    ent_pB = -np.einsum("maq,mq->ma", ws.div_phi, ws.wq_B)
    ent_pD = -ws.div_psi * ws.area_D[:, None]
    tr_B = np.einsum("maqd,d->maq", ws.sphi, n)
    hat = ws.swts[..., None] * ws.shat
    ent_sB = tr_B @ hat  # (ns, 9, 2)
    tr_D = np.einsum("maqd,d->maq", ws.spsi, n)
    ent_sD = -tr_D @ hat  # (ns, 3, 2)
    ent = np.concatenate([e.ravel() for e in (ent_pB, ent_pD, ent_sB, ent_sD)])
    return np.concatenate([ent, ent])


def assemble_rhs(data, ws):
    """Right-hand side vector: loads, boundary and interface data."""
    dof = ws.dofmap
    rhs = np.zeros(dof.n_total)

    fB = np.asarray(data.f_B(ws.qpts_B.reshape(-1, 2))).reshape(ws.qpts_B.shape)
    np.add.at(rhs, dof.br.l2g, _load(ws.phi, ws.wq_B[..., None] * fB))
    fD = np.asarray(data.f_D(ws.qpts_D.reshape(-1, 2))).reshape(ws.qpts_D.shape)
    np.add.at(rhs, dof.off_uD + dof.rt.l2g, _load(ws.psi, ws.wq_D[..., None] * fD))
    gD = np.asarray(data.g_D(ws.qpts_D.reshape(-1, 2))).reshape(ws.wq_D.shape)
    np.add.at(rhs, ws.p_dof_D, -np.einsum("mq,mq->m", gD, ws.wq_D))

    if data.interface_traction is not None:
        tv = np.asarray(data.interface_traction(ws.spts.reshape(-1, 2))).reshape(ws.spts.shape)
        np.add.at(rhs, ws.sl2g_B, _load(ws.sphi, ws.swts[..., None] * tv))

    _add_natural_bc(rhs, data, ws)
    return rhs


def forchheimer_rhs(w, params, ws):
    """The Newton right-hand-side correction F (p-2) (|w|^(p-2) w, v_B)."""
    wfield, s_p2, _ = _forchheimer_weights(w, params, ws)
    scale = params.forchheimer * (params.power - 2.0) * s_p2 * ws.wq_B
    corr = _load(ws.phi, scale[..., None] * wfield)
    return np.bincount(ws.dofmap.br.l2g.ravel(), corr.ravel(), minlength=ws.dofmap.n_total)


def _add_natural_bc(rhs, data, ws):
    for bcs, natural in ((data.velocity_bc, "traction"), (data.darcy_bc, "pressure")):
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


def assemble_a_nonlinear(u, params, ws):
    """Action [a(u), v] for every velocity test function, as a full vector.

    Entries outside the velocity blocks are zero.
    """
    dof = ws.dofmap
    out = np.zeros(dof.n_total)

    cu = u[: dof.n_uB][dof.br.l2g]
    ufield = _field(cu, ws.phi)
    ugrad = _field(cu, ws.gphi)
    force = (ws.kinv_B(params) @ ufield[..., None])[..., 0]
    if params.forchheimer > 0.0:
        s_p2, _ = _speed_weights(ufield, params.power)
        force += params.forchheimer * s_p2[..., None] * ufield
    wq = ws.wq_B[..., None]
    ent = _load(ws.gphi, params.mu * wq[..., None] * ugrad) + _load(ws.phi, wq * force)
    np.add.at(out, dof.br.l2g, ent)

    dfield = _field(u[dof.off_uD : dof.off_uD + dof.n_uD][dof.rt.l2g], ws.psi)
    force = (ws.kinv_D(params) @ dfield[..., None])[..., 0]
    np.add.at(out, dof.off_uD + dof.rt.l2g, _load(ws.psi, ws.wq_D[..., None] * force))
    return out


def apply_constraints(ws, data, rhs, x):
    """Restrict the system (CSR ``data`` on the workspace pattern, load
    vector ``rhs``) to the free DOFs.

    Returns (A_ff, b_f): A_ff = A[free, free] as a CSR matrix whose
    structure is the same on every call, and b_f = rhs[free] - A_fc x_c
    with x_c the constrained entries of the full vector ``x``, which must
    hold the prescribed values there (see ``prescribed_values``); its
    other entries are not read.  The pressure gauge, if any, is a free DOF
    whose row and column stay empty; ``solver.sparse_lu_solve`` applies
    the border.
    """
    n = ws.free.size
    A = sp.csr_matrix((data[ws.ff_pos], ws.ff_indices, ws.ff_indptr), shape=(n, n))
    lift = np.bincount(ws.lift_rows, data[ws.lift_pos] * x[ws.lift_cols], minlength=n)
    return A, rhs[ws.free] - lift
