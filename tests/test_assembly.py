"""Operator assembly tests against hand-computable oracles."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from bfdarcy import (
    PhysicalParams,
    ProblemData,
    NewtonSystem,
    assemble_rhs,
    build_dofmap,
    build_interface,
    edge_rule,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    interpolate_br,
    interpolate_rt0,
    manufactured_problem,
    prescribed_values,
)
from bfdarcy.assembly import (
    FORCHHEIMER_CHUNK,
    Workspace,
    _velocity_linear_local,
    apply_constraints,
    check_permeabilities,
    forchheimer_map,
    forchheimer_terms,
    inverse_tensor_field,
    static_values,
    tensor_field,
    zero_scalar,
    zero_vector,
)
from bfdarcy.elements import rt0_basis

from oracles import (
    einsum_kernels,
    hat_values,
    loop_br_basis,
    velocity_action,
    x_graded,
    y_graded,
)

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


def setup(nx=4, ny_B=2, ny_D=2):
    mesh = generate_stacked_rect(RECT_B, RECT_D, nx, ny_B, ny_D)
    iface = build_interface(mesh)
    data = ProblemData()
    dofmap = build_dofmap(mesh, iface, data)
    return mesh, iface, data, dofmap


# ------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError, match="viscosity"):
        PhysicalParams(mu=0.0)
    with pytest.raises(ValueError, match="Forchheimer"):
        PhysicalParams(forchheimer=-1.0)
    with pytest.raises(ValueError, match=r"exponent out of range \[3,4\]"):
        PhysicalParams(power=2.5)
    with pytest.raises(ValueError, match=r"exponent out of range \[3,4\]"):
        PhysicalParams(power=5.0)
    PhysicalParams(mu=2.0, forchheimer=0.0, power=3.0)  # boundary values pass


def test_tensor_field_accepts_scalar_matrix_and_callable():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(tensor_field(2.0, pts), 2.0 * np.broadcast_to(np.eye(2), (2, 2, 2)))
    K = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(tensor_field(K, pts), np.broadcast_to(K, (2, 2, 2)))

    def K_fn(p):
        out = np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy()
        out[:, 0, 0] = 1.0 + p[:, 0] ** 2
        return out

    T = tensor_field(K_fn, pts)
    assert T[1, 0, 0] == pytest.approx(2.0)


def test_check_permeabilities_rejects_bad_tensors():
    mesh, iface, _, dofmap = setup()
    ws = Workspace(mesh, iface, dofmap, degree=6)
    with pytest.raises(ValueError, match="symmetric"):
        check_permeabilities(
            PhysicalParams(K_B=np.array([[1.0, 0.5], [0.0, 1.0]])), ws
        )
    with pytest.raises(ValueError, match="positive definite"):
        check_permeabilities(
            PhysicalParams(K_D=np.array([[1.0, 0.0], [0.0, -2.0]])), ws
        )
    check_permeabilities(PhysicalParams(K_B=0.1, K_D=1.0e-3), ws)


@pytest.mark.parametrize(
    "name, value",
    [("mu", np.inf), ("mu", np.nan), ("forchheimer", np.inf), ("forchheimer", np.nan),
     ("K_B", np.inf), ("K_D", np.nan), ("K_D", np.array([[1.0, 0.0], [0.0, np.inf]]))],
)
def test_physical_params_reject_non_finite_values(name, value):
    label = {"mu": "mu=", "forchheimer": "F="}.get(name, name)
    with pytest.raises(ValueError, match=label):
        PhysicalParams(**{name: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_permeabilities_rejects_a_non_finite_callable(bad):
    mesh, iface, _, dofmap = setup()

    def K_fn(p):
        out = np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy()
        out[:, 0, 1] = out[:, 1, 0] = np.where(p[:, 0] > 0.4, bad, 0.0)
        return out

    with pytest.raises(ValueError, match="K_B must be finite"):
        check_permeabilities(PhysicalParams(K_B=K_fn), Workspace(mesh, iface, dofmap, degree=6))


def test_constant_permeability_is_inverted_once_with_the_same_arithmetic():
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(50, 2))
    for K in (0.3, np.array([[2.0, 0.4], [0.4, 0.7]])):
        inv = inverse_tensor_field(K, pts)
        per_point = inverse_tensor_field(lambda p, K=K: tensor_field(K, p).copy(), pts)
        assert inv.shape == (50, 2, 2) and inv.flags.c_contiguous
        np.testing.assert_array_equal(inv, per_point)


def test_check_permeabilities_checks_a_callable_at_every_point():
    mesh, iface, _, dofmap = setup()

    def K_fn(p):
        out = np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy()
        out[:, 1, 1] = np.where(p[:, 0] > 0.4, -1.0, 1.0)
        return out

    with pytest.raises(ValueError, match="K_D must be positive definite"):
        check_permeabilities(PhysicalParams(K_D=K_fn), Workspace(mesh, iface, dofmap, degree=6))


def test_problem_data_validation():
    with pytest.raises(ValueError, match="unknown velocity boundary tag"):
        ProblemData(velocity_bc={"GB_BOTTOM": ("dirichlet", zero_vector)})
    with pytest.raises(ValueError, match="dirichlet.traction"):
        ProblemData(velocity_bc={"GB_TOP": ("noslip", zero_vector)})
    with pytest.raises(ValueError, match="unknown Darcy boundary tag"):
        ProblemData(darcy_bc={"GB_TOP": ("flux", zero_scalar)})
    with pytest.raises(ValueError, match="flux.pressure"):
        ProblemData(darcy_bc={"GD_LEFT": ("dirichlet", zero_scalar)})


def test_problem_data_gauge_detection():
    assert ProblemData().gauge_pressure is True
    mixed = ProblemData(velocity_bc={"GB_RIGHT": ("traction", zero_vector)})
    assert mixed.gauge_pressure is False
    mixed2 = ProblemData(darcy_bc={"GD_BOTTOM": ("pressure", zero_scalar)})
    assert mixed2.gauge_pressure is False


# ----------------------------------------------------------------- dofmap


def test_dofmap_layout_and_counts():
    nx, ny_B, ny_D = 4, 2, 2
    mesh, iface, data, dofmap = setup(nx, ny_B, ny_D)

    n_vB = (nx + 1) * (ny_B + 1)            # grid vertices in the closed B band
    n_eB = 3 * (2 * nx * ny_B) // 2 + (nx + (nx + 1) * ny_B) // 1
    # simpler: count from the spaces themselves
    assert dofmap.n_uB == dofmap.br.n_dofs
    assert dofmap.br.vertex_ids.size == n_vB
    assert dofmap.n_uD == dofmap.rt.n_dofs
    assert dofmap.n_p == mesh.num_triangles
    assert dofmap.n_lam == nx // 2 + 1
    assert dofmap.off_uD == dofmap.n_uB
    assert dofmap.off_p == dofmap.n_uB + dofmap.n_uD
    assert dofmap.off_lam == dofmap.off_p + dofmap.n_p
    # all-essential data: a gauge scalar borders the system
    assert dofmap.gauge_dof == dofmap.off_lam + dofmap.n_lam
    assert dofmap.n_total == dofmap.n_fields + 1

    x = np.arange(dofmap.n_total, dtype=float)
    u_B, u_D, p, lam = dofmap.split(x)
    assert u_B.size == dofmap.n_uB and u_D.size == dofmap.n_uD
    assert p.size == dofmap.n_p and lam.size == dofmap.n_lam
    assert p[0] == dofmap.off_p


def test_dofmap_mixed_mode_has_no_gauge():
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 2, 2)
    iface = build_interface(mesh)
    data = ProblemData(darcy_bc={"GD_BOTTOM": ("pressure", zero_scalar)})
    dofmap = build_dofmap(mesh, iface, data)
    assert dofmap.gauge_dof == -1
    assert dofmap.n_total == dofmap.n_fields


def test_dofmap_counts_essential_constraints():
    nx, ny_B, ny_D = 4, 2, 2
    mesh, iface, data, dofmap = setup(nx, ny_B, ny_D)
    # Dirichlet everywhere on the B boundary: every boundary vertex of the
    # band carries two point constraints, every boundary edge one flux;
    # the boundary vertices are both side columns plus the top interior
    nb_verts = 2 * (ny_B + 1) + (nx - 1)
    nb_edges = 2 * ny_B + nx
    nd_edges = 2 * ny_D + nx
    assert dofmap.constrained.size == 2 * nb_verts + nb_edges + nd_edges
    assert np.all(np.diff(dofmap.constrained) > 0)


def test_dofmap_rejects_conflicting_corner_data():
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 2, 2)
    iface = build_interface(mesh)

    def leftward(pts):
        return np.broadcast_to([1.0, 0.0], (len(pts), 2)).copy()

    data = ProblemData(
        velocity_bc={
            "GB_LEFT": ("dirichlet", leftward),
            "GB_TOP": ("dirichlet", zero_vector),
        }
    )
    with pytest.raises(ValueError, match="conflicting prescriptions"):
        prescribed_values(build_dofmap(mesh, iface, data), mesh, data)


# ------------------------------------------------------- divergence blocks


def test_pressure_rows_match_the_divergence_theorem():
    """-(q, div v) entries follow from edge fluxes alone.

    Every basis velocity has a known outward flux through each element
    edge: Brinkman vertex functions have none, bubbles and RT0 functions
    exactly one unit through their own edge.  The pressure row of an
    element therefore holds exactly -sign on its bubble/flux columns and
    no entry on its vertex columns; the gauge column holds its area.
    """
    mesh, iface, data, dofmap = setup()
    ws = Workspace(mesh, iface, dofmap, degree=6)
    assert_pressure_rows(ws.csr(ws.b_data), mesh, dofmap)


def assert_pressure_rows(B, mesh, dofmap):
    """The pressure rows of B hold exactly -sign on the edge DOFs of their
    triangle and, in a layout with a gauge, the triangle's area on the
    gauge column, and no vertex column is in the pattern."""
    br, rt = dofmap.br, dofmap.rt
    n_vB = br.vertex_ids.size

    expect = sp.lil_matrix((dofmap.n_p, dofmap.n_total))
    for row, tri in enumerate(br.tri_ids):
        for loc in range(3):
            e = mesh.tri_edges[tri, loc]
            col = 2 * n_vB + br.edge_local[e]
            expect[tri, col] = -float(mesh.tri_edge_signs[tri, loc])
    for row, tri in enumerate(rt.tri_ids):
        for loc in range(3):
            e = mesh.tri_edges[tri, loc]
            col = dofmap.off_uD + rt.edge_local[e]
            expect[tri, col] = -float(mesh.tri_edge_signs[tri, loc])
    if dofmap.gauge_dof >= 0:
        expect[:, dofmap.gauge_dof] = mesh.areas[:, None]

    got = B[dofmap.off_p : dofmap.off_p + dofmap.n_p, :]
    expect = expect.tocsr()
    expect.sort_indices()
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    np.testing.assert_array_equal(got.data, expect.data)


def test_coupling_block_is_symmetric():
    mesh, iface, data, dofmap = setup()
    ws = Workspace(mesh, iface, dofmap, degree=6)
    B = ws.csr(ws.b_data)
    assert abs(B - B.T).max() < 1e-13


def test_coupling_pattern_keeps_no_exact_zeros():
    # The coupling block depends on the mesh alone; its slots that sum to
    # exactly zero are left out of the workspace pattern.
    mesh, iface, data, dofmap = setup()
    ws = Workspace(mesh, iface, dofmap, degree=6)
    B = ws.csr(ws.b_data).tocoo()
    coupling = B.row >= dofmap.off_p
    assert coupling.any() and np.all(B.data[coupling] != 0.0)


def test_pattern_size_on_the_benchmark_meshes():
    """Pins nnz of the operator pattern on the study and channel nx=32
    meshes of perfbench, so that a change of the pattern is an edit here."""
    _, study = manufactured_problem(PhysicalParams())
    _, channel, (rect_B, rect_D) = heterogeneous_flow_problem(0.0)
    for mesh, data, nnz in (
        (generate_stacked_rect(RECT_B, RECT_D, 32, 32, 32), study, 143_078),
        (generate_stacked_rect(rect_B, rect_D, 32, 16, 16), channel, 67_974),
    ):
        iface = build_interface(mesh)
        assert Workspace(mesh, iface, build_dofmap(mesh, iface, data), degree=6).nnz == nnz


@pytest.mark.parametrize("pattern", ["right", "crisscross"])
def test_the_gauge_row_and_column_hold_the_triangle_areas(pattern):
    """The mean-zero gauge is a row and a column of the coupling block:
    the area of each triangle, B and D, on its pressure, and no diagonal.
    A layout without a gauge has the same pattern and coupling data
    without them."""
    mesh = generate_stacked_rect(RECT_B, RECT_D, 6, 3, 2, pattern=pattern)
    iface = build_interface(mesh)
    ws = Workspace(mesh, iface, build_dofmap(mesh, iface, ProblemData()), degree=6)
    dofmap = ws.dofmap
    g, n = dofmap.gauge_dof, dofmap.n_fields
    assert g == n and dofmap.n_total == n + 1
    B = ws.csr(ws.b_data)
    pressures = np.concatenate([ws.p_dof_B, ws.p_dof_D])
    for line in (B[[g]], B[:, [g]].T.tocsr()):
        line.sort_indices()
        np.testing.assert_array_equal(line.indices, np.sort(pressures))
        np.testing.assert_array_equal(line.data, mesh.areas)
    assert B[g, g] == 0.0 and ws.csr(np.ones(ws.nnz))[g, g] == 0.0

    mixed_data = ProblemData(darcy_bc={"GD_BOTTOM": ("pressure", zero_scalar)})
    mixed = Workspace(mesh, iface, build_dofmap(mesh, iface, mixed_data), degree=6)
    assert mixed.dofmap.gauge_dof < 0 and mixed.nnz == ws.nnz - 2 * dofmap.n_p
    inner, M = B[:n, :n], mixed.csr(mixed.b_data)
    np.testing.assert_array_equal(M.indptr, inner.indptr)
    np.testing.assert_array_equal(M.indices, inner.indices)
    np.testing.assert_array_equal(M.data, inner.data)


def coupling_on(mesh, data):
    iface = build_interface(mesh)
    dofmap = build_dofmap(mesh, iface, data)
    ws = Workspace(mesh, iface, dofmap, degree=6)
    return ws.csr(ws.b_data), dofmap


@settings(max_examples=8, deadline=None)
@given(
    channel=st.booleans(),
    pattern=st.sampled_from(["right", "crisscross"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coupling_pattern_is_fixed_by_the_topology(channel, pattern, seed):
    """Moving the interior vertices keeps the coupling pattern and the
    pressure rows: both follow from the degrees of freedom, with no entry
    whose presence depends on round-off."""
    if channel:
        _, data, (rect_B, rect_D) = heterogeneous_flow_problem(0.0)
        mesh = generate_stacked_rect(rect_B, rect_D, 16, 8, 8, pattern=pattern)
    else:
        data = ProblemData()
        mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8, pattern=pattern)
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    fixed[mesh.edges[(mesh.edge_tris[:, 1] < 0) | (mesh.edge_tags == "SIGMA")]] = True
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, size=mesh.vertices.shape)
    shift[fixed] = 0.0
    jittered = replace(mesh, vertices=mesh.vertices + 0.1 * mesh.edge_lengths.min() * shift)
    assert jittered.areas.min() > 0.0

    B0, _ = coupling_on(mesh, data)
    B, dofmap = coupling_on(jittered, data)
    np.testing.assert_array_equal(B.indptr, B0.indptr)
    np.testing.assert_array_equal(B.indices, B0.indices)
    assert_pressure_rows(B, jittered, dofmap)


def test_interface_rows_integrate_constant_normal_velocity():
    """<v.n, xi> rows evaluated on the constant field v = (0, -1).

    With v.n = 1 on the interface each multiplier row reduces to the
    integral of its hat function: half the adjacent macro widths.
    """
    mesh, iface, data, dofmap = setup(nx=6)
    ws = Workspace(mesh, iface, dofmap, degree=6)
    B = ws.csr(ws.b_data)

    def down(pts):
        return np.broadcast_to([0.0, -1.0], (len(pts), 2)).copy()

    x = np.zeros(dofmap.n_total)
    x[: dofmap.n_uB] = interpolate_br(down, mesh, dofmap.br, edge_points=8)
    rows_b = (B @ x)[dofmap.off_lam : dofmap.off_lam + dofmap.n_lam]

    x[:] = 0.0
    x[dofmap.off_uD : dofmap.off_uD + dofmap.n_uD] = interpolate_rt0(
        down, mesh, dofmap.rt, edge_points=8
    )
    rows_d = (B @ x)[dofmap.off_lam : dofmap.off_lam + dofmap.n_lam]

    nodes = iface.nodes_x
    hat_integrals = np.empty(iface.num_nodes)
    hat_integrals[0] = 0.5 * (nodes[1] - nodes[0])
    hat_integrals[-1] = 0.5 * (nodes[-1] - nodes[-2])
    hat_integrals[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])

    np.testing.assert_allclose(rows_b, hat_integrals, atol=1e-13)
    # the Darcy trace enters with opposite sign: <u_B.n - u_D.n, xi>
    np.testing.assert_allclose(rows_d, -hat_integrals, atol=1e-13)


def test_interface_rows_match_reconstructed_traces():
    """Multiplier rows against independently reconstructed traces.

    For a field with quadratic normal component the Brinkman interpolant
    has a nontrivial bubble on each interface edge.  Its normal trace is
    the endpoint interpolation plus the parabolic bubble profile whose
    edge integral restores the exact flux; the Darcy trace is the
    per-edge flux mean.  Integrating those profiles against the hats by
    quadrature must reproduce the assembled rows exactly.
    """
    mesh, iface, data, dofmap = setup(nx=6)
    ws = Workspace(mesh, iface, dofmap, degree=6)
    B = ws.csr(ws.b_data)

    def field(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([x * y, 0.1 * x**2 - 0.2 * y], axis=1)

    def trace(x):  # u . n on the interface with n = (0, -1)
        return -(0.1 * x**2 - 0.2 * iface.y)

    x_full = np.zeros(dofmap.n_total)
    x_full[: dofmap.n_uB] = interpolate_br(field, mesh, dofmap.br, edge_points=8)
    rows_B = (B @ x_full)[dofmap.off_lam : dofmap.off_lam + dofmap.n_lam]
    x_full[:] = 0.0
    x_full[dofmap.off_uD : dofmap.off_uD + dofmap.n_uD] = interpolate_rt0(
        field, mesh, dofmap.rt, edge_points=8
    )
    rows_D = (B @ x_full)[dofmap.off_lam : dofmap.off_lam + dofmap.n_lam]

    t, w = edge_rule(6)
    xl, xr = iface.x_left, iface.x_right
    lens = xr - xl
    xq = xl[:, None] + t[None, :] * lens[:, None]          # (ns, q)
    wq = lens[:, None] * w[None, :]

    flux = np.einsum("eq,eq->e", wq, trace(xq))            # exact per edge
    linear = trace(xl)[:, None] * (1 - t)[None, :] + trace(xr)[:, None] * t[None, :]
    amp = flux - 0.5 * lens * (trace(xl) + trace(xr))
    bubble = amp[:, None] * 6.0 * (t * (1 - t))[None, :] / lens[:, None]
    trace_B = linear + bubble
    trace_D = (flux / lens)[:, None] * np.ones_like(t)[None, :]

    for k in range(dofmap.n_lam):
        hat = hat_values(iface.nodes_x, xq.ravel(), k).reshape(xq.shape)
        expect_B = np.einsum("eq,eq,eq->", wq, trace_B, hat)
        expect_D = np.einsum("eq,eq,eq->", wq, trace_D, hat)
        assert rows_B[k] == pytest.approx(expect_B, abs=1e-13)
        assert rows_D[k] == pytest.approx(-expect_D, abs=1e-13)


# ------------------------------------------------------ fixed pattern


def coo(blocks, n):
    """The n x n CSR sum of (rows, cols, values) blocks that broadcast."""
    rows, cols, vals = zip(*(np.broadcast_arrays(*blk) for blk in blocks))
    return sp.coo_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols]))),
        shape=(n, n),
    ).tocsr()


def quadrature_multiplier_rows(ws, nodes_x):
    """(rows, cols, values) blocks of <v_B . n - v_D . n, xi_k> for the
    hats xi_k of the interface grid ``nodes_x`` (``hat_values``), row k
    for hat k, on a 6-point edge rule with the loop oracle's and
    ``rt0_basis``' values."""
    mesh, iface, dof = ws.mesh, ws.interface, ws.dofmap
    br, rt = dof.br, dof.rt
    t, w = edge_rule(6)
    xq = iface.x_left[:, None] + t[None, :] * (iface.x_right - iface.x_left)[:, None]
    pts = np.stack([xq, np.full_like(xq, iface.y)], axis=2)
    wq = (iface.x_right - iface.x_left)[:, None] * w[None, :]
    hats = np.stack([hat_values(nodes_x, xq, k) for k in range(nodes_x.size)], axis=2)
    verts_B = mesh.vertices[mesh.triangles[iface.tri_B]]
    # barycentric coordinates of the edge points in the Brinkman triangle
    lhs = np.concatenate([verts_B.transpose(0, 2, 1), np.ones((iface.num_edges, 1, 3))], axis=1)
    rhs = np.concatenate([pts.transpose(0, 2, 1), np.ones((iface.num_edges, 1, t.size))], axis=1)
    bary = np.linalg.solve(lhs, rhs).transpose(0, 2, 1)
    phi, _ = loop_br_basis(verts_B, mesh.tri_edge_signs[iface.tri_B], bary)
    psi, _ = rt0_basis(
        mesh.vertices[mesh.triangles[iface.tri_D]], mesh.tri_edge_signs[iface.tri_D], pts
    )
    blocks = []
    for basis, l2g, sign in (
        (phi, br.l2g[np.searchsorted(br.tri_ids, iface.tri_B)], 1.0),
        (psi, dof.off_uD + rt.l2g[np.searchsorted(rt.tri_ids, iface.tri_D)], -1.0),
    ):
        trace = np.einsum("maqd,d->maq", basis, iface.normal)
        vals = sign * np.einsum("maq,mqk,mq->mak", trace, hats, wq)
        blocks.append((np.arange(nodes_x.size), l2g[:, :, None], vals))
    return blocks


def quadrature_coupling(ws):
    """(rows, cols, values) blocks of the coupling block, both halves, by
    quadrature: -(q, div v) on the workspace's rule, with the Brinkman
    divergence from the loop oracle and the Darcy one from ``rt0_basis``,
    the multiplier rows of ``quadrature_multiplier_rows`` on the macro
    grid, and the gauge's (q, 1) on the workspace's rule in a layout with
    a gauge."""
    iface, dof = ws.interface, ws.dofmap
    br, rt = dof.br, dof.rt
    _, gphi = loop_br_basis(ws.verts_B, ws.signs_B, ws.rule.bary)
    div_phi = gphi[..., 0, 0] + gphi[..., 1, 1]
    _, div_psi = rt0_basis(ws.verts_D, ws.signs_D, ws.qpts_D)
    half = [
        (ws.p_dof_B[:, None], br.l2g, -np.einsum("maq,mq->ma", div_phi, ws.wq_B)),
        (ws.p_dof_D[:, None], dof.off_uD + rt.l2g, -np.einsum("ma,mq->ma", div_psi, ws.wq_D)),
    ]
    if dof.gauge_dof >= 0:
        # The mean-zero row: (q, 1) for each pressure.
        half += [(dof.gauge_dof, p_dof, wq.sum(axis=1))
                 for p_dof, wq in ((ws.p_dof_B, ws.wq_B), (ws.p_dof_D, ws.wq_D))]
    half += [(dof.off_lam + k, c, v) for k, c, v in quadrature_multiplier_rows(ws, iface.nodes_x)]
    return half + [(c, r, v) for r, c, v in half]


@pytest.mark.parametrize("mixed", [False, True], ids=["gauge", "mixed"])
def test_operator_matches_a_coo_sum_of_element_matrices(mixed):
    """The Newton system's matrix on the workspace pattern against COO
    sums of the element matrices, block by block (the velocity Jacobian
    and the coupling block sit on disjoint slots), and the free-DOF
    restriction against slicing."""
    if mixed:
        params, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
    else:
        params = PhysicalParams(mu=2.0, forchheimer=10.0, power=3.5, K_B=0.5, K_D=0.1)
        _, data = manufactured_problem(params)
        rect_B, rect_D = RECT_B, RECT_D
    mesh = generate_stacked_rect(rect_B, rect_D, 6, 2, 2)
    iface = build_interface(mesh)
    dofmap = build_dofmap(mesh, iface, data)
    assert (dofmap.gauge_dof < 0) == mixed
    ws = Workspace(mesh, iface, dofmap, degree=6)
    n = dofmap.n_total
    w = np.random.default_rng(2).normal(size=n)

    l2g_B, l2g_D = dofmap.br.l2g, dofmap.off_uD + dofmap.rt.l2g
    loc_B, loc_D = _velocity_linear_local(params, ws)
    loc_B = loc_B + einsum_kernels(w, params, ws)[1]
    da_ref = coo([
        (l2g_B[:, :, None], l2g_B[:, None, :], loc_B),
        (l2g_D[:, :, None], l2g_D[:, None, :], loc_D),
    ], n)
    b_ref = coo(quadrature_coupling(ws), n)

    values, _ = NewtonSystem(params, data, ws).at(w)
    A, B = ws.csr(values), ws.csr(ws.b_data)
    assert A.has_canonical_format and B.has_canonical_format
    assert abs(A - B - da_ref).max() <= 1e-13 * abs(da_ref).max()
    assert abs(B - b_ref).max() <= 1e-13 * abs(b_ref).max()

    rhs = np.random.default_rng(4).normal(size=n)
    x_c = prescribed_values(dofmap, mesh, data)
    x = np.zeros(n)
    x[dofmap.constrained] = x_c
    A_ff, b_f = apply_constraints(ws, values, rhs, x)
    K = (da_ref + b_ref).tocsr()
    c, free = dofmap.constrained, ws.free
    assert free.size == dofmap.n_free + (0 if mixed else 1)
    assert np.intersect1d(free, c).size == 0
    assert abs(A_ff - K[free][:, free]).max() <= 1e-13 * abs(K).max()
    b_expect = rhs[free] - K[free][:, c] @ x_c
    np.testing.assert_allclose(b_f, b_expect, rtol=0, atol=1e-12 * np.abs(b_expect).max())


@pytest.mark.parametrize("pattern", ["right", "crisscross"])
def test_coupling_matches_quadrature_on_a_graded_interface(pattern):
    """On a mesh graded in x the two edges of a macro edge differ in
    length, so the middle vertex meets both hats; the entries from the
    degrees of freedom still match the quadrature reference."""
    mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 3, 2, pattern=pattern)
    x, y = mesh.vertices.T
    graded = replace(mesh, vertices=np.stack([-0.5 + (x + 0.5) ** 1.5, y], axis=1))
    iface = build_interface(graded)
    dofmap = build_dofmap(graded, iface, ProblemData())
    ws = Workspace(graded, iface, dofmap, degree=6)
    B, b_ref = ws.csr(ws.b_data), coo(quadrature_coupling(ws), dofmap.n_total)
    assert abs(B - b_ref).max() <= 1e-13 * abs(b_ref).max()
    middle = dofmap.br.vertex_local[iface.edge_verts[0::2, 1]]
    lam_rows = B[dofmap.off_lam : dofmap.off_lam + dofmap.n_lam]
    assert np.all(lam_rows[:, 2 * middle + 1].toarray().any(axis=0))


# ------------------------------------------------------- inf-sup stability


def half_norm(nodes_x):
    """The H^(1/2) matrix M (M^-1 (A + M))^(1/2) of the continuous
    piecewise-linear functions on the interface grid ``nodes_x``, with M
    and A their mass and stiffness matrices."""
    n, h = nodes_x.size, np.diff(nodes_x)
    M, A = np.zeros((n, n)), np.zeros((n, n))
    for i, hi in enumerate(h):
        M[i : i + 2, i : i + 2] += hi / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        A[i : i + 2, i : i + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / hi
    mu, V = scipy.linalg.eigh(A + M, M)
    MV = M @ V
    return (MV * np.sqrt(mu)) @ MV.T


def inf_sup_spectrum(ws, lam_rows, nodes_x):
    """The two smallest beta^2 of B M_V^-1 B^T y = beta^2 M_Q y.

    B holds the pressure rows of ``ws.b_data`` and the multiplier rows
    ``lam_rows`` (the hats of the interface grid ``nodes_x``) on the free
    velocities; M_V is the H^1 matrix on B and the H(div) matrix on D
    (mass plus s_a s_b / |T|), and M_Q the L^2 mass of the pressures and
    the H^(1/2) matrix of the multipliers.  The gauge stays out."""
    dof = ws.dofmap
    V = ws.free[ws.free < dof.off_p]
    unit = PhysicalParams(mu=1.0, K_B=1.0, K_D=1.0)
    div_div = ws.signs_D[:, :, None] * ws.signs_D[:, None, :] / ws.area_D[:, None, None]
    M_V = ws.csr(static_values(unit, ws) + ws.scatter(ws.slots_D, div_div))[V][:, V]
    pressures = ws.csr(ws.b_data)[dof.off_p : dof.off_p + dof.n_p]
    B = sp.vstack([pressures, lam_rows])[:, V].toarray()
    S = B @ splu(sp.csc_matrix(M_V)).solve(B.T)
    M_Q = scipy.linalg.block_diag(np.diag(ws.mesh.areas), half_norm(nodes_x))
    return scipy.linalg.eigh(S, M_Q, eigvals_only=True, subset_by_index=[0, 1])


def inf_sup_workspace(grid, nx):
    """The workspace of the study layout on the mesh ``grid`` at ``nx``,
    or of the channel layout, whose natural boundaries fix the pressure."""
    if grid == "channel":
        _, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
        mesh = generate_stacked_rect(rect_B, rect_D, nx, nx // 2, nx // 2)
    else:
        _, data = manufactured_problem(PhysicalParams(forchheimer=10.0, K_D=0.1))
        pattern = "crisscross" if grid == "crisscross" else "right"
        mesh = generate_stacked_rect(RECT_B, RECT_D, nx, nx, nx, pattern=pattern)
        if grid == "x-graded":
            mesh = x_graded(mesh)
        if grid == "y-graded":
            mesh = y_graded(mesh)
    iface = build_interface(mesh)
    return Workspace(mesh, iface, build_dofmap(mesh, iface, data), degree=6)


@pytest.mark.parametrize("grid", ["right", "crisscross", "x-graded", "y-graded", "channel"])
def test_the_coupling_is_inf_sup_stable(grid):
    # The scheme is stable because the multipliers live on the doubled
    # interface grid: beta_h stays above a bound independent of h.  Only
    # the constant pressure with its multiplier escapes B^T, and only
    # when every boundary condition is essential.
    kernel = int(grid != "channel")
    for nx in (4, 8, 16):
        ws = inf_sup_workspace(grid, nx)
        dof = ws.dofmap
        lam_rows = ws.csr(ws.b_data)[dof.off_lam : dof.off_lam + dof.n_lam]
        beta2 = inf_sup_spectrum(ws, lam_rows, ws.interface.nodes_x)
        assert np.abs(beta2[:kernel]).max(initial=0.0) <= 1e-10 * beta2[kernel]
        assert np.sqrt(beta2[kernel]) >= 0.3


@pytest.mark.parametrize("grid", ["right", "crisscross", "channel"])
def test_a_multiplier_hat_at_every_interface_vertex_is_not_inf_sup_stable(grid):
    # The control that shows the bound above can fail: on the grid of the
    # interface vertices themselves, beta_h falls like h.
    kernel = int(grid != "channel")
    betas = []
    for nx in (4, 8, 16):
        ws = inf_sup_workspace(grid, nx)
        iface = ws.interface
        nodes_x = np.concatenate([iface.x_left, iface.x_right[-1:]])
        lam_rows = coo(quadrature_multiplier_rows(ws, nodes_x), ws.dofmap.n_total)[: nodes_x.size]
        betas.append(np.sqrt(inf_sup_spectrum(ws, lam_rows, nodes_x)[kernel]))
    assert betas[0] <= 0.1
    assert all(coarse >= 1.8 * fine for coarse, fine in zip(betas, betas[1:]))


# ------------------------------------------------------- nonlinear blocks


def test_velocity_jacobian_is_symmetric():
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=2.0, forchheimer=10.0, power=3.5, K_B=0.5, K_D=0.1)
    rng = np.random.default_rng(7)
    w = rng.normal(size=dofmap.n_total)
    ws = Workspace(mesh, iface, dofmap, degree=6)
    A = ws.csr(NewtonSystem(params, data, ws).at(w)[0])
    assert abs(A - A.T).max() < 1e-12


def test_jacobian_consistent_with_nonlinear_action():
    """One-step finite-difference check of the Newton matrix: the
    derivative of a(w) + B w."""
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    rng = np.random.default_rng(3)
    w = 0.5 * rng.normal(size=dofmap.n_total)
    delta = rng.normal(size=dofmap.n_total)

    ws = Workspace(mesh, iface, dofmap, degree=6)
    A, B = ws.csr(NewtonSystem(params, data, ws).at(w)[0]), ws.csr(ws.b_data)
    eps = 1e-6
    fd = (
        velocity_action(w + eps * delta, params, ws) + B @ (w + eps * delta)
        - velocity_action(w, params, ws) - B @ w
    ) / eps
    err = np.abs(fd - A @ delta).max()
    assert err < 1e-4 * max(1.0, np.abs(A @ delta).max())


def test_nonlinear_action_is_linear_when_forchheimer_vanishes():
    # Without a load the residual of the Newton system is its action.
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(forchheimer=0.0)
    rng = np.random.default_rng(11)
    u, v = rng.normal(size=(2, dofmap.n_total))
    system = NewtonSystem(params, data, Workspace(mesh, iface, dofmap, degree=6))
    a_u = system.residual(u)
    a_v = system.residual(v)
    a_uv = system.residual(u + 2.0 * v)
    np.testing.assert_allclose(a_uv, a_u + 2.0 * a_v, atol=1e-10)


@pytest.mark.parametrize("power", [3.0, 3.5, 4.0])
def test_velocity_kernels_match_the_einsum_formulas(power, monkeypatch):
    # Non-symmetric permeabilities tell K from K^T; a zero iterate on a
    # few Brinkman triangles runs the guard of ``forchheimer_map`` at w = 0.
    def K_B(pts):
        K = np.empty((len(pts), 2, 2))
        K[:, 0, 0] = 1.0 + pts[:, 0] ** 2
        K[:, 0, 1] = 0.3 + 0.1 * pts[:, 1]
        K[:, 1, 0] = -0.2
        K[:, 1, 1] = 2.0 + pts[:, 1]
        return K

    mesh, iface, data, dofmap = setup(nx=6, ny_B=3, ny_D=3)
    params = PhysicalParams(
        mu=1.5, forchheimer=7.0, power=power, K_B=K_B, K_D=np.array([[0.5, 0.1], [-0.05, 0.2]])
    )
    ws = Workspace(mesh, iface, dofmap, degree=6)
    system = NewtonSystem(params, data, ws)
    w = np.random.default_rng(13).normal(size=dofmap.n_total)
    w[dofmap.br.l2g[::5]] = 0.0
    lin_B, forch_B, da_D, rhs_B, _, _, zero = einsum_kernels(w, params, ws)
    assert zero.all(axis=1).sum() >= 5 and not zero.all()

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    l2g_B, l2g_D = dofmap.br.l2g, dofmap.off_uD + dofmap.rt.l2g
    # The 36 Brinkman triangles in one chunk, then in uneven chunks of 5.
    for chunk in (FORCHHEIMER_CHUNK, 5):
        monkeypatch.setattr("bfdarcy.assembly.FORCHHEIMER_CHUNK", chunk)
        data, corr = forchheimer_terms(w, params, ws)
        close(data, ws.scatter(ws.slots_B, forch_B))
        close(corr, np.bincount(l2g_B.ravel(), rhs_B.ravel(), minlength=dofmap.n_total))
        # The coupling block sits on other slots than the velocity blocks.
        close(
            system.at(w)[0] - ws.b_data,
            ws.scatter(ws.slots_B, lin_B + forch_B) + ws.scatter(ws.slots_D, da_D),
        )


@pytest.mark.parametrize("power", [3.0, 3.5, 4.0])
@pytest.mark.parametrize("forchheimer", [0.0, 7.0])
def test_newton_residual_matches_the_einsum_action(forchheimer, power):
    """The residual of the Newton system against the einsum action plus
    the coupling minus the load, on the free rows, with a variable K_B
    and a zero iterate on a few Brinkman triangles."""
    def K_B(pts):
        K = np.empty((len(pts), 2, 2))
        K[:, 0, 0] = 1.0 + pts[:, 0] ** 2
        K[:, 0, 1] = K[:, 1, 0] = 0.3 + 0.1 * pts[:, 1]
        K[:, 1, 1] = 2.0 + pts[:, 1]
        return K

    params = PhysicalParams(
        mu=1.5, forchheimer=forchheimer, power=power, K_B=K_B,
        K_D=np.array([[0.5, 0.1], [0.1, 0.2]]),
    )
    _, data = manufactured_problem(params)
    mesh, iface, _, dofmap = setup(nx=6, ny_B=3, ny_D=3)
    ws = Workspace(mesh, iface, dofmap, degree=6)
    check_permeabilities(params, ws)
    system = NewtonSystem(params, data, ws)
    w = np.random.default_rng(17).normal(size=dofmap.n_total)
    w[dofmap.br.l2g[::5]] = 0.0
    ref = (velocity_action(w, params, ws) + ws.csr(ws.b_data) @ w - system.load)[ws.free]
    assert np.abs(system.residual(w) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("power", [3.0, 3.5, 4.0])
def test_forchheimer_map_is_continuous_at_small_speeds(power):
    """|phi(a) - phi(b)| <= (|a| + |b|)^(p-2) |a - b| on pairs that straddle
    |w| = 1e-12 and on pairs with b = 0, and D phi(0) = 0."""
    rng = np.random.default_rng(23)
    n = 2000

    def at(speed, angle):
        return speed[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    above = at(1e-12 * (1.0 + rng.uniform(1e-2, 0.5, n)), theta)
    below = at(1e-12 * (1.0 - rng.uniform(1e-2, 0.5, n)), theta + rng.normal(0.0, 0.05, n))
    tiny = at(10.0 ** rng.uniform(-16.0, -9.0, n), theta)
    a = np.concatenate([above, tiny])
    b = np.concatenate([below, np.zeros((n, 2))])

    def phi(w):
        return forchheimer_map(w, power)[0][:, None] * w

    gap = np.linalg.norm(phi(a) - phi(b), axis=1)
    bound = (np.linalg.norm(a, axis=1) + np.linalg.norm(b, axis=1)) ** (power - 2.0)
    assert np.all(gap <= (1.0 + 1e-12) * bound * np.linalg.norm(a - b, axis=1))
    weight, jacobian = forchheimer_map(np.zeros((1, 2)), power)
    assert weight[0] == 0.0 and np.all(jacobian == 0.0)


def test_workspace_follows_the_permeability_of_each_call():
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=0.1, K_D=0.1)
    u = np.random.default_rng(5).normal(size=dofmap.n_total)
    shared = Workspace(mesh, iface, dofmap, degree=6)
    NewtonSystem(params, data, shared).residual(u)

    for changed in (replace(params, K_B=1.0), replace(params, K_D=1.0)):
        fresh = Workspace(mesh, iface, dofmap, degree=6)
        np.testing.assert_array_equal(
            NewtonSystem(changed, data, shared).residual(u),
            NewtonSystem(changed, data, fresh).residual(u),
        )


def test_forchheimer_energy_on_a_constant_field():
    # for u = (c, 0) on B: the Newton correction F (p-2) (|u|^(p-2) u, v)
    # at v = u is F (p-2) |c|^p |B|
    mesh, iface, data, dofmap = setup()
    c = 0.7

    def const(pts):
        return np.broadcast_to([c, 0.0], (len(pts), 2)).copy()

    x = np.zeros(dofmap.n_total)
    x[: dofmap.n_uB] = interpolate_br(const, mesh, dofmap.br, edge_points=8)

    params = PhysicalParams(mu=1.0, forchheimer=5.0, power=3.5)
    _, corr = forchheimer_terms(x, params, Workspace(mesh, iface, dofmap, degree=6))
    area_B = mesh.areas[mesh.subdomain == "B"].sum()
    assert np.dot(corr, x) == pytest.approx(5.0 * 1.5 * c**3.5 * area_B, rel=1e-12)


# ------------------------------------------------------------------- rhs


def test_rhs_sources_act_on_the_right_blocks():
    mesh, iface, data, dofmap = setup()

    def f_B(pts):
        return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)

    def g_D(pts):
        return np.full(len(pts), 2.0)

    ws = Workspace(mesh, iface, dofmap, degree=6)
    rhs = assemble_rhs(ProblemData(f_B=f_B), ws)
    # (f_B, v) loads only Brinkman velocity rows
    assert np.abs(rhs[dofmap.n_uB :]).max() == 0.0
    # pairing with the interpolated constant (1, 0) integrates f_B . (1, 0)
    def e_x(pts):
        return np.broadcast_to([1.0, 0.0], (len(pts), 2)).copy()

    c = np.zeros(dofmap.n_total)
    c[: dofmap.n_uB] = interpolate_br(e_x, mesh, dofmap.br, edge_points=8)
    area_B = mesh.areas[mesh.subdomain == "B"].sum()
    assert np.dot(c, rhs) == pytest.approx(area_B, rel=1e-12)

    rhs = assemble_rhs(ProblemData(g_D=g_D), ws)
    # -(g, q) loads only Darcy pressure rows
    p_rows = rhs[dofmap.off_p : dofmap.off_p + dofmap.n_p]
    is_d = mesh.subdomain == "D"
    np.testing.assert_allclose(p_rows[is_d], -2.0 * mesh.areas[is_d], atol=1e-14)
    np.testing.assert_allclose(p_rows[~is_d], 0.0, atol=1e-14)

    def f_D(pts):
        return np.stack([pts[:, 0] * pts[:, 1], 1.0 + pts[:, 0] ** 2], axis=1)

    rhs = assemble_rhs(ProblemData(f_D=f_D), ws)
    # (f_D, v) loads only Darcy velocity rows, as the Raviart-Thomas
    # values at the quadrature points integrate it
    rows = slice(dofmap.off_uD, dofmap.off_uD + dofmap.n_uD)
    assert not np.concatenate([rhs[: rows.start], rhs[rows.stop :]]).any()
    psi, _ = rt0_basis(ws.verts_D, ws.signs_D, ws.qpts_D)
    fq = f_D(ws.qpts_D.reshape(-1, 2)).reshape(ws.qpts_D.shape)
    load = np.einsum("maqd,mqd,mq->ma", psi, fq, ws.wq_D)
    ref = np.bincount(dofmap.rt.l2g.ravel(), load.ravel(), minlength=dofmap.n_uD)
    assert np.abs(rhs[rows] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rhs_traction_loads_only_the_traction_boundary():
    mesh, iface, _, _ = setup()

    def pull(pts, normals):
        return np.broadcast_to([0.5, 0.0], (len(pts), 2)).copy()

    data = ProblemData(velocity_bc={"GB_RIGHT": ("traction", pull)})
    dofmap = build_dofmap(mesh, iface, data)
    rhs = assemble_rhs(data, Workspace(mesh, iface, dofmap, degree=6))

    # <t, v> with v the interpolated constant (1, 0) gives t_x * |GB_RIGHT|,
    # since the interpolant's trace on the side is exactly (1, 0)
    def e_x(pts):
        return np.broadcast_to([1.0, 0.0], (len(pts), 2)).copy()

    c = np.zeros(dofmap.n_total)
    c[: dofmap.n_uB] = interpolate_br(e_x, mesh, dofmap.br, edge_points=8)
    eids = mesh.edges_with_tag("GB_RIGHT")
    side_len = mesh.edge_lengths[eids].sum()
    assert np.dot(c, rhs) == pytest.approx(0.5 * side_len, rel=1e-12)

    # nothing lands outside the Brinkman rows attached to that boundary
    verts = np.unique(mesh.edges[eids])
    xdofs = 2 * dofmap.br.vertex_local[verts]
    mask = np.zeros(dofmap.n_total, dtype=bool)
    mask[xdofs] = True
    mask[xdofs + 1] = True
    bub = 2 * dofmap.br.vertex_ids.size + dofmap.br.edge_local[eids]
    mask[bub] = True
    assert np.abs(rhs[~mask]).max() == 0.0

    # A workspace built for a layout where that side is essential has no
    # tables for its traction term and says so.
    essential = Workspace(mesh, iface, build_dofmap(mesh, iface, ProblemData()), degree=6)
    with pytest.raises(ValueError, match="GB_RIGHT"):
        assemble_rhs(data, essential)


def test_rhs_darcy_pressure_loads_only_the_pressure_boundary():
    mesh, iface, _, _ = setup()

    def pbar(pts):
        return 1.0 + pts[:, 0]

    data = ProblemData(darcy_bc={"GD_BOTTOM": ("pressure", pbar)})
    dofmap = build_dofmap(mesh, iface, data)
    rhs = assemble_rhs(data, Workspace(mesh, iface, dofmap, degree=6))

    # -<pbar, v . n> with v the interpolated constant (0.2, 0.7): its
    # normal trace on the bottom is exactly v . n = -0.7, and pbar is
    # linear, so the edge midpoints integrate it exactly.
    def v(pts):
        return np.broadcast_to([0.2, 0.7], (len(pts), 2)).copy()

    c = np.zeros(dofmap.n_total)
    c[dofmap.off_uD : dofmap.off_uD + dofmap.n_uD] = interpolate_rt0(v, mesh, dofmap.rt)
    eids = mesh.edges_with_tag("GD_BOTTOM")
    mid = mesh.vertices[mesh.edges[eids]].mean(axis=1)
    integral = np.dot(mesh.edge_lengths[eids], pbar(mid))
    assert np.dot(c, rhs) == pytest.approx(0.7 * integral, rel=1e-12)

    # nothing lands outside the Raviart-Thomas rows of that boundary
    mask = np.zeros(dofmap.n_total, dtype=bool)
    mask[dofmap.off_uD + dofmap.rt.edge_local[eids]] = True
    assert np.abs(rhs[~mask]).max() == 0.0
    assert (rhs[mask] < 0.0).all()


def test_interface_traction_loads_interface_velocity_rows():
    params = PhysicalParams(forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    exact, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 2, 2)
    iface = build_interface(mesh)
    dofmap = build_dofmap(mesh, iface, data)

    ws = Workspace(mesh, iface, dofmap, degree=6)
    with_t = assemble_rhs(data, ws)
    import dataclasses

    without = dataclasses.replace(data, interface_traction=None)
    base = assemble_rhs(without, ws)
    diff = with_t - base
    # only Brinkman dofs supported on the interface change
    iface_verts = np.unique(iface.edge_verts)
    allowed = np.zeros(dofmap.n_total, dtype=bool)
    vl = dofmap.br.vertex_local[iface_verts]
    allowed[2 * vl] = True
    allowed[2 * vl + 1] = True
    allowed[2 * dofmap.br.vertex_ids.size + dofmap.br.edge_local[iface.edge_ids]] = True
    assert np.abs(diff[~allowed]).max() == 0.0
    assert np.abs(diff[allowed]).max() > 0.0
