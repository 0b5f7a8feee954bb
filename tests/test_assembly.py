"""Operator assembly tests against hand-computable oracles."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bfdarcy import (
    PhysicalParams,
    ProblemData,
    assemble_a_nonlinear,
    assemble_b,
    assemble_da,
    assemble_rhs,
    build_dofmap,
    build_interface,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    interpolate_br,
    interpolate_rt0,
    manufactured_problem,
    prescribed_values,
)
from bfdarcy.assembly import (
    FORCHHEIMER_CHUNK,
    SPEED_FLOOR,
    Workspace,
    _forchheimer_local,
    _velocity_linear_local,
    apply_constraints,
    check_permeabilities,
    forchheimer_data,
    forchheimer_rhs,
    inverse_tensor_field,
    tensor_field,
    zero_scalar,
    zero_vector,
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
    mesh, _, _, _ = setup()
    with pytest.raises(ValueError, match="symmetric"):
        check_permeabilities(
            PhysicalParams(K_B=np.array([[1.0, 0.5], [0.0, 1.0]])), mesh
        )
    with pytest.raises(ValueError, match="positive definite"):
        check_permeabilities(
            PhysicalParams(K_D=np.array([[1.0, 0.0], [0.0, -2.0]])), mesh
        )
    check_permeabilities(PhysicalParams(K_B=0.1, K_D=1.0e-3), mesh)


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
    mesh, _, _, _ = setup()

    def K_fn(p):
        out = np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy()
        out[:, 0, 1] = out[:, 1, 0] = np.where(p[:, 0] > 0.4, bad, 0.0)
        return out

    with pytest.raises(ValueError, match="K_B must be finite"):
        check_permeabilities(PhysicalParams(K_B=K_fn), mesh)


def test_constant_permeability_is_inverted_once_with_the_same_arithmetic():
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(50, 2))
    for K in (0.3, np.array([[2.0, 0.4], [0.4, 0.7]])):
        inv = inverse_tensor_field(K, pts)
        per_point = inverse_tensor_field(lambda p, K=K: tensor_field(K, p).copy(), pts)
        assert inv.shape == (50, 2, 2) and inv.flags.c_contiguous
        np.testing.assert_array_equal(inv, per_point)


def test_check_permeabilities_checks_a_callable_at_every_point():
    mesh, _, _, _ = setup()

    def K_fn(p):
        out = np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy()
        out[:, 1, 1] = np.where(p[:, 0] > 0.4, -1.0, 1.0)
        return out

    with pytest.raises(ValueError, match="K_D must be positive definite"):
        check_permeabilities(PhysicalParams(K_D=K_fn), mesh)


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
    assert ProblemData().bc_mode == "standard"
    mixed = ProblemData(velocity_bc={"GB_RIGHT": ("traction", zero_vector)})
    assert mixed.gauge_pressure is False
    assert mixed.bc_mode == "mixed"
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
    element therefore holds -sign on its bubble/flux columns and zero on
    its vertex columns.
    """
    mesh, iface, data, dofmap = setup()
    B = assemble_b(Workspace(mesh, iface, dofmap))

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

    got = B[dofmap.off_p : dofmap.off_p + dofmap.n_p, :]
    assert abs(got - expect.tocsr()).max() < 1e-12


def test_coupling_block_is_symmetric():
    mesh, iface, data, dofmap = setup()
    B = assemble_b(Workspace(mesh, iface, dofmap))
    assert abs(B - B.T).max() < 1e-13


def test_coupling_pattern_keeps_no_exact_zeros():
    # The coupling block depends on the mesh alone; its slots that sum to
    # exactly zero are left out of the workspace pattern.
    mesh, iface, data, dofmap = setup()
    B = assemble_b(Workspace(mesh, iface, dofmap)).tocoo()
    coupling = B.row >= dofmap.off_p
    assert coupling.any() and np.all(B.data[coupling] != 0.0)


def test_interface_rows_integrate_constant_normal_velocity():
    """<v.n, xi> rows evaluated on the constant field v = (0, -1).

    With v.n = 1 on the interface each multiplier row reduces to the
    integral of its hat function: half the adjacent macro widths.
    """
    mesh, iface, data, dofmap = setup(nx=6)
    B = assemble_b(Workspace(mesh, iface, dofmap))

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
    B = assemble_b(Workspace(mesh, iface, dofmap))

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

    from bfdarcy import edge_rule

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
        hat = iface.hat_values(xq.ravel(), k).reshape(xq.shape)
        expect_B = np.einsum("eq,eq,eq->", wq, trace_B, hat)
        expect_D = np.einsum("eq,eq,eq->", wq, trace_D, hat)
        assert rows_B[k] == pytest.approx(expect_B, abs=1e-13)
        assert rows_D[k] == pytest.approx(-expect_D, abs=1e-13)


# ------------------------------------------------------ fixed pattern


@pytest.mark.parametrize("mixed", [False, True], ids=["gauge", "mixed"])
def test_operator_matches_a_coo_sum_of_element_matrices(mixed):
    """assemble_da and assemble_b on the workspace pattern against COO sums
    of the element matrices, and the free-DOF restriction against slicing."""
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
    ws = Workspace(mesh, iface, dofmap)
    n = dofmap.n_total
    w = np.random.default_rng(2).normal(size=n)

    def coo(blocks):
        rows, cols, vals = zip(*(np.broadcast_arrays(*blk) for blk in blocks))
        return sp.coo_matrix(
            (np.concatenate([v.ravel() for v in vals]),
             (np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols]))),
            shape=(n, n),
        ).tocsr()

    l2g_B, l2g_D = dofmap.br.l2g, dofmap.off_uD + dofmap.rt.l2g
    loc_B, loc_D = _velocity_linear_local(params, ws)
    loc_B = loc_B + _forchheimer_local(w, params, ws)
    da_ref = coo([
        (l2g_B[:, :, None], l2g_B[:, None, :], loc_B),
        (l2g_D[:, :, None], l2g_D[:, None, :], loc_D),
    ])
    nrm = iface.normal
    half = [
        (ws.p_dof_B[:, None], l2g_B, -np.einsum("maq,mq->ma", ws.div_phi, ws.wq_B)),
        (ws.p_dof_D[:, None], l2g_D, -ws.div_psi * ws.area_D[:, None]),
        (ws.snodes[:, None, :], ws.sl2g_B[:, :, None],
         np.einsum("maqd,d,mqj,mq->maj", ws.sphi, nrm, ws.shat, ws.swts)),
        (ws.snodes[:, None, :], ws.sl2g_D[:, :, None],
         -np.einsum("maqd,d,mqj,mq->maj", ws.spsi, nrm, ws.shat, ws.swts)),
    ]
    b_ref = coo(half + [(c, r, v) for r, c, v in half])

    Da, B = assemble_da(w, params, ws), assemble_b(ws)
    assert Da.has_canonical_format and B.has_canonical_format
    np.testing.assert_array_equal(Da.indices, B.indices)
    assert abs(Da - da_ref).max() <= 1e-13 * abs(da_ref).max()
    assert abs(B - b_ref).max() <= 1e-13 * abs(b_ref).max()

    rhs = np.random.default_rng(4).normal(size=n)
    x_c = prescribed_values(dofmap, mesh, data)
    x = np.zeros(n)
    x[dofmap.constrained] = x_c
    A_ff, b_f = apply_constraints(ws, Da.data + B.data, rhs, x)
    K = (da_ref + b_ref).tocsr()
    c, free = dofmap.constrained, ws.free
    assert free.size == dofmap.n_free + (0 if mixed else 1)
    assert np.intersect1d(free, c).size == 0
    assert abs(A_ff - K[free][:, free]).max() <= 1e-13 * abs(K).max()
    b_expect = rhs[free] - K[free][:, c] @ x_c
    np.testing.assert_allclose(b_f, b_expect, rtol=0, atol=1e-12 * np.abs(b_expect).max())


# ------------------------------------------------------- nonlinear blocks


def test_velocity_jacobian_is_symmetric():
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=2.0, forchheimer=10.0, power=3.5, K_B=0.5, K_D=0.1)
    rng = np.random.default_rng(7)
    w = rng.normal(size=dofmap.n_total)
    A = assemble_da(w, params, Workspace(mesh, iface, dofmap))
    assert abs(A - A.T).max() < 1e-12


def test_jacobian_consistent_with_nonlinear_action():
    """One-step finite-difference check of the velocity derivative."""
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    rng = np.random.default_rng(3)
    w = 0.5 * rng.normal(size=dofmap.n_total)
    delta = rng.normal(size=dofmap.n_total)

    ws = Workspace(mesh, iface, dofmap)
    A = assemble_da(w, params, ws)
    eps = 1e-6
    fd = (
        assemble_a_nonlinear(w + eps * delta, params, ws)
        - assemble_a_nonlinear(w, params, ws)
    ) / eps
    err = np.abs(fd - A @ delta).max()
    assert err < 1e-4 * max(1.0, np.abs(A @ delta).max())


def test_nonlinear_action_is_linear_when_forchheimer_vanishes():
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(forchheimer=0.0)
    rng = np.random.default_rng(11)
    u, v = rng.normal(size=(2, dofmap.n_total))
    ws = Workspace(mesh, iface, dofmap)
    a_u = assemble_a_nonlinear(u, params, ws)
    a_v = assemble_a_nonlinear(v, params, ws)
    a_uv = assemble_a_nonlinear(u + 2.0 * v, params, ws)
    np.testing.assert_allclose(a_uv, a_u + 2.0 * a_v, atol=1e-10)


def einsum_kernels(w, params, ws):
    """The element kernels of the velocity blocks written as plain einsums:
    linear and Forchheimer parts of the Da element matrices on B, the Da
    element matrices on D, the Newton rhs correction on B, the nonlinear
    action on B and D, and where the iterate is below SPEED_FLOOR."""
    F, p = params.forchheimer, params.power
    phi, gphi, psi, wq_B, wq_D = ws.phi, ws.gphi, ws.psi, ws.wq_B, ws.wq_D
    kinv_B, kinv_D = ws.kinv_B(params), ws.kinv_D(params)
    cw = w[: ws.dofmap.n_uB][ws.dofmap.br.l2g]
    cd = w[ws.dofmap.off_uD : ws.dofmap.off_uD + ws.dofmap.n_uD][ws.dofmap.rt.l2g]
    wfield = np.einsum("ma,maqd->mqd", cw, phi)
    speed = np.linalg.norm(wfield, axis=2)
    small = speed < SPEED_FLOOR
    safe = np.where(small, 1.0, speed)
    s_p2 = np.where(small, 0.0, safe ** (p - 2.0))
    s_p4 = np.where(small, 0.0, safe ** (p - 4.0))
    dots = np.einsum("mqd,maqd->maq", wfield, phi)

    lin_B = params.mu * np.einsum("maqij,mbqij,mq->mab", gphi, gphi, wq_B)
    lin_B += np.einsum("mqij,maqj,mbqi,mq->mab", kinv_B, phi, phi, wq_B)
    forch_B = F * np.einsum("mq,maqd,mbqd,mq->mab", s_p2, phi, phi, wq_B)
    forch_B += F * (p - 2.0) * np.einsum("mq,maq,mbq,mq->mab", s_p4, dots, dots, wq_B)
    da_D = np.einsum("mqij,maqj,mbqi,mq->mab", kinv_D, psi, psi, wq_D)
    rhs_B = F * (p - 2.0) * np.einsum("mq,mqd,maqd,mq->ma", s_p2, wfield, phi, wq_B)

    ugrad = np.einsum("ma,maqij->mqij", cw, gphi)
    act_B = params.mu * np.einsum("mqij,maqij,mq->ma", ugrad, gphi, wq_B)
    act_B += np.einsum("mqij,mqj,maqi,mq->ma", kinv_B, wfield, phi, wq_B)
    act_B += F * np.einsum("mq,mqd,maqd,mq->ma", s_p2, wfield, phi, wq_B)
    dfield = np.einsum("ma,maqd->mqd", cd, psi)
    act_D = np.einsum("mqij,mqj,maqi,mq->ma", kinv_D, dfield, psi, wq_D)
    return lin_B, forch_B, da_D, rhs_B, act_B, act_D, small


@pytest.mark.parametrize("power", [3.0, 4.0])
def test_velocity_kernels_match_the_einsum_formulas(power, monkeypatch):
    # Non-symmetric permeabilities tell K from K^T; a zero iterate on a
    # few Brinkman triangles runs the SPEED_FLOOR branch.
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
    ws = Workspace(mesh, iface, dofmap)
    w = np.random.default_rng(13).normal(size=dofmap.n_total)
    w[dofmap.br.l2g[::5]] = 0.0
    lin_B, forch_B, da_D, rhs_B, act_B, act_D, small = einsum_kernels(w, params, ws)
    assert small.all(axis=1).sum() >= 5 and not small.all()

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    l2g_B, l2g_D = dofmap.br.l2g, dofmap.off_uD + dofmap.rt.l2g
    # The 36 Brinkman triangles in one chunk, then in uneven chunks of 5.
    for chunk in (FORCHHEIMER_CHUNK, 5):
        monkeypatch.setattr("bfdarcy.assembly.FORCHHEIMER_CHUNK", chunk)
        close(forchheimer_data(w, params, ws), ws.scatter(ws.slots_B, forch_B))
        close(
            assemble_da(w, params, ws).data,
            ws.scatter(ws.slots_B, lin_B + forch_B) + ws.scatter(ws.slots_D, da_D),
        )
    close(
        forchheimer_rhs(w, params, ws),
        np.bincount(l2g_B.ravel(), rhs_B.ravel(), minlength=dofmap.n_total),
    )
    act = np.zeros(dofmap.n_total)
    np.add.at(act, l2g_B, act_B)
    np.add.at(act, l2g_D, act_D)
    close(assemble_a_nonlinear(w, params, ws), act)


def test_workspace_follows_the_permeability_of_each_call():
    mesh, iface, data, dofmap = setup()
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=0.1, K_D=0.1)
    u = np.random.default_rng(5).normal(size=dofmap.n_total)
    shared = Workspace(mesh, iface, dofmap)
    assemble_a_nonlinear(u, params, shared)

    for changed in (replace(params, K_B=1.0), replace(params, K_D=1.0)):
        fresh = Workspace(mesh, iface, dofmap)
        np.testing.assert_array_equal(
            assemble_a_nonlinear(u, changed, shared),
            assemble_a_nonlinear(u, changed, fresh),
        )


def test_forchheimer_energy_on_a_constant_field():
    # for u = (c, 0) on B: [a(u), u] adds F |c|^p * |B| over the linear part
    mesh, iface, data, dofmap = setup()
    c = 0.7

    def const(pts):
        return np.broadcast_to([c, 0.0], (len(pts), 2)).copy()

    x = np.zeros(dofmap.n_total)
    x[: dofmap.n_uB] = interpolate_br(const, mesh, dofmap.br, edge_points=8)

    p0 = PhysicalParams(mu=1.0, forchheimer=0.0, power=3.0)
    p1 = PhysicalParams(mu=1.0, forchheimer=5.0, power=3.0)
    ws = Workspace(mesh, iface, dofmap)
    e0 = np.dot(assemble_a_nonlinear(x, p0, ws), x)
    e1 = np.dot(assemble_a_nonlinear(x, p1, ws), x)
    area_B = mesh.areas[mesh.subdomain == "B"].sum()
    assert e1 - e0 == pytest.approx(5.0 * c**3 * area_B, rel=1e-12)


# ------------------------------------------------------------------- rhs


def test_rhs_sources_act_on_the_right_blocks():
    mesh, iface, data, dofmap = setup()

    def f_B(pts):
        return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)

    def g_D(pts):
        return np.full(len(pts), 2.0)

    ws = Workspace(mesh, iface, dofmap)
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


def test_rhs_traction_loads_only_the_traction_boundary():
    mesh, iface, _, _ = setup()

    def pull(pts, normals):
        return np.broadcast_to([0.5, 0.0], (len(pts), 2)).copy()

    data = ProblemData(velocity_bc={"GB_RIGHT": ("traction", pull)})
    dofmap = build_dofmap(mesh, iface, data)
    rhs = assemble_rhs(data, Workspace(mesh, iface, dofmap))

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
    essential = Workspace(mesh, iface, build_dofmap(mesh, iface, ProblemData()))
    with pytest.raises(ValueError, match="GB_RIGHT"):
        assemble_rhs(data, essential)


def test_interface_traction_loads_interface_velocity_rows():
    params = PhysicalParams(forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    exact, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 2, 2)
    iface = build_interface(mesh)
    dofmap = build_dofmap(mesh, iface, data)

    ws = Workspace(mesh, iface, dofmap)
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
