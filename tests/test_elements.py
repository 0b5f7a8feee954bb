"""Quadrature, reference bases and interpolation operator tests."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdarcy import (
    edge_rule,
    generate_stacked_rect,
    interpolate_br,
    interpolate_rt0,
    project_p0,
    quad_rule,
)
from bfdarcy.elements import (
    _GAUSS_JACOBI_1_0,
    br_coefficients,
    br_gradients,
    br_space,
    edge_bary,
    physical_points,
    rt0_basis,
    rt0_space,
    triangle_geometry,
)

from oracles import br_tables, loop_br_basis

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


def small_mesh(nx=4, ny_B=2, ny_D=2, pattern="right"):
    return generate_stacked_rect(RECT_B, RECT_D, nx, ny_B, ny_D, pattern=pattern)


# --------------------------------------------------------------- quadrature


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_rule_integrates_monomials_exactly(degree):
    # on the unit reference triangle: int x^a y^b = a! b! / (a + b + 2)!
    rule = quad_rule(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.dot(rule.weights, x**a * y**b)
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert got == pytest.approx(exact, abs=2e-15, rel=1e-13)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_rule_is_a_proper_rule(degree):
    rule = quad_rule(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
    assert np.all(rule.weights > 0.0)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all((x >= 0) & (y >= 0) & (x + y <= 1.0 + 1e-14))
    assert rule.bary.shape == (len(rule), 3)
    np.testing.assert_allclose(rule.bary.sum(axis=1), 1.0, atol=1e-14)


def test_high_degree_rules_are_plain_conical_products():
    # n x n Gauss points, n = (degree + 2) // 2, exact to degree 2n - 1
    assert [len(quad_rule(d)) for d in range(7, 11)] == [16, 25, 25, 36]


def test_conical_rules_use_the_exact_gauss_jacobi_nodes():
    # The table stands in for scipy.special.roots_jacobi, which the
    # package does not import; it must match it to the last bit.
    from scipy.special import roots_jacobi

    assert sorted(_GAUSS_JACOBI_1_0) == sorted({(d + 2) // 2 for d in range(7, 11)})
    for n, (nodes, weights) in _GAUSS_JACOBI_1_0.items():
        t, w = roots_jacobi(n, 1.0, 0.0)
        assert np.array_equal(np.array(nodes), t)
        assert np.array_equal(np.array(weights), w)


def test_triangle_rule_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        quad_rule(0)
    with pytest.raises(ValueError):
        quad_rule(11)


@pytest.mark.parametrize("n", range(1, 11))
def test_edge_rule_integrates_polynomials_exactly(n):
    t, w = edge_rule(n)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all((t > 0.0) & (t < 1.0))
    for k in range(2 * n):  # n-point Gauss is exact through degree 2n - 1
        assert np.dot(w, t**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_edge_rule_rejects_unsupported_count():
    with pytest.raises(ValueError):
        edge_rule(0)


def test_physical_points_maps_barycenters():
    verts = np.array([[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]])
    bary = np.array([[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]])
    pts = physical_points(verts, bary)
    np.testing.assert_allclose(pts[0, 0], [2 / 3, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(pts[0, 1], [0.0, 0.0], atol=1e-15)


# ------------------------------------------------------------ basis duality

triangle_coords = st.tuples(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
)


def as_ccw_triangle(coords):
    v = np.array(coords, dtype=float).reshape(3, 2)
    d1, d2 = v[1] - v[0], v[2] - v[0]
    area2 = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(area2) < 0.5:
        return None
    if area2 < 0:
        v = v[[0, 2, 1]]
    return v


def edge_flux_functionals(verts, vector_field_at):
    """Integrate a field's outward normal flux over the three edges.

    Edge j joins the two vertices other than local vertex j; returns the
    three fluxes using 6-point Gauss per edge.
    """
    t, w = edge_rule(6)
    fluxes = np.zeros(3)
    for j in range(3):
        a, b = verts[(j + 1) % 3], verts[(j + 2) % 3]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        tang = b - a
        nrm = np.array([tang[1], -tang[0]])
        nrm /= np.linalg.norm(nrm)
        mid = 0.5 * (a + b)
        if np.dot(nrm, mid - verts.mean(axis=0)) < 0:
            nrm = -nrm
        vals = vector_field_at(pts)
        fluxes[j] = np.linalg.norm(b - a) * np.einsum("q,qd,d->", w, vals, nrm)
    return fluxes


def oracle_mesh():
    """A crisscross mesh whose interior vertices are moved off the grid, so
    the triangles have no common shape and edge signs of both kinds."""
    mesh = small_mesh(nx=6, ny_B=3, ny_D=3, pattern="crisscross")
    tagged = mesh.edges[mesh.edge_tags != ""].ravel()
    inner = np.setdiff1d(np.arange(mesh.num_vertices), tagged)
    vertices = mesh.vertices.copy()
    vertices[inner] += np.random.default_rng(17).uniform(-0.04, 0.04, size=(inner.size, 2))
    return vertices[mesh.triangles], mesh.tri_edge_signs, mesh


def assert_tables_match(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("degree", range(1, 11))
def test_br_basis_matches_the_loop_oracle_on_every_rule(degree):
    verts, signs, _ = oracle_mesh()
    bary = quad_rule(degree).bary
    assert_tables_match(br_tables(verts, signs, bary), loop_br_basis(verts, signs, bary))


def test_br_basis_matches_the_loop_oracle_at_per_triangle_edge_points():
    # Edge points in the local vertex order of each incident triangle, as
    # the interface and natural boundary tables evaluate the basis.
    verts, signs, mesh = oracle_mesh()
    tri = np.concatenate([mesh.edge_tris[:, 0], mesh.edge_tris[mesh.edge_tris[:, 1] >= 0, 1]])
    edges = np.concatenate([mesh.edges, mesh.edges[mesh.edge_tris[:, 1] >= 0]])
    bary = edge_bary(mesh.triangles, edges, tri, edge_rule(5)[0])
    assert bary.shape == (tri.size, 5, 3)
    assert_tables_match(
        br_tables(verts[tri], signs[tri], bary), loop_br_basis(verts[tri], signs[tri], bary)
    )


def test_br_coefficients_are_polynomial_coefficients():
    # Monomial 3 + j is the bubble product of edge j, and the gradient
    # coefficients of a vertex function's P1 part sit on the monomial 1.
    verts, signs, _ = oracle_mesh()
    _, geta, _, _ = triangle_geometry(verts)
    coef = br_coefficients(verts, signs)
    gcoef = br_gradients(coef, geta)
    assert coef.shape == (verts.shape[0], 9, 6, 2)
    assert gcoef.shape == (verts.shape[0], 9, 4, 2, 2)
    # The stiffness views it as (m, 9, 4, 4) without a copy.
    assert gcoef.flags.c_contiguous
    np.testing.assert_array_equal(coef[:, 6:, :3], 0.0)
    np.testing.assert_array_equal(gcoef[:, 6:, 0], 0.0)
    for j in range(3):
        others = [s for s in range(3, 6) if s != 3 + j]
        np.testing.assert_array_equal(coef[:, 6 + j, others], 0.0)
        np.testing.assert_array_equal(gcoef[:, 6 + j, 1 + j], 0.0)
    for k in range(6):
        np.testing.assert_array_equal(coef[:, k, k // 2, k % 2], 1.0)
        np.testing.assert_array_equal(gcoef[:, k, 0, k % 2], geta[:, k // 2])


@settings(max_examples=30, deadline=None)
@given(coords=triangle_coords)
def test_br_basis_dof_matrix_is_the_identity(coords):
    verts1 = as_ccw_triangle(coords)
    if verts1 is None:
        return
    verts = verts1[None, :, :]
    signs = np.ones((1, 3), dtype=int)

    # evaluate all 9 functions at the 3 vertices
    vertex_bary = np.eye(3)
    phi, _ = br_tables(verts, signs, vertex_bary)

    dof = np.zeros((9, 9))
    for a in range(9):
        for i in range(3):
            dof[2 * i, a] = phi[0, a, i, 0]
            dof[2 * i + 1, a] = phi[0, a, i, 1]

    t, _ = edge_rule(6)
    for a in range(9):
        def field(pts, a=a):
            # barycentric coordinates of pts in this triangle
            T = np.column_stack([verts1[1] - verts1[0], verts1[2] - verts1[0]])
            lam12 = np.linalg.solve(T, (pts - verts1[0]).T).T
            bary = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            vals, _ = br_tables(verts, signs, bary)
            return vals[0, a]

        dof[6:9, a] = edge_flux_functionals(verts1, field)

    np.testing.assert_allclose(dof, np.eye(9), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(coords=triangle_coords)
def test_rt0_basis_flux_duality_and_divergence(coords):
    verts1 = as_ccw_triangle(coords)
    if verts1 is None:
        return
    verts = verts1[None, :, :]
    signs = np.ones((1, 3), dtype=int)

    def field(pts, a):
        return rt0_basis(verts, signs, pts[None, :, :])[0][0, a]

    for a in range(3):
        fluxes = edge_flux_functionals(verts1, lambda pts, a=a: field(pts, a))
        expect = np.zeros(3)
        expect[a] = 1.0
        np.testing.assert_allclose(fluxes, expect, atol=1e-12)

    # the field is linear, so three point evaluations determine its
    # gradient; the divergence must be the constant (sum of fluxes)/area
    pts = np.array([[0.5, 0.3, 0.2], [0.4, 0.5, 0.1], [0.3, 0.1, 0.6]]) @ verts1
    area = 0.5 * abs(np.linalg.det(np.column_stack([verts1[1] - verts1[0], verts1[2] - verts1[0]])))
    _, div_reported = rt0_basis(verts, signs, pts[None, :, :])
    for a in range(3):
        vals = field(pts, a)
        M = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
        G = np.linalg.solve(M.T, np.column_stack([vals[1] - vals[0], vals[2] - vals[0]]).T).T
        div = G[0, 0] + G[1, 1]
        assert div == pytest.approx(1.0 / area, rel=1e-10)
        assert div_reported[0, a] == pytest.approx(div, rel=1e-10)

    # Each function is affine, so its values at the vertices, times the
    # barycentric coordinates, reproduce it: at the points of every
    # triangle rule and at per-triangle points on the three edges.
    signs = np.array([[1, -1, 1]])
    coef, _ = rt0_basis(verts, signs, verts)
    t, _ = edge_rule(4)
    on_edges = np.zeros((1, 3, t.size, 3))
    for i in range(3):
        on_edges[0, i, :, (i + 1) % 3] = 1.0 - t
        on_edges[0, i, :, (i + 2) % 3] = t
    tables = [quad_rule(d).bary[None] for d in range(1, 11)] + [on_edges.reshape(1, -1, 3)]
    for bary in tables:
        ref, _ = rt0_basis(verts, signs, physical_points(verts, bary))
        got = np.einsum("mqi,maid->maqd", bary, coef)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_br_basis_respects_global_edge_orientation():
    # on a shared mesh edge the bubble of each incident triangle must
    # integrate to the same global flux, so the coefficient is shared
    mesh = small_mesh()
    space = br_space(mesh)
    interior = np.flatnonzero(
        (mesh.edge_tris[:, 1] >= 0)
        & (mesh.subdomain[mesh.edge_tris[:, 0]] == "B")
        & (mesh.subdomain[np.maximum(mesh.edge_tris[:, 1], 0)] == "B")
    )
    e = interior[0]
    t0, t1 = mesh.edge_tris[e]
    rows = [np.flatnonzero(space.tri_ids == t)[0] for t in (t0, t1)]
    t, w = edge_rule(6)
    a, b = mesh.vertices[mesh.edges[e]]
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    n = mesh.outward_normals()[e]

    for row, tri in zip(rows, (t0, t1)):
        verts1 = mesh.vertices[mesh.triangles[tri]]
        local = np.flatnonzero(mesh.tri_edges[tri] == e)[0]
        T = np.column_stack([verts1[1] - verts1[0], verts1[2] - verts1[0]])
        lam12 = np.linalg.solve(T, (pts - verts1[0]).T).T
        bary = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
        phi, _ = br_tables(
            verts1[None], mesh.tri_edge_signs[tri][None], bary
        )
        flux = mesh.edge_lengths[e] * np.einsum("q,qd,d->", w, phi[0, 6 + local], n)
        assert flux == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ interpolation


def poly_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([x**2 - 2 * x * y + 0.5 * y, y**2 + x - 1.0], axis=1)


def trig_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([np.sin(np.pi * x) * np.cosh(y), np.cos(np.pi * y) + 0.1 * x], axis=1)


def div_poly(pts):
    x, y = pts[:, 0], pts[:, 1]
    return (2 * x - 2 * y) + 2 * y


def div_trig(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.pi * np.cos(np.pi * x) * np.cosh(y) - np.pi * np.sin(np.pi * y)


def edge_quadrature(mesh, eids, npts=8):
    t, w = edge_rule(npts)
    a = mesh.vertices[mesh.edges[eids, 0]]
    b = mesh.vertices[mesh.edges[eids, 1]]
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    wts = mesh.edge_lengths[eids][:, None] * w[None, :]
    return pts, wts


@pytest.mark.parametrize("field", [poly_field, trig_field])
def test_br_interpolation_preserves_edge_fluxes(field):
    mesh = small_mesh()
    space = br_space(mesh)
    coeffs = interpolate_br(field, mesh, space, edge_points=8)
    normals = mesh.outward_normals()
    pts, wts = edge_quadrature(mesh, space.edge_ids)

    vals = field(pts.reshape(-1, 2)).reshape(pts.shape)
    target = np.einsum("eq,eqd,ed->e", wts, vals, normals[space.edge_ids])

    # discrete flux: evaluate the interpolant on each edge from the B side
    tri_side = np.where(
        mesh.subdomain[mesh.edge_tris[space.edge_ids, 0]] == "B",
        mesh.edge_tris[space.edge_ids, 0],
        mesh.edge_tris[space.edge_ids, 1],
    )
    got = np.empty(space.edge_ids.size)
    for k, (e, tri) in enumerate(zip(space.edge_ids, tri_side)):
        verts1 = mesh.vertices[mesh.triangles[tri]]
        T = np.column_stack([verts1[1] - verts1[0], verts1[2] - verts1[0]])
        lam12 = np.linalg.solve(T, (pts[k] - verts1[0]).T).T
        bary = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
        phi, _ = br_tables(verts1[None], mesh.tri_edge_signs[tri][None], bary)
        row = np.flatnonzero(space.tri_ids == tri)[0]
        uh = np.einsum("a,aqd->qd", coeffs[space.l2g[row]], phi[0])
        got[k] = np.einsum("q,qd,d->", wts[k], uh, normals[e])

    np.testing.assert_allclose(got, target, atol=1e-11)


@pytest.mark.parametrize("field", [poly_field, trig_field])
def test_rt0_interpolation_preserves_edge_fluxes(field):
    mesh = small_mesh()
    space = rt0_space(mesh)
    coeffs = interpolate_rt0(field, mesh, space, edge_points=8)
    normals = mesh.outward_normals()
    pts, wts = edge_quadrature(mesh, space.edge_ids)
    vals = field(pts.reshape(-1, 2)).reshape(pts.shape)
    target = np.einsum("eq,eqd,ed->e", wts, vals, normals[space.edge_ids])
    # an RT0 coefficient IS the global edge flux
    np.testing.assert_allclose(coeffs, target, atol=1e-11)


@pytest.mark.parametrize(
    "field,div", [(poly_field, div_poly), (trig_field, div_trig)]
)
def test_divergence_projection_commutes(field, div):
    # the identity is exact for exact DOF functionals, so evaluate the
    # edge fluxes and the projection with high-order rules
    mesh = small_mesh()
    rule = quad_rule(6)
    p0_div = project_p0(div, mesh, degree=10)

    # Brinkman side: elementwise mean of div(interpolant)
    space_b = br_space(mesh)
    cb = interpolate_br(field, mesh, space_b, edge_points=10)
    verts = mesh.vertices[mesh.triangles[space_b.tri_ids]]
    signs = mesh.tri_edge_signs[space_b.tri_ids]
    _, gphi = br_tables(verts, signs, rule.bary)
    cu = cb[space_b.l2g]
    div_q = np.einsum("ma,maqii->mq", cu, gphi)
    mean_div = 2.0 * np.einsum("q,mq->m", rule.weights, div_q)
    np.testing.assert_allclose(mean_div, p0_div[space_b.tri_ids], atol=1e-11)

    # Darcy side: div of the interpolant is already piecewise constant
    space_d = rt0_space(mesh)
    cd = interpolate_rt0(field, mesh, space_d, edge_points=10)
    fluxes = cd[space_d.l2g] * mesh.tri_edge_signs[space_d.tri_ids]
    div_const = fluxes.sum(axis=1) / mesh.areas[space_d.tri_ids]
    np.testing.assert_allclose(div_const, p0_div[space_d.tri_ids], atol=1e-11)


def test_project_p0_matches_centroid_value_of_linear_functions():
    mesh = small_mesh()

    def f(pts):
        return 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 0.25

    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    np.testing.assert_allclose(project_p0(f, mesh), f(centroids), atol=1e-13)


def test_interpolation_reproduces_member_fields():
    mesh = small_mesh()

    def linear(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([1.0 + 2 * x - y, -3.0 + x + 4 * y], axis=1)

    # P1^2 lies in the Bernardi-Raugel space: interpolation is exact
    space_b = br_space(mesh)
    cb = interpolate_br(linear, mesh, space_b)
    rule = quad_rule(4)
    verts = mesh.vertices[mesh.triangles[space_b.tri_ids]]
    phi, _ = br_tables(verts, mesh.tri_edge_signs[space_b.tri_ids], rule.bary)
    uh = np.einsum("ma,maqd->mqd", cb[space_b.l2g], phi)
    exact = linear(physical_points(verts, rule.bary).reshape(-1, 2)).reshape(uh.shape)
    np.testing.assert_allclose(uh, exact, atol=1e-12)

    # constants lie in the Raviart-Thomas space
    def const(pts):
        return np.broadcast_to([0.7, -0.3], (len(pts), 2)).copy()

    space_d = rt0_space(mesh)
    cd = interpolate_rt0(const, mesh, space_d)
    pts = physical_points(mesh.vertices[mesh.triangles[space_d.tri_ids]], rule.bary)
    psi, _ = rt0_basis(
        mesh.vertices[mesh.triangles[space_d.tri_ids]],
        mesh.tri_edge_signs[space_d.tri_ids],
        pts,
    )
    uh = np.einsum("ma,maqd->mqd", cd[space_d.l2g], psi)
    np.testing.assert_allclose(uh, np.broadcast_to([0.7, -0.3], uh.shape), atol=1e-12)
