"""Manufactured data correctness, error norms, EOC and property suites.

The strong-form residual test is the anchor of the whole verification
chain: it confirms, by numerical differentiation only, that the
manufactured sources really solve the continuous equations, so any
discrete convergence failure indicts the solver rather than the data.
"""

from __future__ import annotations

import numpy as np
import pytest

from bfdarcy import (
    PhysicalParams,
    ProblemData,
    convergence_csv,
    divergence_residual,
    eoc,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    interface_flux_residual,
    interface_normal_trace,
    load_mesh,
    manufactured_problem,
    newton_solve,
    pointwise_property_suite,
    pressure_mean,
    save_mesh,
)
from bfdarcy.elements import (
    br_coefficients, br_gradients, physical_points, quad_rule, triangle_geometry,
)
from bfdarcy.solver import Discretization, SolutionFields
from bfdarcy.verification import CSV_HEADER, compute_errors
from oracles import loop_br_basis, y_graded

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


# -------------------------------------------------- numerical derivatives
#
# Complex-step differentiation gives first derivatives to machine accuracy
# for the analytic closures used here; second derivatives chain a central
# difference (step 1e-5) over complex-step gradients, so the Laplacian
# check is exact to ~1e-9.

CS = 1e-20


def cs_grad_vec(f, pts):
    """Gradient of a vector field, (n, 2, 2) with entry [i, j] = d_j f_i."""
    out = np.empty((len(pts), 2, 2))
    for j in range(2):
        shift = np.zeros(2, dtype=complex)
        shift[j] = 1j * CS
        out[:, :, j] = np.imag(f(pts.astype(complex) + shift)) / CS
    return out


def cs_grad_scalar(f, pts):
    out = np.empty((len(pts), 2))
    for j in range(2):
        shift = np.zeros(2, dtype=complex)
        shift[j] = 1j * CS
        out[:, j] = np.imag(f(pts.astype(complex) + shift)) / CS
    return out


def laplacian_vec(f, pts, h=1e-5):
    """Central difference of complex-step gradients: sum_j d_j (d_j f_i)."""
    out = np.zeros((len(pts), 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        gp = cs_grad_vec(f, pts + e)[:, :, j]
        gm = cs_grad_vec(f, pts - e)[:, :, j]
        out += (gp - gm) / (2.0 * h)
    return out


def interior_points(rng, rect, n):
    x0, x1, y0, y1 = rect
    pad_x, pad_y = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    return np.column_stack(
        [
            rng.uniform(x0 + pad_x, x1 - pad_x, n),
            rng.uniform(y0 + pad_y, y1 - pad_y, n),
        ]
    )


@pytest.mark.parametrize("power", [3.0, 4.0])
def test_manufactured_fields_satisfy_the_strong_equations(power):
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=power, K_B=1.0, K_D=0.1)
    exact, data = manufactured_problem(params)
    rng = np.random.default_rng(1234)

    # momentum equation in the upper region:
    # K_B^-1 u + F |u|^(p-2) u - mu lap(u) + grad(p) = f_B
    pts = interior_points(rng, RECT_B, 100)
    u = exact.u_B(pts)
    speed = np.linalg.norm(u, axis=1, keepdims=True)
    drag = u / params.K_B + params.forchheimer * speed ** (params.power - 2.0) * u
    lap = laplacian_vec(exact.u_B, pts)
    gp = cs_grad_scalar(exact.p, pts)
    residual = drag - params.mu * lap + gp - data.f_B(pts)
    assert np.abs(residual).max() < 1e-8

    # incompressibility of the upper velocity
    g = cs_grad_vec(exact.u_B, pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12

    # Darcy law in the lower region: K_D^-1 u + grad(p) = f_D
    pts = interior_points(rng, RECT_D, 100)
    residual = exact.u_D(pts) / params.K_D + cs_grad_scalar(exact.p, pts) - data.f_D(pts)
    assert np.abs(residual).max() < 1e-12

    # mass balance of the lower velocity: div u = g_D
    g = cs_grad_vec(exact.u_D, pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1] - exact.div_u_D(pts)).max() < 1e-12
    assert np.abs(exact.div_u_D(pts) - data.g_D(pts)).max() < 1e-14


def test_manufactured_interface_data_is_consistent():
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    exact, data = manufactured_problem(params)
    x = np.linspace(-0.5, 0.5, 41)
    pts = np.column_stack([x, np.full_like(x, 0.5)])

    # the multiplier is the pressure trace on the interface
    np.testing.assert_allclose(exact.lam(x), exact.p(pts), atol=1e-14)
    # its tangential derivative closure matches the complex-step gradient
    dlam = np.imag(exact.lam(x.astype(complex) + 1j * CS)) / CS
    np.testing.assert_allclose(exact.dlam(x), dlam, atol=1e-12)

    # both exact normal traces vanish on the interface, so the weak
    # normal-velocity coupling holds exactly
    assert np.abs(exact.u_B(pts)[:, 1]).max() < 1e-14
    assert np.abs(exact.u_D(pts)[:, 1]).max() < 1e-14

    # the supplied interface traction equals mu (grad u_B) n with n = (0,-1)
    g = cs_grad_vec(exact.u_B, pts)
    t = params.mu * np.einsum("nij,j->ni", g, np.array([0.0, -1.0]))
    np.testing.assert_allclose(data.interface_traction(pts), t, atol=1e-12)


def test_manufactured_boundary_data_matches_the_exact_fields():
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    exact, data = manufactured_problem(params)

    kind, g = data.velocity_bc["GB_TOP"]
    assert kind == "dirichlet"
    pts = np.column_stack([np.linspace(-0.5, 0.5, 11), np.full(11, 1.5)])
    np.testing.assert_allclose(g(pts), exact.u_B(pts), atol=1e-14)

    kind, q = data.darcy_bc["GD_BOTTOM"]
    assert kind == "flux"
    pts = np.column_stack([np.linspace(-0.5, 0.5, 11), np.full(11, -0.5)])
    normals = np.broadcast_to([0.0, -1.0], (11, 2))
    np.testing.assert_allclose(q(pts, normals), (exact.u_D(pts) * normals).sum(axis=1), atol=1e-14)


def test_manufactured_problem_requires_the_interface_height():
    params = PhysicalParams()
    with pytest.raises(ValueError, match="y = 1/2"):
        manufactured_problem(params, rect_B=(-0.5, 0.5, 0.6, 1.6))
    with pytest.raises(ValueError, match="y = 1/2"):
        manufactured_problem(params, rect_D=(-0.5, 0.5, -0.5, 0.4))


def test_heterogeneous_problem_shape():
    params, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
    assert rect_B == (0.0, 2.0, 0.0, 1.0)
    assert rect_D == (0.0, 2.0, -1.0, 0.0)
    assert params.power == 4.0
    assert params.K_B == pytest.approx(0.1)
    assert params.K_D == pytest.approx(1.0e-3)
    # inflow on the left, free outflow on the right, sealed top
    assert data.velocity_bc["GB_LEFT"][0] == "dirichlet"
    assert data.velocity_bc["GB_RIGHT"][0] == "traction"
    assert data.velocity_bc["GB_TOP"][0] == "dirichlet"
    # aquifer drains through the bottom pressure outlet only
    assert data.darcy_bc["GD_BOTTOM"][0] == "pressure"
    assert data.darcy_bc["GD_LEFT"][0] == "flux"
    assert data.darcy_bc["GD_RIGHT"][0] == "flux"
    assert data.gauge_pressure is False

    pts = np.column_stack([np.zeros(5), np.linspace(0.0, 1.0, 5)])
    inflow = data.velocity_bc["GB_LEFT"][1](pts)
    # parabolic profile, maximal at mid-height, zero at the walls
    assert inflow[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert inflow[-1, 0] == pytest.approx(0.0, abs=1e-14)
    assert inflow[2, 0] == pytest.approx(2.5)
    np.testing.assert_allclose(inflow[:, 1], 0.0, atol=1e-14)


# ------------------------------------------------------------ error norms


def solve_manufactured(nx, forchheimer=10.0, power=3.0):
    params = PhysicalParams(
        mu=1.0, forchheimer=forchheimer, power=power, K_B=1.0, K_D=0.1
    )
    exact, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, nx, nx, nx)
    fields, report = newton_solve(mesh, params, data)
    assert report.converged
    return fields, report, exact, data


def test_compute_errors_report_content():
    fields, report, exact, _ = solve_manufactured(4)
    err = compute_errors(fields, exact, report)
    assert err.dof == report.dof
    assert err.iterations == report.iterations
    assert err.h_B == fields.mesh.h_B
    assert err.h_Sigma == fields.mesh.h_Sigma
    for name in ("e_uB", "e_pB", "e_uD", "e_pD", "e_lam"):
        assert getattr(err, name) > 0.0
    # the multiplier norm is the geometric mean of its L2 and H1 parts
    assert err.e_lam == pytest.approx(np.sqrt(err.e_lam_l2 * err.e_lam_h1), rel=1e-12)
    assert err.e_lam_l2 < err.e_lam < err.e_lam_h1


def table_error_uB(fields, exact, degree=8):
    """The H1 error of u_B from tables of the nine basis functions at every
    point, the loop oracle's, summed point by point."""
    mesh, br = fields.mesh, fields.dofmap.br
    rule = quad_rule(degree)
    verts = mesh.vertices[mesh.triangles[br.tri_ids]]
    phi, gphi = loop_br_basis(verts, mesh.tri_edge_signs[br.tri_ids], rule.bary)
    wq = 2.0 * mesh.areas[br.tri_ids][:, None] * rule.weights[None, :]
    pts = physical_points(verts, rule.bary).reshape(-1, 2)
    cu = fields.u_B[br.l2g]
    du = np.einsum("ma,maqd->mqd", cu, phi) - exact.u_B(pts).reshape(wq.shape + (2,))
    dgu = np.einsum("ma,maqij->mqij", cu, gphi) - exact.grad_u_B(pts).reshape(wq.shape + (2, 2))
    return np.sqrt(
        np.einsum("mqd,mqd,mq->", du, du, wq) + np.einsum("mqij,mqij,mq->", dgu, dgu, wq)
    )


@pytest.mark.parametrize("nx", [8, 16])
def test_brinkman_error_matches_the_table_oracle(nx):
    fields, report, exact, _ = solve_manufactured(nx)
    for degree in (8, 10):
        got = compute_errors(fields, exact, report, degree=degree).e_uB
        assert got == pytest.approx(table_error_uB(fields, exact, degree), rel=1e-12, abs=0)


def test_error_norms_do_not_depend_on_the_rule_beyond_degree_8():
    fields, report, exact, _ = solve_manufactured(4)
    err8 = compute_errors(fields, exact, report, degree=8)
    err10 = compute_errors(fields, exact, report, degree=10)
    for name in ("e_uB", "e_pB", "e_uD", "e_pD", "e_lam"):
        assert getattr(err8, name) == pytest.approx(getattr(err10, name), rel=1e-8, abs=0)


def test_errors_vanish_for_interpolated_exact_solution():
    # feeding the exact solution's own interpolant as "discrete solution"
    # must produce small errors, bounded by interpolation, not solver, error
    fields, report, exact, _ = solve_manufactured(8)
    err_solve = compute_errors(fields, exact, report)
    coarse, report4, exact4, _ = solve_manufactured(4)
    err_coarse = compute_errors(coarse, exact4, report4)
    # refinement shrinks every error measure
    for name in ("e_uB", "e_pB", "e_uD", "e_pD", "e_lam"):
        assert getattr(err_solve, name) < getattr(err_coarse, name)


# -------------------------------------------------------------------- eoc


def test_eoc_closed_form_cases():
    np.testing.assert_allclose(eoc([0.2, 0.1], [0.2, 0.1]), [1.0], atol=1e-14)
    np.testing.assert_allclose(eoc([0.9, 0.1], [0.3, 0.1]), [2.0], atol=1e-12)
    np.testing.assert_allclose(
        eoc([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25]), [2.0, 2.0], atol=1e-13
    )


def test_eoc_input_validation():
    with pytest.raises(ValueError, match="mesh sizes must differ"):
        eoc([0.2, 0.1], [0.1, 0.1])
    with pytest.raises(ValueError, match="equally many"):
        eoc([0.2, 0.1, 0.05], [0.2, 0.1])
    with pytest.raises(ValueError, match="at least two"):
        eoc([0.2], [0.2])


def test_convergence_csv_format():
    fields, report, exact, _ = solve_manufactured(4)
    err4 = compute_errors(fields, exact, report)
    fields, report, exact, _ = solve_manufactured(8)
    err8 = compute_errors(fields, exact, report)

    text = convergence_csv([err4, err8])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3

    first = lines[1].split(",")
    assert first[0] == "0"
    # rates of the first level are undefined
    assert first[7] == first[9] == first[11] == first[13] == first[15] == "--"

    second = lines[2].split(",")
    assert second[0] == "1"
    rate_uB = float(second[7])
    expect = eoc([err4.e_uB, err8.e_uB], [err4.h_B, err8.h_B])[0]
    assert rate_uB == pytest.approx(expect, abs=5e-4)

    # rendering is deterministic
    assert convergence_csv([err4, err8]) == text


# ------------------------------------------------------ solution invariants


def test_solution_invariants_on_a_manufactured_run():
    fields, report, exact, data = solve_manufactured(8)
    assert abs(pressure_mean(fields)) < 1e-10
    assert interface_flux_residual(fields) < 1e-12
    assert divergence_residual(fields, data) < 1e-10


def brinkman_divergence(fields):
    """max over Brinkman triangles of |integral of div u_B,h|, from the
    gradient coefficients: the monomials (1, eta_0, eta_1, eta_2)
    integrate to |T| (1, 1/3, 1/3, 1/3)."""
    mesh, br = fields.mesh, fields.dofmap.br
    tri = br.tri_ids
    verts = mesh.vertices[mesh.triangles[tri]]
    coef = br_coefficients(verts, mesh.tri_edge_signs[tri])
    gcoef = br_gradients(coef, triangle_geometry(verts)[1])
    trace = gcoef[..., 0, 0] + gcoef[..., 1, 1]
    integrals = mesh.areas[tri][:, None] * (trace @ np.array([1.0, 1 / 3, 1 / 3, 1 / 3]))
    return np.abs(np.einsum("ma,ma->m", fields.u_B[br.l2g], integrals)).max()


@pytest.mark.parametrize(
    "case", ["study nx=8", "study nx=32", "channel F=0", "channel F=1e3", "channel F=1e4"]
)
def test_brinkman_velocity_is_divergence_free_on_every_triangle(case):
    # The Brinkman pressure rows hold (q, div u_B) = 0 for every piecewise
    # constant q, so each triangle's divergence integral vanishes.
    kind, value = case.split(" ")
    if kind == "study":
        fields, _, _, _ = solve_manufactured(int(value.split("=")[1]))
    else:
        params, data, (rect_B, rect_D) = heterogeneous_flow_problem(float(value.split("=")[1]))
        mesh = generate_stacked_rect(rect_B, rect_D, 32, 16, 16)
        fields, report = newton_solve(mesh, params, data)
        assert report.converged
    assert brinkman_divergence(fields) <= 1e-12 * np.abs(fields.u_B).max()


@pytest.mark.parametrize("degree, bound", [(8, 1e-12), (4, 1e-8)])
def test_divergence_residual_uses_the_quadrature_of_the_solve(degree, bound):
    # The Darcy load is assembled on the solve's quadrature, so the mean
    # of g_D must be taken on the same one: a degree-6 projection reads
    # 1.1e-11 against a degree-8 solve and 1.0e-7 against a degree-4 one.
    params = PhysicalParams(mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1)
    _, data = manufactured_problem(params)
    mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8)
    fields, report = newton_solve(Discretization.build(mesh, data, quad_degree=degree), params, data)
    assert report.converged and fields.quad_degree == degree
    assert divergence_residual(fields, data) <= bound


def test_interface_normal_trace_matches_the_flux():
    fields, _, _, _ = solve_manufactured(4)
    x, vals = interface_normal_trace(fields, samples_per_edge=51)
    assert x.shape == vals.shape
    assert np.all(np.diff(x) >= 0.0)
    # trapezoid integration of the sampled trace approximates the total
    # flux of the discrete velocity through the interface
    iface = fields.interface
    total = np.trapezoid(vals, x)
    # compare against the sum of per-edge fluxes implied by weak
    # conservation with the hat partition of unity
    from bfdarcy import interpolate_rt0  # noqa: F401  (docs the pairing)

    dofmap = fields.dofmap
    rt_flux = -fields.u_D[dofmap.rt.edge_local[iface.edge_ids]].sum()
    assert total == pytest.approx(rt_flux, abs=1e-3)


def d_first(mesh, tmp_path):
    """``mesh`` saved and loaded again with its D triangles listed first.
    The global edge normal points out of whichever triangle comes first,
    so this flips every interface edge normal."""
    save_mesh(mesh, tmp_path / "b_first.mesh")
    lines = (tmp_path / "b_first.mesh").read_text().splitlines()
    nv, nt = mesh.num_vertices, mesh.num_triangles
    tris = lines[2 + nv : 2 + nv + nt]
    lines[2 + nv : 2 + nv + nt] = (
        [t for t in tris if t.endswith(" D")] + [t for t in tris if t.endswith(" B")]
    )
    (tmp_path / "d_first.mesh").write_text("\n".join(lines) + "\n")
    reordered = load_mesh(tmp_path / "d_first.mesh")
    assert reordered.subdomain[0] == "D"
    return reordered


def test_interface_checks_do_not_depend_on_triangle_order(tmp_path):
    params, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
    mesh = generate_stacked_rect(rect_B, rect_D, 8, 4, 4)
    reordered = d_first(mesh, tmp_path)

    fields_b, _ = newton_solve(mesh, params, data)
    fields_d, _ = newton_solve(reordered, params, data)
    assert interface_flux_residual(fields_b) <= 1e-8
    assert interface_flux_residual(fields_d) <= 1e-8
    peak_b = np.abs(interface_normal_trace(fields_b)[1]).max()
    peak_d = np.abs(interface_normal_trace(fields_d)[1]).max()
    assert peak_d == pytest.approx(peak_b, rel=1e-9)


@pytest.mark.parametrize("case", ["study right", "study crisscross", "channel", "channel D-first"])
def test_interface_flux_residual_is_the_largest_multiplier_row_of_the_coupling(case, tmp_path):
    # The check reads both traces through the element bases; the coupling
    # block's multiplier rows come from the closed form in the assembly.
    # On any coefficient vector, converged or not, they must agree.
    if case.startswith("study"):
        _, data = manufactured_problem(PhysicalParams(forchheimer=10.0, K_D=0.1))
        mesh = generate_stacked_rect(RECT_B, RECT_D, 8, 8, 8, pattern=case.split()[1])
    else:
        _, data, (rect_B, rect_D) = heterogeneous_flow_problem(10.0)
        if case == "channel":
            mesh = generate_stacked_rect(rect_B, rect_D, 16, 8, 8)
        else:
            mesh = d_first(generate_stacked_rect(rect_B, rect_D, 8, 4, 4), tmp_path)
    disc = Discretization.build(mesh, data)
    ws, dof = disc.workspace, disc.dofmap
    coupling = ws.csr(ws.b_data)
    rng = np.random.default_rng(20261020)
    for _ in range(3):
        x = rng.standard_normal(dof.n_total)
        fields = SolutionFields(x, dof, mesh, disc.interface, ws.degree)
        rows = (coupling @ x)[dof.off_lam : dof.off_lam + dof.n_lam]
        assert interface_flux_residual(fields) == pytest.approx(np.abs(rows).max(), rel=1e-12)


# ------------------------------------------------------ a priori estimates


def heterogeneous_K_B(pts):
    a = 1.0 + 0.5 * np.sin(np.pi * pts[:, 0]) ** 2
    return a[:, None, None] * np.array([[1.0, 0.2], [0.2, 0.5]])


def heterogeneous_K_D(pts):
    return 0.1 * np.exp(pts[:, 0] + pts[:, 1])[:, None, None] * np.diag([1.0, 0.1])


@pytest.mark.parametrize("grid", ["right", "crisscross", "y-graded"])
@pytest.mark.parametrize("power", [3.0, 3.5, 4.0])
def test_velocity_and_multiplier_rates_hold_over_the_stated_range(power, grid):
    # The paper's estimate covers heterogeneous tensor permeabilities and
    # p in [3, 4]; the pressures converge faster than O(h) before the
    # asymptotic range, so only the velocity and multiplier rates are
    # bounded.
    params = PhysicalParams(
        forchheimer=10.0, power=power, K_B=heterogeneous_K_B, K_D=heterogeneous_K_D
    )
    exact, data = manufactured_problem(params)
    reports = []
    for nx in (4, 8, 16, 32):
        mesh = generate_stacked_rect(
            RECT_B, RECT_D, nx, nx, nx, pattern="crisscross" if grid == "crisscross" else "right"
        )
        if grid == "y-graded":
            mesh = y_graded(mesh)
        fields, report = newton_solve(Discretization.build(mesh, data), params, data)
        assert report.converged
        reports.append(compute_errors(fields, exact, report))
    for name, h in (("e_uB", "h_B"), ("e_uD", "h_D"), ("e_lam", "h_Sigma")):
        rates = eoc([getattr(r, name) for r in reports], [getattr(r, h) for r in reports])
        assert rates.min() >= 0.9, f"{name} rates {np.round(rates, 3)}"


# --------------------------------------------------------- pointwise suite


def test_pointwise_property_suite_passes_for_all_exponents():
    reports = pointwise_property_suite(n_samples=10_000, powers=(3.0, 3.5, 4.0))
    assert [r.power for r in reports] == [3.0, 3.5, 4.0]
    for rep in reports:
        assert rep.samples == 10_000
        assert rep.monotonicity_min >= 0.0
        assert rep.strict_violations == 0
        assert rep.continuity_max_ratio <= 1.0 + 1e-12
        assert rep.zero_case_gap <= 1e-12
        assert rep.jacobian_asymmetry <= 1e-14
        assert rep.jacobian_fd_error <= 1e-6


def test_pointwise_property_suite_is_reproducible():
    a = pointwise_property_suite(n_samples=500, powers=(3.5,), seed=7)
    b = pointwise_property_suite(n_samples=500, powers=(3.5,), seed=7)
    assert a == b
