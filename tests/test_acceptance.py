"""Acceptance gate: one test per numbered claim the package must honor.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The suite exercises the full pipeline: five-level
convergence of the manufactured problem, Newton robustness in mesh size
and inertia, structural invariants of every converged run, interpolation
identities, derivative consistency, the pointwise inequality suite, and
the channel-over-aquifer benchmark.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import bfdarcy.assembly as asm
from bfdarcy import (
    PhysicalParams,
    build_dofmap,
    build_interface,
    divergence_residual,
    eoc,
    generate_stacked_rect,
    heterogeneous_flow_problem,
    interface_flux_residual,
    interface_normal_trace,
    interpolate_br,
    interpolate_rt0,
    manufactured_problem,
    newton_solve,
    pointwise_property_suite,
    pressure_mean,
    project_p0,
)
from bfdarcy.elements import br_space, edge_rule, quad_rule, rt0_basis, rt0_space
from bfdarcy.solver import Discretization, NewtonOptions
from bfdarcy.verification import compute_errors

from oracles import br_tables, velocity_action

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


def square_mesh(nx):
    return generate_stacked_rect(RECT_B, RECT_D, nx, nx, nx)


def manufactured_run(mesh, forchheimer=10.0, power=3.0, max_iter=50):
    """One manufactured solve on ``mesh``, a Mesh or a Discretization."""
    params = PhysicalParams(
        mu=1.0, forchheimer=forchheimer, power=power, K_B=1.0, K_D=0.1
    )
    exact, data = manufactured_problem(params)
    fields, report = newton_solve(mesh, params, data, NewtonOptions(max_iter=max_iter))
    return SimpleNamespace(
        fields=fields, report=report, exact=exact, data=data, params=params
    )


@pytest.fixture(scope="module")
def study():
    """Five uniform refinements of the manufactured problem, F = 10."""
    runs = []
    for level in range(5):
        run = manufactured_run(square_mesh(4 * 2**level))
        assert run.report.converged
        run.err = compute_errors(run.fields, run.exact, run.report)
        runs.append(run)
    return runs


@pytest.fixture(scope="module")
def inertia_runs():
    """Fixed mid-level mesh, increasing Forchheimer coefficient; every
    solve reuses one discretization of the mesh."""
    _, layout = manufactured_problem(PhysicalParams())
    disc = Discretization.build(square_mesh(16), layout)
    runs = []
    for F in (1.0, 10.0, 1.0e2, 1.0e3, 1.0e4):
        run = manufactured_run(disc, forchheimer=F)
        assert run.report.converged, f"F={F} did not converge"
        runs.append(run)
    return runs


@pytest.fixture(scope="module")
def channel_runs():
    """Channel-over-aquifer benchmark swept over the inertia coefficient;
    every solve reuses one discretization of the mesh."""
    _, layout, (rb, rd) = heterogeneous_flow_problem(0.0)
    disc = Discretization.build(generate_stacked_rect(rb, rd, 32, 16, 16), layout)
    runs = []
    for F in (0.0, 1.0, 10.0, 1.0e2, 1.0e3, 1.0e4):
        params, data, _ = heterogeneous_flow_problem(F)
        fields, report = newton_solve(disc, params, data)
        runs.append(
            SimpleNamespace(
                F=F, fields=fields, report=report, data=data, params=params, disc=disc
            )
        )
    return runs


def nondecreasing(values, rtol=1e-9):
    """True when each value is at least its predecessor, up to ``rtol``."""
    return all(b >= a - rtol * max(abs(a), abs(b)) for a, b in zip(values, values[1:]))


def channel_fluxes(run):
    """Boundary and interface fluxes of a channel run, from the coefficients.

    Edge-bubble (Brinkman) and Raviart-Thomas (Darcy) coefficients are
    fluxes along the global edge normals, which point out of the domain
    on boundary edges.  Interface fluxes are taken out of the Brinkman
    region, into the aquifer.
    """
    mesh, dof, iface = run.fields.mesh, run.fields.dofmap, run.fields.interface
    nv = dof.br.vertex_ids.size
    bubble = run.fields.u_B[2 * nv + dof.br.edge_local]
    rt = run.fields.u_D[dof.rt.edge_local]
    sign = mesh.outward_normals()[iface.edge_ids] @ iface.normal
    return SimpleNamespace(
        inflow=-float(bubble[mesh.edges_with_tag("GB_LEFT")].sum()),
        outflow=float(bubble[mesh.edges_with_tag("GB_RIGHT")].sum()),
        drain=float(rt[mesh.edges_with_tag("GD_BOTTOM")].sum()),
        sigma_B=float(sign @ bubble[iface.edge_ids]),
        sigma_D=float(sign @ rt[iface.edge_ids]),
    )


def channel_energies(run):
    """(J0, G) of a channel run on the solve's own quadrature.

    J0 = a0(u, u)/2 is the linear part of the energy (viscous and
    permeability dissipation in both regions) and G = (1/p) int_B |u|^p
    the Forchheimer part, whose derivative is the drag term of a(u).
    """
    fields, params, ws = run.fields, run.params, run.disc.workspace
    a0 = velocity_action(fields.x, replace(params, forchheimer=0.0), ws)
    a1 = velocity_action(fields.x, replace(params, forchheimer=1.0), ws)
    return 0.5 * float(fields.x @ a0), float(fields.x @ (a1 - a0)) / params.power


# --------------------------------------------------------------- criteria


def test_criterion_1_convergence_rates(study):
    last, prev = study[-1], study[-2]
    rates = {}
    for name, h in (("e_uB", "h_B"), ("e_pB", "h_B"), ("e_uD", "h_D"), ("e_pD", "h_D")):
        rates[name] = eoc(
            [getattr(prev.err, name), getattr(last.err, name)],
            [getattr(prev.err, h), getattr(last.err, h)],
        )[0]
    r_lam = eoc(
        [prev.err.e_lam, last.err.e_lam], [prev.err.h_Sigma, last.err.h_Sigma]
    )[0]

    for name, rate in rates.items():
        assert 0.85 <= rate <= 1.4, f"{name} rate {rate:.3f} outside [0.85, 1.4]"
    assert 0.85 <= r_lam <= 1.8, f"multiplier rate {r_lam:.3f} outside [0.85, 1.8]"


def test_criterion_2_newton_counts_stable_in_h(study):
    counts = [run.report.iterations for run in study]
    assert all(c in (3, 4) for c in counts), f"counts {counts} leave {{3, 4}}"
    assert counts[1:] == [4, 4, 4, 4], f"counts {counts} not constant 4 from level 2 on"


def test_criterion_3_newton_counts_grow_mildly_in_f(inertia_runs):
    counts = [run.report.iterations for run in inertia_runs]
    expected = [4, 4, 6, 8, 9]
    assert all(b >= a for a, b in zip(counts, counts[1:])), f"counts {counts} not nondecreasing"
    assert all(abs(c - e) <= 1 for c, e in zip(counts, expected)), (
        f"counts {counts} deviate from {expected} by more than one"
    )


def test_criterion_4_linear_case_needs_one_iteration():
    run = manufactured_run(square_mesh(8), forchheimer=0.0)
    assert run.report.converged
    assert run.report.iterations == 1
    assert run.report.increments == [0.0]


def test_criterion_5_structural_invariants(study, inertia_runs, channel_runs):
    checked = 0
    for run in (*study, *inertia_runs, *channel_runs):
        if not run.report.converged:
            continue
        label = f"run dof={run.report.dof} F={run.params.forchheimer}"
        flux = interface_flux_residual(run.fields)
        assert flux <= 1e-8, f"{label}: interface flux residual {flux:.2e}"
        div = divergence_residual(run.fields, run.data)
        assert div <= 1e-9, f"{label}: divergence residual {div:.2e}"
        if run.data.gauge_pressure:
            mean = abs(pressure_mean(run.fields))
            assert mean <= 1e-8, f"{label}: pressure mean {mean:.2e}"
        checked += 1
    assert checked >= 15


def random_poly_field(rng, degree=3):
    """Random polynomial vector field with its exact divergence."""
    a = np.arange(degree + 1)
    mask = a[:, None] + a[None, :] <= degree
    cx = rng.normal(size=(degree + 1, degree + 1)) * mask
    cy = rng.normal(size=(degree + 1, degree + 1)) * mask
    dx = cx[1:, :] * np.arange(1, degree + 1)[:, None]
    dy = cy[:, 1:] * np.arange(1, degree + 1)[None, :]

    from numpy.polynomial.polynomial import polyval2d

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([polyval2d(x, y, cx), polyval2d(x, y, cy)], axis=1)

    def div(pts):
        x, y = pts[:, 0], pts[:, 1]
        return polyval2d(x, y, dx) + polyval2d(x, y, dy)

    return u, div


def discrete_edge_fluxes(mesh, coeffs, space, kind, npts=8):
    """Per-edge flux of a discrete field, reconstructed from its basis."""
    t, w = edge_rule(npts)
    normals = mesh.outward_normals()
    out = np.empty(space.edge_ids.size)
    for k, e in enumerate(space.edge_ids):
        tri = mesh.edge_tris[e, 0]
        if tri not in space.tri_ids or kind == "br" and mesh.subdomain[tri] != "B":
            tri = mesh.edge_tris[e, 1]
        row = np.flatnonzero(space.tri_ids == tri)[0]
        verts1 = mesh.vertices[mesh.triangles[tri]]
        a, b = mesh.vertices[mesh.edges[e]]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        if kind == "br":
            T = np.column_stack([verts1[1] - verts1[0], verts1[2] - verts1[0]])
            lam12 = np.linalg.solve(T, (pts - verts1[0]).T).T
            bary = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
            phi, _ = br_tables(verts1[None], mesh.tri_edge_signs[tri][None], bary)
            field = np.einsum("a,aqd->qd", coeffs[space.l2g[row]], phi[0])
        else:
            psi, _ = rt0_basis(
                verts1[None], mesh.tri_edge_signs[tri][None], pts[None]
            )
            field = np.einsum("a,aqd->qd", coeffs[space.l2g[row]], psi[0])
        out[k] = mesh.edge_lengths[e] * np.einsum("q,qd,d->", w, field, normals[e])
    return out


def test_criterion_6_interpolation_identities():
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 4, 4)
    sp_b, sp_d = br_space(mesh), rt0_space(mesh)
    rng = np.random.default_rng(20260819)
    t, w = edge_rule(8)
    normals = mesh.outward_normals()
    rule = quad_rule(6)

    def exact_fluxes(u, eids):
        a = mesh.vertices[mesh.edges[eids, 0]]
        b = mesh.vertices[mesh.edges[eids, 1]]
        pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        vals = u(pts.reshape(-1, 2)).reshape(pts.shape)
        wts = mesh.edge_lengths[eids][:, None] * w[None, :]
        return np.einsum("eq,eqd,ed->e", wts, vals, normals[eids])

    for trial in range(20):
        u, div = random_poly_field(rng)

        # per-edge flux identity for the enriched-linear interpolation
        cb = interpolate_br(u, mesh, sp_b, edge_points=8)
        got = discrete_edge_fluxes(mesh, cb, sp_b, "br")
        target = exact_fluxes(u, sp_b.edge_ids)
        err = np.abs(got - target).max()
        assert err <= 1e-10, f"trial {trial}: enriched-linear edge flux defect {err:.2e}"

        # per-edge flux identity for the H(div) interpolation
        cd = interpolate_rt0(u, mesh, sp_d, edge_points=8)
        got = discrete_edge_fluxes(mesh, cd, sp_d, "rt")
        target = exact_fluxes(u, sp_d.edge_ids)
        err = np.abs(got - target).max()
        assert err <= 1e-10, f"trial {trial}: H(div) edge flux defect {err:.2e}"

        # projection of the divergence commutes with interpolation
        p0_div = project_p0(div, mesh, degree=8)
        verts = mesh.vertices[mesh.triangles[sp_b.tri_ids]]
        _, gphi = br_tables(verts, mesh.tri_edge_signs[sp_b.tri_ids], rule.bary)
        div_q = np.einsum("ma,maqii->mq", cb[sp_b.l2g], gphi)
        mean_div = 2.0 * np.einsum("q,mq->m", rule.weights, div_q)
        err = np.abs(mean_div - p0_div[sp_b.tri_ids]).max()
        assert err <= 1e-10, f"trial {trial}: enriched-linear commuting defect {err:.2e}"

        fluxes = cd[sp_d.l2g] * mesh.tri_edge_signs[sp_d.tri_ids]
        div_const = fluxes.sum(axis=1) / mesh.areas[sp_d.tri_ids]
        err = np.abs(div_const - p0_div[sp_d.tri_ids]).max()
        assert err <= 1e-10, f"trial {trial}: H(div) commuting defect {err:.2e}"


def test_criterion_7_derivative_consistency():
    mesh = generate_stacked_rect(RECT_B, RECT_D, 4, 4, 4)
    iface = build_interface(mesh)
    data = asm.ProblemData()
    dofmap = build_dofmap(mesh, iface, data)
    ws = asm.Workspace(mesh, iface, dofmap, degree=6)

    rng = np.random.default_rng(5)
    w = rng.normal(size=dofmap.n_total)
    delta = rng.normal(size=dofmap.n_total)

    for power in (3.0, 4.0):
        params = PhysicalParams(
            mu=1.0, forchheimer=10.0, power=power, K_B=1.0, K_D=0.1
        )
        # The Newton matrix is the derivative of a(w) + B w.
        values, _ = asm.NewtonSystem(params, data, ws).at(w)
        B = ws.csr(ws.b_data)
        exact_dir = ws.csr(values) @ delta
        a_w = velocity_action(w, params, ws) + B @ w

        errs = []
        for eps in (1e-3, 1e-4, 1e-5):
            w_eps = w + eps * delta
            fd = (velocity_action(w_eps, params, ws) + B @ w_eps - a_w) / eps
            errs.append(np.abs(fd - exact_dir).max())

        scale = np.abs(exact_dir).max()
        assert errs[0] < 0.1 * scale
        # first-order decay: each decade of epsilon cuts the error ~tenfold
        assert errs[1] <= 0.25 * errs[0], f"p={power}: errors {errs} decay slower than O(eps)"
        assert errs[2] <= 0.25 * errs[1], f"p={power}: errors {errs} decay slower than O(eps)"


def test_criterion_8_pointwise_inequalities():
    reports = pointwise_property_suite(n_samples=10_000, powers=(3.0, 3.5, 4.0))
    for rep in reports:
        label = f"p={rep.power}"
        assert rep.monotonicity_min >= 0.0, f"{label}: monotonicity violated"
        assert rep.strict_violations == 0, f"{label}: strict monotonicity violated"
        assert rep.continuity_max_ratio <= 1.0 + 1e-12, (
            f"{label}: continuity constant {rep.continuity_max_ratio} exceeds one"
        )
        assert rep.jacobian_asymmetry <= 1e-14, f"{label}: derivative not symmetric"
        assert rep.jacobian_fd_error <= 1e-6, f"{label}: derivative inconsistent"


def test_criterion_9_channel_benchmark(channel_runs):
    counts = [run.report.iterations for run in channel_runs]
    expected = [1, 4, 5, 6, 7, 8]
    assert all(run.report.converged for run in channel_runs), f"counts {counts}"
    assert all(abs(c - e) <= 1 for c, e in zip(counts, expected)), (
        f"iteration counts {counts} deviate from {expected} by more than one"
    )

    Fs = [run.F for run in channel_runs]
    balances = [channel_fluxes(run) for run in channel_runs]

    # 1. Mass balance of every run: the pinned inflow leaves through the
    #    right outflow or, across the interface, through the bottom drain.
    inflow = 10.0 / 6.0  # int_0^1 10 y (1 - y) dy on GB_LEFT
    tol = 1e-9 * inflow
    for F, bal in zip(Fs, balances):
        assert abs(bal.inflow - inflow) <= tol, (
            f"F={F}: inflow {bal.inflow:.12g} differs from the pinned 10/6"
        )
        assert abs(bal.inflow - bal.outflow - bal.drain) <= tol, (
            f"F={F}: mass balance fails: inflow {bal.inflow:.12g} != right outflow "
            f"{bal.outflow:.12g} + drain {bal.drain:.12g}"
        )
        assert abs(bal.sigma_B - bal.drain) <= tol and abs(bal.sigma_D - bal.drain) <= tol, (
            f"F={F}: net interface flux (Brinkman side {bal.sigma_B:.12g}, Darcy side "
            f"{bal.sigma_D:.12g}) differs from the drain {bal.drain:.12g}"
        )

    # 2. Growing inertial drag in the channel diverts more of the pinned
    #    inflow into the aquifer: the net exchange flux does not decrease.
    exchange = [bal.sigma_D for bal in balances]
    assert nondecreasing(exchange), (
        f"net interface flux into the aquifer must not decrease as F grows "
        f"through {Fs}; measured {[round(v, 6) for v in exchange]}"
    )

    # 3. The same holds for the peak exchange velocity.
    maxima = []
    for run in channel_runs:
        _, vals = interface_normal_trace(run.fields)
        maxima.append(float(np.abs(vals).max()))
    assert nondecreasing(maxima), (
        f"max |u.n| on the interface must not decrease as F grows through {Fs}; "
        f"measured {[round(v, 6) for v in maxima]}"
    )

    # 4. The anchor for the directions of 2 and 3.  Without sources,
    #    tractions or drain pressure, a converged run minimises
    #    J0(u) + F G(u) over an affine set that does not depend on F.
    #    Comparing the minimality of two runs F1 < F2 gives
    #    G(u_F2) <= G(u_F1) and J0(u_F2) >= J0(u_F1).
    J0, G = zip(*(channel_energies(run) for run in channel_runs))
    assert nondecreasing(G[::-1]), (
        f"Forchheimer energy G must not increase as F grows through {Fs}; "
        f"measured {[round(v, 6) for v in G]}"
    )
    assert nondecreasing(J0), (
        f"linear dissipation J0 must not decrease as F grows through {Fs}; "
        f"measured {[round(v, 6) for v in J0]}"
    )
