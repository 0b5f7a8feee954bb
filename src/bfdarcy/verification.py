"""Manufactured solutions, error norms, convergence rates, property checks.

The manufactured problem lives on two stacked unit squares with the
interface on the line y = 1/2, where the chosen fields have vanishing
normal traces from both sides, a divergence-free Brinkman velocity and a
globally mean-zero pressure.  The normal-stress mismatch of the exact
fields across the interface is compensated by an explicit interface
traction on the right-hand side, so the discrete formulation is consistent
and the multiplier converges to the Darcy pressure trace sin(pi x).

The interface checks (``interface_normal_trace``,
``interface_flux_residual``) read u . n through the element bases: the
solution's coefficients on each interface edge's Brinkman and Darcy
triangles, times their Bernardi-Raugel and Raviart-Thomas functions at
points on the edge (``elements.edge_bary``).  They share no trace algebra
with the closed-form coupling block of the assembly, which they check.
"""

from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from . import elements as el

# Gauss points per interface edge of the multiplier error and the
# interface flux residual.
CHECK_EDGE_POINTS = 6


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form fields of a manufactured problem.

    All callables are vectorized over (n, 2) point arrays; ``lam`` and
    ``dlam`` take a 1D array of interface abscissae.
    """

    u_B: object
    grad_u_B: object
    u_D: object
    div_u_D: object
    p: object
    grad_p: object
    lam: object
    dlam: object


def manufactured_problem(params, rect_B=(-0.5, 0.5, 0.5, 1.5), rect_D=(-0.5, 0.5, -0.5, 0.5)):
    """Manufactured data on stacked rectangles with the interface at y = 1/2.

    Returns (ExactSolution, ProblemData).  The geometry must keep the
    shared side on y = 1/2: there the exact normal traces vanish from
    both sides and the pressure trace is sin(pi x).
    """
    if abs(rect_B[2] - 0.5) > 1e-12 or abs(rect_D[3] - 0.5) > 1e-12:
        raise ValueError("manufactured fields need the interface on y = 1/2")

    pi = np.pi

    def u_B(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.cos(pi * x) * np.sin(pi * y), -np.sin(pi * x) * np.cos(pi * y)], axis=1)

    def grad_u_B(pts):
        x, y = pts[:, 0], pts[:, 1]
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = -pi * np.sin(pi * x) * np.sin(pi * y)
        g[:, 0, 1] = pi * np.cos(pi * x) * np.cos(pi * y)
        g[:, 1, 0] = -pi * np.cos(pi * x) * np.cos(pi * y)
        g[:, 1, 1] = pi * np.sin(pi * x) * np.sin(pi * y)
        return g

    def u_D(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.cos(pi * x) * np.exp(y), np.exp(x) * np.cos(pi * y)], axis=1)

    def div_u_D(pts):
        x, y = pts[:, 0], pts[:, 1]
        return -pi * np.sin(pi * x) * np.exp(y) - pi * np.exp(x) * np.sin(pi * y)

    def p(pts):
        return np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])

    def grad_p(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [pi * np.cos(pi * x) * np.sin(pi * y), pi * np.sin(pi * x) * np.cos(pi * y)], axis=1
        )

    def lam(x):
        return np.sin(pi * np.asarray(x))

    def dlam(x):
        return pi * np.cos(pi * np.asarray(x))

    exact = ExactSolution(
        u_B=u_B, grad_u_B=grad_u_B, u_D=u_D, div_u_D=div_u_D,
        p=p, grad_p=grad_p, lam=lam, dlam=dlam,
    )

    mu, F, power = params.mu, params.forchheimer, params.power

    def f_B(pts):
        u = u_B(pts)
        kinv = asm.inverse_tensor_field(params.K_B, pts)
        out = np.einsum("nij,nj->ni", kinv, u)
        if F > 0.0:
            speed = np.linalg.norm(u, axis=1)
            out += F * speed[:, None] ** (power - 2.0) * u
        # the chosen velocity satisfies laplacian(u) = -2 pi^2 u
        out += 2.0 * mu * pi**2 * u
        out += grad_p(pts)
        return out

    def f_D(pts):
        kinv = asm.inverse_tensor_field(params.K_D, pts)
        return np.einsum("nij,nj->ni", kinv, u_D(pts)) + grad_p(pts)

    normal = np.array([0.0, -1.0])

    def interface_traction(pts):
        # sigma_B n + p_D n reduces to mu (grad u_B) n: the pressures match
        return mu * np.einsum("nij,j->ni", grad_u_B(pts), normal)

    def dirichlet(pts):
        return u_B(pts)

    def darcy_flux(pts, normals):
        return np.einsum("nd,nd->n", u_D(pts), normals)

    data = asm.ProblemData(
        f_B=f_B,
        f_D=f_D,
        g_D=div_u_D,
        velocity_bc={tag: ("dirichlet", dirichlet) for tag in ("GB_LEFT", "GB_TOP", "GB_RIGHT")},
        darcy_bc={tag: ("flux", darcy_flux) for tag in ("GD_LEFT", "GD_BOTTOM", "GD_RIGHT")},
        interface_traction=interface_traction,
    )
    return exact, data


def heterogeneous_flow_problem(forchheimer, power=4.0, mu=1.0, K_B=0.1, K_D=1.0e-3):
    """Channel-over-aquifer benchmark with mixed boundary conditions.

    A parabolic inflow enters the Brinkman rectangle (0,2)x(0,1) from the
    left, the right side is a natural outflow, and the Darcy rectangle
    (0,2)x(-1,0) below is sealed on its left and right sides and drains
    through a zero-pressure outlet along the bottom.  Returns
    (PhysicalParams, ProblemData, (rect_B, rect_D)).
    """
    params = asm.PhysicalParams(
        mu=mu, forchheimer=forchheimer, power=power, K_B=K_B, K_D=K_D
    )

    def inflow(pts):
        y = pts[:, 1]
        return np.stack([-10.0 * y * (y - 1.0), np.zeros_like(y)], axis=1)

    data = asm.ProblemData(
        velocity_bc={
            "GB_LEFT": ("dirichlet", inflow),
            "GB_TOP": ("dirichlet", asm.zero_vector),
            "GB_RIGHT": ("traction", asm.zero_vector),
        },
        darcy_bc={
            "GD_LEFT": ("flux", asm.zero_scalar),
            "GD_BOTTOM": ("pressure", asm.zero_scalar),
            "GD_RIGHT": ("flux", asm.zero_scalar),
        },
    )
    return params, data, ((0.0, 2.0, 0.0, 1.0), (0.0, 2.0, -1.0, 0.0))


@dataclass
class ErrorReport:
    """Discretization errors of one run in the five norms of the study;
    the errors are None for a run with no exact solution to compare to."""

    h_B: float
    h_D: float
    h_Sigma: float
    dof: int
    iterations: int
    e_uB: float = None
    e_pB: float = None
    e_uD: float = None
    e_pD: float = None
    e_lam: float = None
    e_lam_l2: float = None
    e_lam_h1: float = None


def compute_errors(fields, exact, report=None, degree=8):
    """Errors of a discrete solution against an exact one.

    Velocity errors are measured in H1 (Brinkman) and H(div) (Darcy)
    norms, pressures in L2 per subdomain, and the multiplier in the
    interpolation norm of order (0,1): the geometric mean of its L2 and
    H1 interface norms, with tangential derivatives taken edgewise.

    The triangle integrals use ``quad_rule(degree)``; the default degree
    8 is the 25-point conical product rule, exact to degree 9.
    """
    mesh, dofmap, iface = fields.mesh, fields.dofmap, fields.interface
    rule = el.quad_rule(degree)
    br, rt = dofmap.br, dofmap.rt
    u_B, u_D, p, lam = dofmap.split(fields.x)

    verts = mesh.vertices[mesh.triangles[br.tri_ids]]
    signs = mesh.tri_edge_signs[br.tri_ids]
    wq = 2.0 * mesh.areas[br.tri_ids][:, None] * rule.weights[None, :]
    pts = el.physical_points(verts, rule.bary)
    # u_h and grad u_h on the reference monomials of each triangle, then
    # at the points: no table of the nine basis functions is formed.
    coef = el.br_coefficients(verts, signs)
    gcoef = el.br_gradients(coef, el.triangle_geometry(verts)[1])
    cu = u_B[br.l2g][:, None, :]
    m = cu.shape[0]
    uh = el.value_monomials(rule.bary) @ (cu @ coef.reshape(m, 9, 12)).reshape(m, 6, 2)
    guh = el.gradient_monomials(rule.bary) @ (cu @ gcoef.reshape(m, 9, 16)).reshape(m, 4, 4)
    guh = guh.reshape(m, -1, 2, 2)
    flat = pts.reshape(-1, 2)
    du = uh - np.asarray(exact.u_B(flat)).reshape(uh.shape)
    dgu = guh - np.asarray(exact.grad_u_B(flat)).reshape(guh.shape)
    e_uB = np.sqrt(
        np.einsum("mqd,mqd,mq->", du, du, wq) + np.einsum("mqij,mqij,mq->", dgu, dgu, wq)
    )
    dp = p[br.tri_ids][:, None] - np.asarray(exact.p(flat)).reshape(wq.shape)
    e_pB = np.sqrt(np.einsum("mq,mq,mq->", dp, dp, wq))

    verts = mesh.vertices[mesh.triangles[rt.tri_ids]]
    signs = mesh.tri_edge_signs[rt.tri_ids]
    wq = 2.0 * mesh.areas[rt.tri_ids][:, None] * rule.weights[None, :]
    pts = el.physical_points(verts, rule.bary)
    # u_h on the barycentric coordinates: RT0 coefficients are vertex values.
    coef, _ = el.rt0_basis(verts, signs, verts)
    cd = u_D[rt.l2g][:, None, :]
    uh = rule.bary @ (cd @ coef.reshape(-1, 3, 6)).reshape(-1, 3, 2)
    divh = _darcy_divergence(fields)
    flat = pts.reshape(-1, 2)
    du = uh - np.asarray(exact.u_D(flat)).reshape(uh.shape)
    ddiv = divh[:, None] - np.asarray(exact.div_u_D(flat)).reshape(wq.shape)
    e_uD = np.sqrt(
        np.einsum("mqd,mqd,mq->", du, du, wq) + np.einsum("mq,mq,mq->", ddiv, ddiv, wq)
    )
    dp = p[rt.tri_ids][:, None] - np.asarray(exact.p(flat)).reshape(wq.shape)
    e_pD = np.sqrt(np.einsum("mq,mq,mq->", dp, dp, wq))

    # Multiplier: piecewise linear on the macro grid against the exact
    # trace, integrated edge by edge on the fine interface grid.
    t, w = el.edge_rule(CHECK_EDGE_POINTS)
    xq, macro, frac = _macro_hats(iface, t)
    wts = (iface.x_right - iface.x_left)[:, None] * w[None, :]
    lam_h = lam[macro][:, None] * (1.0 - frac) + lam[macro + 1][:, None] * frac
    dlam_h = ((lam[macro + 1] - lam[macro]) / np.diff(iface.nodes_x)[macro])[:, None]
    dl = lam_h - exact.lam(xq)
    ddl = dlam_h - exact.dlam(xq)
    l2_sq = np.einsum("mq,mq,mq->", dl, dl, wts)
    h1_sq = l2_sq + np.einsum("mq,mq,mq->", ddl, ddl, wts)
    e_lam_l2 = np.sqrt(l2_sq)
    e_lam_h1 = np.sqrt(h1_sq)
    e_lam = np.sqrt(e_lam_l2 * e_lam_h1)

    return ErrorReport(
        h_B=mesh.h_B,
        h_D=mesh.h_D,
        h_Sigma=mesh.h_Sigma,
        dof=report.dof if report is not None else dofmap.n_free,
        iterations=report.iterations if report is not None else 0,
        e_uB=float(e_uB),
        e_pB=float(e_pB),
        e_uD=float(e_uD),
        e_pD=float(e_pD),
        e_lam=float(e_lam),
        e_lam_l2=float(e_lam_l2),
        e_lam_h1=float(e_lam_h1),
    )


def _macro_hats(iface, t):
    """Where the points (1 - t) left + t right of every interface edge
    lie on the multiplier grid: their abscissae, the macro edge of each
    edge, and the value at each point of the hat of the macro edge's
    right node (that of its left node is one minus it)."""
    xl, xr = iface.x_left, iface.x_right
    xq = xl[:, None] + t[None, :] * (xr - xl)[:, None]
    macro = np.arange(iface.num_edges) // 2
    xm0 = iface.nodes_x[macro]
    xm1 = iface.nodes_x[macro + 1]
    return xq, macro, (xq - xm0[:, None]) / (xm1 - xm0)[:, None]


def _interface_traces(fields, t):
    """u_B . n and u_D . n, (ns, len(t)) each, at the points
    (1 - t) left + t right of every interface edge, n pointing out of the
    Brinkman region.

    Each trace is the solution's coefficients on the incident triangle
    times that triangle's basis at the points (``elements.edge_bary``):
    the Bernardi-Raugel value coefficients on the Brinkman side, the RT0
    vertex values on the Darcy side.  The edge orientation enters only
    through the bases, as it does in every other integral.
    """
    mesh, dofmap, iface = fields.mesh, fields.dofmap, fields.interface
    br, rt = dofmap.br, dofmap.rt
    ns = iface.num_edges

    verts = mesh.vertices[mesh.triangles[iface.tri_B]]
    coef = el.br_coefficients(verts, mesh.tri_edge_signs[iface.tri_B])
    cu = fields.u_B[br.l2g[np.searchsorted(br.tri_ids, iface.tri_B)]][:, None, :]
    bary = el.edge_bary(mesh.triangles, iface.edge_verts, iface.tri_B, t)
    u_B = el.value_monomials(bary) @ (cu @ coef.reshape(ns, 9, 12)).reshape(ns, 6, 2)

    verts = mesh.vertices[mesh.triangles[iface.tri_D]]
    coef, _ = el.rt0_basis(verts, mesh.tri_edge_signs[iface.tri_D], verts)
    cd = fields.u_D[rt.l2g[np.searchsorted(rt.tri_ids, iface.tri_D)]][:, None, :]
    bary = el.edge_bary(mesh.triangles, iface.edge_verts, iface.tri_D, t)
    u_D = bary @ (cd @ coef.reshape(ns, 3, 6)).reshape(ns, 3, 2)
    return u_B @ iface.normal, u_D @ iface.normal


def interface_normal_trace(fields, samples_per_edge=11):
    """Sample u_B . n along the interface, left to right.

    Returns (x, values) with ``samples_per_edge`` equally spaced points
    per interface edge, both ends included; n is the normal pointing out
    of the Brinkman region.  The values are the Bernardi-Raugel basis of
    each interface triangle at the points, times the solution's
    coefficients.
    """
    s = np.linspace(0.0, 1.0, samples_per_edge)
    u_B, _ = _interface_traces(fields, s)
    x, _, _ = _macro_hats(fields.interface, s)
    return x.ravel(), u_B.ravel()


def interface_flux_residual(fields):
    """Mass-conservation defect of a solution across the interface.

    Returns the max over multiplier hat functions xi of
    |<u_B . n - u_D . n, xi>|, integrated edgewise with a
    ``CHECK_EDGE_POINTS``-point Gauss rule.  Both traces come from the
    element bases (``_interface_traces``), not from the closed form the
    coupling block is assembled from, so the check is independent of it.
    A converged solve keeps this at solver precision.
    """
    mesh, iface = fields.mesh, fields.interface
    t, w = el.edge_rule(CHECK_EDGE_POINTS)
    u_B, u_D = _interface_traces(fields, t)
    _, macro, frac = _macro_hats(iface, t)
    gap = u_B - u_D
    wts = mesh.edge_lengths[iface.edge_ids][:, None] * w[None, :]
    res = np.zeros(iface.num_nodes)
    np.add.at(res, macro, np.einsum("mq,mq,mq->m", gap, 1.0 - frac, wts))
    np.add.at(res, macro + 1, np.einsum("mq,mq,mq->m", gap, frac, wts))
    return float(np.abs(res).max())


def divergence_residual(fields, data):
    """Max over Darcy triangles of |div u_D - (mean of g_D)|.

    The discrete divergence is constant per triangle and must equal the
    piecewise-constant projection of the mass source exactly, on the
    quadrature the solve assembled on (``fields.quad_degree``).
    """
    rt = fields.dofmap.rt
    gbar = el.project_p0(data.g_D, fields.mesh, degree=fields.quad_degree)[rt.tri_ids]
    return float(np.abs(_darcy_divergence(fields) - gbar).max())


def _darcy_divergence(fields):
    """div u_D on each Darcy triangle, from its edge fluxes:
    sum_a s_a u_a / |T|, s_a the orientation sign of edge a."""
    mesh, rt = fields.mesh, fields.dofmap.rt
    signs = mesh.tri_edge_signs[rt.tri_ids]
    return (signs * fields.u_D[rt.l2g]).sum(axis=1) / mesh.areas[rt.tri_ids]


def pressure_mean(fields):
    """Integral of the piecewise-constant pressure over the whole domain."""
    return float(np.dot(fields.mesh.areas, fields.p))


def eoc(errors, hs):
    """Experimental orders of convergence between consecutive levels.

    ``eoc(e, h)[i] = log(e[i] / e[i+1]) / log(h[i] / h[i+1])``; raises
    when two consecutive mesh sizes coincide.
    """
    e = np.asarray(errors, dtype=float)
    h = np.asarray(hs, dtype=float)
    if e.shape != h.shape or e.ndim != 1 or e.size < 2:
        raise ValueError("need equally many errors and mesh sizes, at least two")
    ratio = h[:-1] / h[1:]
    if np.any(np.abs(np.log(ratio)) < 1e-14):
        raise ValueError("mesh sizes must differ between consecutive levels")
    return np.log(e[:-1] / e[1:]) / np.log(ratio)


CSV_HEADER = "level,h_B,h_D,h_Sigma,DOF,iter,e_uB,r_uB,e_pB,r_pB,e_uD,r_uD,e_pD,r_pD,e_lam,r_lam"


def convergence_csv(reports):
    """Render a list of ErrorReports as the convergence CSV text.

    Rates are region-matched: velocity and pressure rates use the mesh
    size of their subdomain, multiplier rates the interface mesh size.
    First-level rates, and the errors and rates of a report without
    errors, are printed as ``--``.
    """
    lines = [CSV_HEADER]
    for i, r in enumerate(reports):
        cells = [str(i), f"{r.h_B:.6e}", f"{r.h_D:.6e}", f"{r.h_Sigma:.6e}", str(r.dof), str(r.iterations)]
        for err, h in (
            ("e_uB", "h_B"), ("e_pB", "h_B"), ("e_uD", "h_D"), ("e_pD", "h_D"), ("e_lam", "h_Sigma"),
        ):
            value = getattr(r, err)
            cells.append("--" if value is None else f"{value:.6e}")
            if i == 0 or value is None:
                cells.append("--")
            else:
                prev = reports[i - 1]
                rate = eoc(
                    [getattr(prev, err), getattr(r, err)], [getattr(prev, h), getattr(r, h)]
                )[0]
                cells.append(f"{rate:.3f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class PointwiseReport:
    """Sampled checks of the Forchheimer map phi(a) = |a|^(p-2) a."""

    power: float
    samples: int
    monotonicity_min: float
    strict_violations: int
    continuity_max_ratio: float
    zero_case_gap: float
    jacobian_asymmetry: float
    jacobian_fd_error: float


def pointwise_property_suite(n_samples=10000, powers=(3.0, 3.5, 4.0), seed=20260819):
    """Monotonicity, Lipschitz bound and derivative symmetry checks.

    Draws pairs in the unit ball and verifies, for each exponent, the
    pointwise inequalities that make the Newton linearization work:
    (phi(a) - phi(b)) . (a - b) >= 0 with equality only at a = b,
    |phi(a) - phi(b)| <= (|a| + |b|)^(p-2) |a - b| with constant one, and
    symmetry plus finite-difference consistency of the derivative
    D phi(w) = |w|^(p-2) I + (p-2) |w|^(p-4) w w^T.  Both are the
    program's own: phi from ``assembly.forchheimer_weight``, and D phi
    formed here as a 2x2 tensor from the factors (weight, c) that
    ``assembly.forchheimer_map`` returns, D phi = weight I + c w w^T.
    """
    rng = np.random.default_rng(seed)

    def sample_ball(n):
        v = rng.normal(size=(n, 2))
        r = rng.uniform(size=n) ** 0.5
        return v / np.linalg.norm(v, axis=1, keepdims=True) * r[:, None]

    reports = []
    for p in powers:
        a = sample_ball(n_samples)
        b = sample_ball(n_samples)
        w = sample_ball(n_samples // 10) + np.array([0.3, 0.1])
        v = sample_ball(n_samples // 10)
        eps = 1e-6
        # phi at every point the checks read, from the program's weight.
        points = np.concatenate([a, b, w + eps * v, w - eps * v])
        weight = asm.forchheimer_weight(asm.speed(points), p)
        phi_a, phi_b, phi_plus, phi_minus = np.split(
            weight[:, None] * points, np.cumsum([a.shape[0], b.shape[0], w.shape[0]])
        )
        da = phi_a - phi_b
        dv = a - b
        mono = np.einsum("nd,nd->n", da, dv)
        distinct = np.linalg.norm(dv, axis=1) > 1e-12
        strict_violations = int(np.sum(mono[distinct] <= 0.0))

        bound = (np.linalg.norm(a, axis=1) + np.linalg.norm(b, axis=1)) ** (p - 2.0)
        num = np.linalg.norm(da, axis=1)
        den = bound * np.linalg.norm(dv, axis=1)
        ok = den > 0.0
        continuity_max = float((num[ok] / den[ok]).max())

        # with b = 0 and p = 3 the bound is attained exactly
        if p == 3.0:
            gap = float(
                np.abs(
                    np.linalg.norm(phi_a, axis=1)
                    - np.linalg.norm(a, axis=1) ** (p - 1.0)
                ).max()
            )
        else:
            gap = 0.0

        # D phi(w) = weight I + c w w^T, formed from the map's factors.
        weight, c = asm.forchheimer_map(w, p)
        jac = c[:, None, None] * w[:, :, None] * w[:, None, :] + weight[:, None, None] * np.eye(2)
        asym = float(np.abs(jac - jac.transpose(0, 2, 1)).max())
        fd = (phi_plus - phi_minus) / (2.0 * eps)
        fd_err = float(np.abs(np.einsum("nij,nj->ni", jac, v) - fd).max())

        reports.append(
            PointwiseReport(
                power=p,
                samples=n_samples,
                monotonicity_min=float(mono[distinct].min()),
                strict_violations=strict_violations,
                continuity_max_ratio=continuity_max,
                zero_case_gap=gap,
                jacobian_asymmetry=asym,
                jacobian_fd_error=fd_err,
            )
        )
    return reports
