"""Test oracles shared by the element, meshing, assembly, error and
acceptance tests: the Bernardi-Raugel basis tables filled in point by
point, the velocity kernels and the nonlinear action written as plain
einsums over them, the multiplier hats, and the graded meshes of the
study geometry."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bfdarcy.elements import (
    br_coefficients,
    br_gradients,
    br_values,
    gradient_monomials,
    rt0_basis,
    triangle_geometry,
)


def loop_br_basis(verts, signs, bary):
    """Oracle of ``br_tables``: the nine Bernardi-Raugel functions and their
    gradients filled in point by point, one whole-array pass per bubble
    and per vertex correction, with the returns of ``br_tables``."""
    m = verts.shape[0]
    bary = np.asarray(bary, dtype=float)
    if bary.ndim == 2:
        bary = np.broadcast_to(bary[None], (m,) + bary.shape)
    nq = bary.shape[1]
    _, geta, lens, nout = triangle_geometry(verts)
    ng = signs[..., None] * nout

    vals = np.zeros((m, 9, nq, 2))
    grads = np.zeros((m, 9, nq, 2, 2))

    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        sc = 6.0 / lens[:, i]
        blob = bary[:, :, a] * bary[:, :, b]
        vals[:, 6 + i] = sc[:, None, None] * blob[..., None] * ng[:, i][:, None, :]
        gblob = (
            bary[:, :, b, None] * geta[:, None, a, :]
            + bary[:, :, a, None] * geta[:, None, b, :]
        )
        grads[:, 6 + i] = (
            sc[:, None, None, None] * ng[:, i][:, None, :, None] * gblob[:, :, None, :]
        )

    for i in range(3):
        for c in range(2):
            k = 2 * i + c
            vals[:, k, :, c] = bary[:, :, i]
            grads[:, k, :, c, :] = geta[:, None, i, :]
            for j in range(3):
                if j == i:
                    continue
                coef = 0.5 * lens[:, j] * ng[:, j, c]
                vals[:, k] -= coef[:, None, None] * vals[:, 6 + j]
                grads[:, k] -= coef[:, None, None, None] * grads[:, 6 + j]
    return vals, grads


def br_tables(verts, signs, bary):
    """The nine Bernardi-Raugel functions of each triangle and their
    gradients at shared (nq, 3) or per-triangle (m, nq, 3) barycentric
    points, from the package's coefficients: (m, 9, nq, 2) values and
    (m, 9, nq, 2, 2) gradients, ``[..., r, c]`` the derivative of
    component r along x_c."""
    coef = br_coefficients(verts, signs)
    gcoef = br_gradients(coef, triangle_geometry(verts)[1])
    m = coef.shape[0]
    grads = gradient_monomials(bary)[..., None, :, :] @ gcoef.reshape(m, 9, 4, 4)
    return br_values(coef, bary), grads.reshape(grads.shape[:3] + (2, 2))


def hat_values(nodes_x, x, node):
    """The multiplier hat of node ``node`` of the interface grid
    ``nodes_x`` at abscissae ``x`` on the interface."""
    return np.interp(x, nodes_x, np.eye(nodes_x.size)[node])


def einsum_kernels(w, params, ws):
    """The element kernels of the velocity blocks written as plain einsums
    over the loop oracle's tables: linear and Forchheimer parts of the Da
    element matrices on B, the Da element matrices on D, the Newton rhs
    correction on B, the nonlinear action on B and D, and where the
    iterate is zero."""
    F, p = params.forchheimer, params.power
    (phi, gphi), wq_B, wq_D = loop_br_basis(ws.verts_B, ws.signs_B, ws.rule.bary), ws.wq_B, ws.wq_D
    psi, _ = rt0_basis(ws.verts_D, ws.signs_D, ws.qpts_D)
    kinv_B, kinv_D = ws.kinv_B(params), ws.kinv_D(params)
    cw = w[: ws.dofmap.n_uB][ws.dofmap.br.l2g]
    cd = w[ws.dofmap.off_uD : ws.dofmap.off_uD + ws.dofmap.n_uD][ws.dofmap.rt.l2g]
    wfield = np.einsum("ma,maqd->mqd", cw, phi)
    speed = np.linalg.norm(wfield, axis=2)
    zero = speed == 0.0
    safe = np.where(zero, 1.0, speed)
    s_p2 = np.where(zero, 0.0, safe ** (p - 2.0))
    s_p4 = np.where(zero, 0.0, safe ** (p - 4.0))
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
    return lin_B, forch_B, da_D, rhs_B, act_B, act_D, zero


def velocity_action(w, params, ws):
    """[a(w), v] for every velocity test function, as a full vector with
    zeros outside the velocity rows, from the einsum kernels."""
    *_, act_B, act_D, _ = einsum_kernels(w, params, ws)
    dof = ws.dofmap
    out = np.zeros(dof.n_total)
    np.add.at(out, dof.br.l2g, act_B)
    np.add.at(out, dof.off_uD + dof.rt.l2g, act_D)
    return out


def x_graded(mesh):
    """``mesh`` with x mapped to -1/2 + (x + 1/2)^2."""
    x, y = mesh.vertices.T
    return replace(mesh, vertices=np.stack([-0.5 + (x + 0.5) ** 2, y], axis=1))


def y_graded(mesh):
    """``mesh`` with y mapped to 1/2 +- (y - 1/2)^2 on either side of the
    interface y = 1/2, which stays fixed."""
    x, y = mesh.vertices.T
    return replace(mesh, vertices=np.stack([x, 0.5 + np.sign(y - 0.5) * (y - 0.5) ** 2], axis=1))
