"""Test oracle of the Bernardi-Raugel basis tables, shared by the element,
assembly and error tests."""

from __future__ import annotations

import numpy as np

from bfdarcy.elements import triangle_geometry


def loop_br_basis(verts, signs, bary):
    """Oracle of ``br_basis``: the nine Bernardi-Raugel functions and their
    gradients filled in point by point, one whole-array pass per bubble
    and per vertex correction, with the returns of ``br_basis``."""
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
