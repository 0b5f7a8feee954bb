"""Legacy ASCII VTK export of solution fields.

Two files describe one solve: an unstructured-grid file carrying the
velocity and pressure over the whole two-region mesh, and a polydata
file carrying the interface multiplier along the coupling line.  The
velocity in the upper region is written as point data (the piecewise
linear part evaluated at vertices); the lower-region velocity has no
continuous point values, so it is written as per-cell element averages.
"""

import numpy as np

from .elements import rt0_basis

__all__ = ["write_solution_vtk", "write_multiplier_vtk"]


def _format_rows(rows, fmt="%.9e"):
    """The rows of a 2-D array as text lines of space-separated values.

    One %-format over a template of the whole block formats every value
    as ``fmt`` would one by one ("%.9e" as f"{v:.9e}", "%d" as str(i)).
    """
    rows = np.asarray(rows)
    n, m = rows.shape
    template = "\n".join([" ".join([fmt] * m)] * n)
    return template % tuple(rows.ravel().tolist())


def write_solution_vtk(path, fields):
    """Write velocities and pressure to a legacy unstructured-grid file.

    Point data: `velocity_brinkman` (zero at vertices outside the upper
    region).  Cell data: `velocity_darcy` (element average, zero on
    upper-region cells) and `pressure`.
    """
    mesh, dofmap = fields.mesh, fields.dofmap
    nv = mesh.num_vertices
    nt = mesh.num_triangles

    ub_pts = np.zeros((nv, 2))
    loc = dofmap.br.vertex_local
    have = loc >= 0
    ub_pts[have, 0] = fields.u_B[2 * loc[have]]
    ub_pts[have, 1] = fields.u_B[2 * loc[have] + 1]

    ud_cells = np.zeros((nt, 2))
    rt = dofmap.rt
    verts = mesh.vertices[mesh.triangles[rt.tri_ids]]
    signs = mesh.tri_edge_signs[rt.tri_ids]
    centers = verts.mean(axis=1)[:, None, :]
    psi, _ = rt0_basis(verts, signs, centers)
    # the field is linear in x, so the centroid value is the cell average
    ud_cells[rt.tri_ids] = np.einsum("ma,maqd->mqd", fields.u_D[rt.l2g], psi)[:, 0]

    pts3 = np.column_stack([mesh.vertices, np.zeros(nv)])
    ub3 = np.column_stack([ub_pts, np.zeros(nv)])
    ud3 = np.column_stack([ud_cells, np.zeros(nt)])
    cells = np.column_stack([np.full(nt, 3), mesh.triangles])

    parts = [
        "# vtk DataFile Version 3.0",
        "coupled filtration fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
        _format_rows(pts3),
        f"CELLS {nt} {4 * nt}",
        _format_rows(cells, "%d"),
        f"CELL_TYPES {nt}",
        "\n".join(["5"] * nt),
        f"POINT_DATA {nv}",
        "VECTORS velocity_brinkman double",
        _format_rows(ub3),
        f"CELL_DATA {nt}",
        "VECTORS velocity_darcy double",
        _format_rows(ud3),
        "SCALARS pressure double 1",
        "LOOKUP_TABLE default",
        _format_rows(fields.p[:, None]),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_multiplier_vtk(path, fields):
    """Write the multiplier as a polyline along the interface."""
    iface = fields.interface
    lam = fields.lam
    n = iface.num_nodes
    pts3 = np.column_stack(
        [iface.nodes_x, np.full(n, iface.y), np.zeros(n)]
    )
    parts = [
        "# vtk DataFile Version 3.0",
        "interface multiplier",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {n} double",
        _format_rows(pts3),
        f"LINES 1 {n + 1}",
        str(n) + " " + " ".join(str(i) for i in range(n)),
        f"POINT_DATA {n}",
        "SCALARS multiplier double 1",
        "LOOKUP_TABLE default",
        _format_rows(lam[:, None]),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
