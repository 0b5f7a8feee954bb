"""Conforming triangulations of two stacked rectangles and their interface.

The geometry is a Brinkman-Forchheimer rectangle sitting on top of a Darcy
rectangle.  Both share exactly one horizontal side, the interface.  Meshes
are plain triangle soups with a consistent global edge orientation on top,
so that Raviart-Thomas fluxes and edge bubbles mean the same thing from
both sides of every edge.

Edge orientation convention: the intrinsic normal of an interior edge
points from the lower-index to the higher-index incident triangle, and the
normal of a boundary edge points out of its only triangle.  The per
triangle sign ``tri_edge_signs[t, i]`` is +1 when the intrinsic normal of
the edge opposite local vertex ``i`` coincides with the outward normal of
``t`` and -1 otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

# Tags understood by the mesh file format.  The B rectangle's bottom side
# is always the interface, so it never carries a boundary tag of its own.
SUBDOMAIN_TAGS = ("B", "D")
BOUNDARY_TAGS = (
    "GB_LEFT",
    "GB_TOP",
    "GB_RIGHT",
    "GD_LEFT",
    "GD_BOTTOM",
    "GD_RIGHT",
    "SIGMA",
)
GAMMA_B_TAGS = ("GB_LEFT", "GB_TOP", "GB_RIGHT")
GAMMA_D_TAGS = ("GD_LEFT", "GD_BOTTOM", "GD_RIGHT")

FORMAT_HEADER = "bfdarcy-mesh v1"


class MeshFormatError(ValueError):
    """Raised for files that do not parse as the mesh format."""


class MeshConformityError(ValueError):
    """Raised for meshes that parse but violate conformity requirements."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of the two-subdomain geometry.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    subdomain : (nt,) str array
        'B' or 'D' per triangle.
    edges : (ne, 2) int array
        Vertex pairs, lower index first.
    edge_tris : (ne, 2) int array
        Incident triangles in increasing index order; -1 marks the
        missing neighbor of a boundary edge.
    tri_edges : (nt, 3) int array
        Global index of the edge opposite each local vertex.
    tri_edge_signs : (nt, 3) int array
        +1 where the global edge normal is outward for the triangle.
    edge_tags : (ne,) str array
        Boundary/interface tag, '' for untagged interior edges.
    areas : (nt,) float array
        Signed triangle areas.
    edge_lengths : (ne,) float array
    h_B, h_D, h_Sigma : float
        Longest edge touching each region.

    The areas, edge lengths, mesh sizes and the read-only unit edge
    normals of ``outward_normals`` follow from the fields above and are
    computed in ``__post_init__``, so ``dataclasses.replace`` computes
    them anew for the copy.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    subdomain: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    edge_tags: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    edge_lengths: np.ndarray = field(init=False, repr=False)
    h_B: float = field(init=False)
    h_D: float = field(init=False)
    h_Sigma: float = field(init=False)
    _normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        lengths = np.linalg.norm(t, axis=1)
        object.__setattr__(self, "areas", _signed_areas(self.vertices, self.triangles))
        object.__setattr__(self, "edge_lengths", lengths)
        # The subdomain of each incident triangle, '' for a missing one.
        sides = np.where(self.edge_tris >= 0, self.subdomain[self.edge_tris], "")
        for name, on in (
            ("h_B", (sides == "B").any(axis=1)),
            ("h_D", (sides == "D").any(axis=1)),
            ("h_Sigma", self.edge_tags == "SIGMA"),
        ):
            object.__setattr__(self, name, float(lengths[on].max()) if on.any() else 0.0)

        n = np.stack([t[:, 1], -t[:, 0]], axis=1) / lengths[:, None]
        # The edge (lo, hi) as stored has no preferred direction, so fix
        # the sign against the outward normal of the first incident
        # triangle, which defines the global orientation.
        first = self.edge_tris[:, 0]
        centroid = self.vertices[self.triangles[first]].mean(axis=1)
        mid = 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])
        flip = np.sum(n * (mid - centroid), axis=1) < 0.0
        n[flip] *= -1.0
        n.flags.writeable = False
        object.__setattr__(self, "_normals", n)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def edges_with_tag(self, tag):
        """Return the indices of edges carrying the given tag."""
        return np.flatnonzero(self.edge_tags == tag)

    def outward_normals(self):
        """Unit normals of all edges in the global orientation, (ne, 2),
        read-only."""
        return self._normals


@dataclass(frozen=True, eq=False)
class InterfaceData:
    """Ordered interface edges, their doubled-grid pairing and multiplier nodes.

    Interface edges are sorted by increasing x and paired left to right
    into macro edges; multiplier hat functions live on the macro grid.
    """

    edge_ids: np.ndarray      # (ns,) edge indices, left to right
    edge_verts: np.ndarray    # (ns, 2) vertex ids, left endpoint first
    x_left: np.ndarray        # (ns,)
    x_right: np.ndarray       # (ns,)
    tri_B: np.ndarray         # (ns,) incident Brinkman triangle
    tri_D: np.ndarray         # (ns,) incident Darcy triangle
    y: float                  # interface height
    nodes_x: np.ndarray       # (n_macro + 1,) multiplier node abscissae
    normal: np.ndarray        # unit normal pointing out of the B region

    @property
    def num_edges(self):
        return self.edge_ids.shape[0]

    @property
    def num_nodes(self):
        return self.nodes_x.shape[0]


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _build_topology(vertices, triangles, subdomain, tag_pairs, tags):
    """Assemble the Mesh dataclass from a triangle soup and tagged edges.

    ``tag_pairs`` is a (k, 2) int array of vertex pairs, lower index
    first, and ``tags`` the (k,) tag of each pair.
    """
    nv, nt = vertices.shape[0], triangles.shape[0]
    # Edge opposite local vertex i connects the other two vertices.  The
    # key lo * nv + hi sorts edges in the lexicographic (lo, hi) order.
    raw = triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    lo = np.sort(raw, axis=1)
    keys, tri_edges_flat = np.unique(lo[:, 0] * nv + lo[:, 1], return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    tri_edges = tri_edges_flat.reshape(nt, 3)

    ne = edges.shape[0]
    counts = np.bincount(tri_edges_flat, minlength=ne)
    if counts.max() > 2:
        bad = int(np.argmax(counts))
        raise MeshConformityError(
            f"edge {edges[bad, 0]}-{edges[bad, 1]} is shared by {counts.max()} triangles"
        )

    edge_tris = np.full((ne, 2), -1, dtype=int)
    order = np.argsort(tri_edges_flat, kind="stable")
    tri_of = np.repeat(np.arange(nt), 3)[order]
    eid = tri_edges_flat[order]
    first = np.searchsorted(eid, np.arange(ne), side="left")
    edge_tris[:, 0] = tri_of[first]
    two = counts == 2
    edge_tris[two, 1] = tri_of[first[two] + 1]

    # Orientation sign: +1 for the first (lower-index) incident triangle.
    tri_edge_signs = np.where(edge_tris[tri_edges, 0] == np.arange(nt)[:, None], 1, -1)

    edge_tags = np.full(ne, "", dtype="<U9")
    tag_keys = tag_pairs[:, 0] * nv + tag_pairs[:, 1]
    idx = np.minimum(np.searchsorted(keys, tag_keys), ne - 1)
    missing = np.flatnonzero(keys[idx] != tag_keys)
    if missing.size:
        a, b = tag_pairs[missing[0]]
        raise MeshFormatError(f"tagged edge {a}-{b} is not an edge of any triangle")
    edge_tags[idx] = tags

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        subdomain=subdomain,
        edges=edges,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        tri_edge_signs=tri_edge_signs,
        edge_tags=edge_tags,
    )


def generate_stacked_rect(rect_B, rect_D, nx, ny_B, ny_D, pattern="right"):
    """Triangulate two stacked rectangles sharing one horizontal side.

    Parameters
    ----------
    rect_B, rect_D : (x0, x1, y0, y1)
        The Brinkman rectangle must sit exactly on top of the Darcy one:
        same x extent and ``rect_B.y0 == rect_D.y1``.
    nx : int
        Number of interface subdivisions; must be even so the doubled
        multiplier grid exists.
    ny_B, ny_D : int
        Vertical cell counts of the two bands.
    pattern : str
        'right' splits every cell along the bottom-left/top-right
        diagonal; 'crisscross' adds cell centers and splits into four.

    Returns
    -------
    Mesh
    """
    xb0, xb1, yb0, yb1 = map(float, rect_B)
    xd0, xd1, yd0, yd1 = map(float, rect_D)
    if not (xb0 == xd0 and xb1 == xd1):
        raise ValueError("rectangles must have the same x extent")
    if yb0 != yd1:
        raise ValueError("B rectangle must sit exactly on top of the D rectangle")
    if not (xb1 > xb0 and yb1 > yb0 and yd1 > yd0):
        raise ValueError("degenerate rectangle")
    nx, ny_B, ny_D = int(nx), int(ny_B), int(ny_D)
    if nx < 2 or nx % 2 != 0:
        raise ValueError(f"interface edge count must be even and >= 2, got nx={nx}")
    if ny_B < 1 or ny_D < 1:
        raise ValueError("ny_B and ny_D must be >= 1")
    if pattern not in ("right", "crisscross"):
        raise ValueError(f"unknown pattern {pattern!r}; use 'right' or 'crisscross'")

    x = np.linspace(xd0, xd1, nx + 1)
    y = np.concatenate([np.linspace(yd0, yd1, ny_D + 1), np.linspace(yb0, yb1, ny_B + 1)[1:]])
    ny = ny_D + ny_B
    X, Y = np.meshgrid(x, y)
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        # column i, row j of the grid
        return j * (nx + 1) + i

    # Corners of every cell, row by row: a b c d counterclockwise from
    # the bottom left.
    rows, cols = np.arange(ny), np.arange(nx)
    a = vid(cols[None, :], rows[:, None]).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    if pattern == "right":
        cell_tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 2, 3)
    else:
        m = vertices.shape[0] + np.arange(a.size)
        centers = 0.25 * (vertices[a] + vertices[b] + vertices[c] + vertices[d])
        vertices = np.vstack([vertices, centers])
        cell_tris = np.stack([a, b, m, b, c, m, c, d, m, d, a, m], axis=1).reshape(-1, 4, 3)

    # B triangles first, so interface edge normals point out of B.
    n_d = nx * ny_D
    triangles = np.concatenate([cell_tris[n_d:], cell_tris[:n_d]]).reshape(-1, 3)
    per_cell = cell_tris.shape[1]
    subdomain = np.repeat(np.array(["B", "D"]), [per_cell * nx * ny_B, per_cell * n_d])

    in_b = rows >= ny_D
    tag_pairs = [np.stack([vid(i, rows), vid(i, rows + 1)], axis=1) for i in (0, nx)]
    tags = [np.where(in_b, "GB_LEFT", "GD_LEFT"), np.where(in_b, "GB_RIGHT", "GD_RIGHT")]
    for j, tag in ((0, "GD_BOTTOM"), (ny, "GB_TOP"), (ny_D, "SIGMA")):
        tag_pairs.append(np.stack([vid(cols, j), vid(cols + 1, j)], axis=1))
        tags.append(np.full(nx, tag))

    return _build_topology(
        vertices, triangles, subdomain, np.concatenate(tag_pairs), np.concatenate(tags)
    )


def build_interface(mesh):
    """Order the interface edges, pair them into macro edges, locate nodes.

    Every check of the SIGMA edges lives here: they must exist, be even in
    number, each lie between one B and one D triangle, and form one straight
    horizontal segment with the B region above it.

    Returns
    -------
    InterfaceData
    """
    sig = mesh.edges_with_tag("SIGMA")
    if sig.size == 0:
        raise MeshConformityError("mesh has no interface edges tagged SIGMA")
    one_sided = mesh.edge_tris[sig, 1] < 0
    if one_sided.any():
        i, j = mesh.edges[sig[np.argmax(one_sided)]]
        raise MeshConformityError(
            f"non-matching interface: SIGMA edge {i}-{j} has only one triangle"
        )
    if sig.size % 2 != 0:
        raise MeshConformityError(f"interface edge count must be even, got {sig.size}")

    pts = mesh.vertices
    ev = mesh.edges[sig]
    ys = pts[ev, 1]
    scale = max(mesh.h_B, mesh.h_D, 1.0)
    if np.abs(ys - ys[0, 0]).max() > 1e-12 * scale:
        raise MeshConformityError("interface is not a straight horizontal segment")
    y_if = float(ys[0, 0])

    mid_x = pts[ev, 0].mean(axis=1)
    order = np.argsort(mid_x)
    sig = sig[order]
    ev = ev[order]

    # Left endpoint first within each edge.
    flip = pts[ev[:, 0], 0] > pts[ev[:, 1], 0]
    ev[flip] = ev[flip][:, ::-1]
    x_left = pts[ev[:, 0], 0]
    x_right = pts[ev[:, 1], 0]
    if not np.allclose(x_right[:-1], x_left[1:], rtol=0.0, atol=1e-12 * scale):
        raise MeshConformityError("interface edges do not form a contiguous segment")

    tris = mesh.edge_tris[sig]
    is_b = mesh.subdomain[tris] == "B"
    if not np.all(is_b.sum(axis=1) == 1):
        raise MeshConformityError("non-matching interface: each SIGMA edge needs one B and one D triangle")
    tri_B = np.where(is_b[:, 0], tris[:, 0], tris[:, 1])
    tri_D = np.where(is_b[:, 0], tris[:, 1], tris[:, 0])

    # Outward normal of the B region; B must lie above the interface.
    cent_b = pts[mesh.triangles[tri_B]].mean(axis=1)
    if not np.all(cent_b[:, 1] > y_if):
        raise MeshConformityError("B region must lie above the interface")
    normal = np.array([0.0, -1.0])

    nodes_x = np.concatenate([x_left[0::2], x_right[-1:]])

    return InterfaceData(
        edge_ids=sig,
        edge_verts=ev,
        x_left=x_left,
        x_right=x_right,
        tri_B=tri_B,
        tri_D=tri_D,
        y=y_if,
        nodes_x=nodes_x,
        normal=normal,
    )


def save_mesh(mesh, path):
    """Write a mesh in the ASCII v1 format (round-trip exact)."""
    tagged = np.flatnonzero(mesh.edge_tags != "")
    lines = [FORMAT_HEADER]
    lines.append(f"{mesh.num_vertices} {mesh.num_triangles} {tagged.size}")
    for vx, vy in mesh.vertices:
        lines.append(f"{vx:.17g} {vy:.17g}")
    for (i, j, k), tag in zip(mesh.triangles, mesh.subdomain):
        lines.append(f"{i} {j} {k} {tag}")
    for e in tagged:
        i, j = mesh.edges[e]
        lines.append(f"{i} {j} {mesh.edge_tags[e]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Joins the lines of a block into one string to split; a NUL is no
# whitespace, so it stays a token of its own between two lines.
_LINE_BREAK = "\x00"


def _tokens(lines, width):
    """The whitespace-separated tokens of ``lines``, line after line, or
    None when some line holds another number of tokens than ``width``."""
    n = len(lines)
    tokens = f" {_LINE_BREAK} ".join(lines).split()
    # n - 1 breaks, every (width + 1)-th token: no line holds a break token
    # of its own, so the breaks lie between lines and each line holds
    # exactly ``width`` tokens.
    if n and (
        len(tokens) != n * (width + 1) - 1
        or tokens.count(_LINE_BREAK) != n - 1
        or tokens[width :: width + 1].count(_LINE_BREAK) != n - 1
    ):
        return None
    del tokens[width :: width + 1]
    return tokens


def _triangle_block(lines):
    """The (n, 3) vertex indices and (n,) subdomain tags of the triangle
    lines, or None when some line does not parse that way."""
    tokens = _tokens(lines, 4)
    if tokens is None:
        return None
    tags = tokens[3::4]
    if not set(tags) <= set(SUBDOMAIN_TAGS):
        return None
    del tokens[3::4]
    try:
        index = np.fromiter(map(int, tokens), dtype=int, count=len(tokens))
    except (ValueError, OverflowError):
        return None
    return index.reshape(len(lines), 3), np.array(tags, dtype="<U1")


def _raise_at_bad_triangle_line(lines):
    """Raise the error of the first triangle line that does not parse."""
    for r, ln in enumerate(lines):
        tok = ln.split()
        if len(tok) != 4 or tok[3] not in SUBDOMAIN_TAGS:
            raise MeshFormatError(f"triangle line {r}: expected 'i j k B|D', got {ln!r}")
        try:
            index = [int(tok[0]), int(tok[1]), int(tok[2])]
        except ValueError as exc:
            raise MeshFormatError(f"triangle line {r}: bad vertex index in {ln!r}") from exc
        # an index beyond the int range raises OverflowError, as storing it does
        np.array(index, dtype=int)


def load_mesh(path):
    """Read a mesh in the ASCII v1 format and validate conformity.

    Raises
    ------
    MeshFormatError
        For files that do not parse: bad header, wrong counts, bad
        indices or unknown tags.
    MeshConformityError
        For meshes that parse but are not valid: clockwise triangles
        ("negative area"), an interface ``build_interface`` rejects
        (such as "non-matching interface"), over-shared edges, or
        boundary tags missing or on interior edges.
    """
    with open(path) as fh:
        lines = list(filter(None, map(str.strip, fh)))
    if not lines or lines[0] != FORMAT_HEADER:
        raise MeshFormatError(f"not a {FORMAT_HEADER!r} file: bad header")
    try:
        nv, nt, ne = (int(tok) for tok in lines[1].split())
    except (ValueError, IndexError) as exc:
        raise MeshFormatError("count line must hold three integers: NV NT NE") from exc
    if nt < 1 or min(nv, ne) < 0:
        raise MeshFormatError(f"a mesh needs NT >= 1 triangles and NV, NE >= 0, got {nv} {nt} {ne}")
    if len(lines) != 2 + nv + nt + ne:
        raise MeshFormatError(
            f"expected {2 + nv + nt + ne} lines for NV={nv} NT={nt} NE={ne}, got {len(lines)}"
        )

    vertex_lines = lines[2 : 2 + nv]
    triangle_lines = lines[2 + nv : 2 + nv + nt]
    edge_lines = lines[2 + nv + nt :]

    tokens = _tokens(vertex_lines, 2)
    try:
        if tokens is None:
            raise ValueError("a vertex line without two tokens")
        vertices = np.fromiter(map(float, tokens), dtype=float, count=2 * nv).reshape(nv, 2)
    except ValueError as exc:
        raise MeshFormatError("vertex lines must hold two floats: x y") from exc

    parsed = _triangle_block(triangle_lines)
    if parsed is None:
        _raise_at_bad_triangle_line(triangle_lines)
    triangles, subdomain = parsed
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise MeshFormatError("triangle vertex index out of range")

    tags = {}
    for r, ln in enumerate(edge_lines):
        tok = ln.split()
        if len(tok) != 3 or tok[2] not in BOUNDARY_TAGS:
            raise MeshFormatError(f"edge line {r}: expected 'i j TAG', got {ln!r}")
        try:
            i, j = int(tok[0]), int(tok[1])
        except ValueError as exc:
            raise MeshFormatError(f"edge line {r}: bad vertex index in {ln!r}") from exc
        if not (0 <= i < nv and 0 <= j < nv) or i == j:
            raise MeshFormatError(f"edge line {r}: vertex index out of range")
        tags[(min(i, j), max(i, j))] = tok[2]

    areas = _signed_areas(vertices, triangles)
    if np.any(areas <= 0.0):
        bad = int(np.flatnonzero(areas <= 0.0)[0])
        raise MeshConformityError(
            f"negative area in triangle {bad}; vertices must be counterclockwise"
        )

    tag_pairs = np.array(list(tags), dtype=int).reshape(-1, 2)
    tag_names = np.array(list(tags.values()), dtype=str)
    mesh = _build_topology(vertices, triangles, subdomain, tag_pairs, tag_names)
    _validate_conformity(mesh)
    return mesh


def _validate_conformity(mesh):
    build_interface(mesh)
    boundary = mesh.edge_tris[:, 1] == -1
    untagged_boundary = boundary & (mesh.edge_tags == "")
    if untagged_boundary.any():
        e = int(np.flatnonzero(untagged_boundary)[0])
        i, j = mesh.edges[e]
        raise MeshConformityError(
            f"boundary edge {i}-{j} carries no tag (non-matching interface or missing tag)"
        )
    interior_tagged = ~boundary & (mesh.edge_tags != "") & (mesh.edge_tags != "SIGMA")
    if interior_tagged.any():
        e = int(np.flatnonzero(interior_tagged)[0])
        i, j = mesh.edges[e]
        raise MeshConformityError(
            f"interior edge {i}-{j} carries boundary tag {mesh.edge_tags[e]}"
        )
