"""Quadrature rules, local bases and interpolation operators.

Velocity spaces: the Brinkman region uses Bernardi-Raugel elements
(componentwise P1 plus one normal edge bubble per edge), the Darcy region
uses lowest order Raviart-Thomas elements.  Pressures are piecewise
constant.  All edge-based quantities refer to the mesh's global edge
orientation, so coefficients are single-valued across element boundaries.

On an affine triangle every Bernardi-Raugel function is a polynomial in
the barycentric coordinates eta_i: ``br_coefficients`` gives, per
triangle, its constant vector coefficients on the six value monomials
(eta_0, eta_1, eta_2, eta_1 eta_2, eta_2 eta_0, eta_0 eta_1), and by the
chain rule (``br_gradients``) the constant 2x2 coefficients of its
gradient on (1, eta_0, eta_1, eta_2).  Tables at points (``br_values``)
are matrix products of these coefficients with the monomials at the
points, and integrals of products reduce to small reference Grams of a
quadrature rule.

Local DOF ordering on a triangle: six vertex dofs
(v0x, v0y, v1x, v1y, v2x, v2y) followed by three bubbles, one per edge,
edge ``i`` being opposite vertex ``i``.  The bubble on edge ``e`` is
normalized so its own edge flux is one, which turns the nine local
degrees of freedom (vertex values and edge fluxes) into a nodal basis:
the DOF/basis matrix is the identity.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature on the reference triangle {x>=0, y>=0, x+y<=1}.

    Degrees 1-6 are symmetric tables, degrees 7-10 plain conical product
    rules.  Weights sum to the reference area 1/2.  ``bary`` holds
    barycentric coordinates of the points, one row per point.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def bary(self):
        x, y = self.points[:, 0], self.points[:, 1]
        return np.stack([1.0 - x - y, x, y], axis=1)

    def __len__(self):
        return self.weights.shape[0]


def _perm_rule(groups):
    """Expand (weight, barycentric-orbit) groups into points and weights.

    Each group is (w, lam) where lam is a barycentric triple; all distinct
    permutations of lam are added with weight w.  Weights are normalized
    so the full rule sums to 1 and is scaled by the reference area later.
    """
    pts, wts = [], []
    for w, lam in groups:
        seen = set()
        for perm in (
            (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2),
        ):
            tri = (lam[perm[0]], lam[perm[1]], lam[perm[2]])
            if tri in seen:
                continue
            seen.add(tri)
            pts.append([tri[1], tri[2]])
            wts.append(w)
    return np.array(pts), np.array(wts)


def _table_rule(degree, groups):
    pts, wts = _perm_rule(groups)
    return QuadratureRule(degree=degree, points=pts, weights=0.5 * wts)


# Gauss-Jacobi nodes and weights on [-1, 1] for the weight (1 - t), the
# values of scipy.special.roots_jacobi(n, 1.0, 0.0) to the last bit.  A
# table keeps scipy.special out of the package's import.
_GAUSS_JACOBI_1_0 = {
    4: (
        (-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234),
    ),
    5: (
        (-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
         0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
         0.0629916580867692),
    ),
    6: (
        (-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
         0.538467724060109, 0.8538913426394822),
        (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
         0.17582066220203585, 0.034953207254438116),
    ),
}


def _conical_rule(degree):
    """Conical product Gauss rule: n Gauss-Legendre points along x times n
    Gauss-Jacobi(1, 0) points along y, n = (degree + 2) // 2, exact to
    degree 2n - 1 with n^2 points.  It is not symmetric."""
    n = (degree + 2) // 2
    s, ws = leggauss(n)
    xi, wxi = 0.5 * (s + 1.0), 0.5 * ws
    t, wt = (np.array(a) for a in _GAUSS_JACOBI_1_0[n])
    eta, weta = 0.5 * (t + 1.0), 0.25 * wt
    X = np.outer(xi, 1.0 - eta).ravel()
    Y = np.tile(eta, n)
    W = np.outer(wxi, weta).ravel()
    return QuadratureRule(degree=degree, points=np.stack([X, Y], axis=1), weights=W)


def _build_rules():
    third = 1.0 / 3.0
    rules = {}
    rules[1] = _table_rule(1, [(1.0, (third, third, third))])
    rules[2] = _table_rule(2, [(third, (2 * third, 1.0 / 6.0, 1.0 / 6.0))])
    deg4 = [
        (0.223381589678011, (0.445948490915965, 0.445948490915965, 0.108103018168070)),
        (0.109951743655322, (0.091576213509771, 0.091576213509771, 0.816847572980458)),
    ]
    rules[3] = _table_rule(3, deg4)
    rules[4] = _table_rule(4, deg4)
    rules[5] = _table_rule(
        5,
        [
            (0.225, (third, third, third)),
            (0.132394152788506, (0.470142064105115, 0.470142064105115, 0.059715871789770)),
            (0.125939180544827, (0.101286507323456, 0.101286507323456, 0.797426985353087)),
        ],
    )
    rules[6] = _table_rule(
        6,
        [
            (0.050844906370207, (0.063089014491502, 0.063089014491502, 0.873821971016996)),
            (0.116786275726379, (0.249286745170910, 0.249286745170910, 0.501426509658179)),
            (0.082851075618374, (0.310352451033785, 0.053145049844816, 0.636502499121399)),
        ],
    )
    for d in range(7, 11):
        rules[d] = _conical_rule(d)
    return rules


_RULES = _build_rules()


def quad_rule(degree):
    """Return a triangle rule exact to the given total degree: a symmetric
    table for degrees 1-6, a plain conical product rule (16, 25, 25 and 36
    points) for degrees 7-10."""
    if degree not in _RULES:
        raise ValueError(f"quadrature degree must be in 1..10, got {degree}")
    return _RULES[degree]


@lru_cache(maxsize=None)
def edge_rule(n):
    """Gauss-Legendre points and weights on [0, 1], weights summing to 1."""
    if n < 1:
        raise ValueError(f"edge rule needs at least one point, got {n}")
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def physical_points(verts, bary):
    """Map barycentric points to physical ones, (m, 3, 2) x (nq, 3) -> (m, nq, 2)."""
    return bary @ verts


def edge_bary(triangles, ends, tri, t):
    """Barycentric coordinates, in triangle ``tri`` (rows of ``triangles``),
    of the points (1 - t) a + t b on the edge with endpoints ``ends``
    (a, b): (len(tri), len(t), 3).  The interface and boundary tables and
    the interface checks evaluate the element bases on an edge at these
    points, seen from either incident triangle."""
    tverts = triangles[tri]
    loc0 = np.argmax(tverts == ends[:, :1], axis=1)
    loc1 = np.argmax(tverts == ends[:, 1:2], axis=1)
    ns, nqe = tri.size, t.size
    bary = np.zeros((ns, nqe, 3))
    bary[np.arange(ns)[:, None], np.arange(nqe)[None, :], loc0[:, None]] = 1.0 - t[None, :]
    bary[np.arange(ns)[:, None], np.arange(nqe)[None, :], loc1[:, None]] = t[None, :]
    return bary


def points_on_edges(mesh, edge_ids, t):
    """Physical points a + t (b - a) on the mesh edges ``edge_ids``, a and
    b their global endpoints: (len(edge_ids), len(t), 2)."""
    a = mesh.vertices[mesh.edges[edge_ids, 0]]
    b = mesh.vertices[mesh.edges[edge_ids, 1]]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def triangle_geometry(verts):
    """Areas, barycentric gradients, edge lengths and outward edge normals.

    Parameters
    ----------
    verts : (m, 3, 2) array

    Returns
    -------
    areas : (m,)
    grad_eta : (m, 3, 2)
    edge_len : (m, 3)
        Length of the edge opposite each vertex.
    normal_out : (m, 3, 2)
        Unit outward normal on the edge opposite each vertex.
    """
    p0, p1, p2 = verts[:, 0], verts[:, 1], verts[:, 2]
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    grad1 = np.stack([d2[:, 1], -d2[:, 0]], axis=1) / det[:, None]
    grad2 = np.stack([-d1[:, 1], d1[:, 0]], axis=1) / det[:, None]
    grad_eta = np.stack([-grad1 - grad2, grad1, grad2], axis=1)
    tang = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    edge_len = np.linalg.norm(tang, axis=2)
    normal_out = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / edge_len[..., None]
    return areas, grad_eta, edge_len, normal_out


# A Bernardi-Raugel function on an affine triangle is a P1 vector field
# plus normal edge bubbles, so each of the nine local functions is a sum
# of the six value monomials (eta_0, eta_1, eta_2, eta_1 eta_2, eta_2 eta_0,
# eta_0 eta_1), each times a constant vector.  Monomial 3 + j is the bubble
# product of edge j.
_EDGES = np.arange(3)
_ADJACENT = 1.0 - np.eye(3)
# _DERIVATIVE[s, i, t]: the coefficient of gradient monomial t (1, eta_0,
# eta_1, eta_2) in the derivative of value monomial s along eta_i.  By the
# chain rule grad P_s = sum_i _DERIVATIVE[s, i] grad eta_i.
_DERIVATIVE = np.zeros((6, 3, 4))
_DERIVATIVE[_EDGES, _EDGES, 0] = 1.0
_DERIVATIVE[3 + _EDGES, (_EDGES + 1) % 3, 1 + (_EDGES + 2) % 3] = 1.0
_DERIVATIVE[3 + _EDGES, (_EDGES + 2) % 3, 1 + (_EDGES + 1) % 3] = 1.0


def value_monomials(bary):
    """The six value monomials at barycentric points, (..., 3) -> (..., 6)."""
    bary = np.asarray(bary, dtype=float)
    return np.concatenate([bary, bary[..., [1, 2, 0]] * bary[..., [2, 0, 1]]], axis=-1)


def gradient_monomials(bary):
    """The four gradient monomials at barycentric points, (..., 3) -> (..., 4)."""
    bary = np.asarray(bary, dtype=float)
    return np.concatenate([np.ones(bary.shape[:-1] + (1,)), bary], axis=-1)


def br_coefficients(verts, signs):
    """Coefficients of the nine Bernardi-Raugel basis functions of each
    triangle on the value monomials; the gradient coefficients follow
    from them by the chain rule (``br_gradients``).

    Parameters
    ----------
    verts : (m, 3, 2) array
    signs : (m, 3) array
        Global orientation sign of the edge opposite each vertex.

    Returns
    -------
    coef : (m, 9, 6, 2)
        ``coef[:, a, s]`` is the vector multiplying value monomial s in
        basis function a.
    """
    m = verts.shape[0]
    _, _, lens, nout = triangle_geometry(verts)
    ng = signs[..., None] * nout
    coef = np.zeros((m, 9, 6, 2))

    # The bubble on edge j is (6 / |e_j|) eta_a eta_b n_j, of unit flux.
    coef[:, 6 + _EDGES, 3 + _EDGES] = (6.0 / lens)[..., None] * ng

    # Vertex functions carry a bubble correction on their two adjacent
    # edges so that their edge fluxes vanish and the DOF matrix is the
    # identity: component c of vertex i loses (|e_j| / 2) n_j[c] times
    # bubble j.
    vertex_dofs = np.arange(6)
    coef[:, vertex_dofs, vertex_dofs // 2, vertex_dofs % 2] = 1.0
    # corr[:, 2 i + c, j]: the multiple of bubble j in vertex function (i, c).
    corr = -0.5 * (lens[:, None, :] * ng.transpose(0, 2, 1))[:, None] * _ADJACENT[:, None, :]
    corr = corr.reshape(m, 6, 3)
    coef[:, :6, 3:] = (corr @ coef[:, 6:, 3:].reshape(m, 3, 6)).reshape(m, 6, 3, 2)
    return coef


def br_gradients(coef, grad_eta):
    """Gradient coefficients, by the chain rule, of the functions with
    value coefficients ``coef`` (m, nb, 6, 2) on triangles with barycentric
    gradients ``grad_eta`` (m, 3, 2): (m, nb, 4, 2, 2), where
    ``[:, a, t, r, c]`` multiplies gradient monomial t in the derivative
    of component r of function a along x_c.  The array is C-contiguous,
    so the (m, nb, 4, 4) view the stiffness contracts costs no copy."""
    m, nb = coef.shape[:2]
    # spread[(s, k, t, r), j] is _DERIVATIVE[s, j, t] where k = r and 0
    # elsewhere, so dmono[m, (s, k), (t, r, c)] is component c of grad P_s
    # on gradient monomial t where k = r.  One product with the value
    # coefficients as stored, over (s, k), then writes the result in
    # (t, r, c) order; each sum meets its six nonzero terms in the order
    # of a sum over s alone, and the zeros add nothing.
    spread = np.zeros((6, 2, 4, 2, 3))
    for r in range(2):
        spread[:, r, :, r, :] = _DERIVATIVE.transpose(0, 2, 1)
    dmono = (spread.reshape(96, 3) @ grad_eta).reshape(m, 12, 16)
    return (coef.reshape(m, nb, 12) @ dmono).reshape(m, nb, 4, 2, 2)


def br_values(coef, bary):
    """Basis values from value coefficients: (m, 9, 6, 2) coefficients at
    shared (nq, 3) or per-triangle (m, nq, 3) points -> (m, 9, nq, 2)."""
    return value_monomials(bary)[..., None, :, :] @ coef


def rt0_basis(verts, signs, pts):
    """Evaluate the three Raviart-Thomas basis functions on each triangle.

    Parameters
    ----------
    verts : (m, 3, 2) array
    signs : (m, 3) array
    pts : (m, nq, 2) array
        Physical evaluation points.

    Returns
    -------
    vals : (m, 3, nq, 2)
    div : (m, 3)
        Elementwise constant divergence, ``signs / area``.
    """
    d1, d2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    vals = (
        signs[:, :, None, None]
        * (pts[:, None, :, :] - verts[:, :, None, :])
        / (2.0 * areas[:, None, None, None])
    )
    div = signs / areas[:, None]
    return vals, div


@dataclass(frozen=True, eq=False)
class BRSpace:
    """Degree-of-freedom layout of the Bernardi-Raugel space on region B.

    Coefficients are ordered vertex-interleaved (x0, y0, x1, y1, ...)
    followed by one flux coefficient per region edge.
    """

    tri_ids: np.ndarray
    vertex_ids: np.ndarray
    edge_ids: np.ndarray
    l2g: np.ndarray
    n_dofs: int
    vertex_local: np.ndarray
    edge_local: np.ndarray


@dataclass(frozen=True, eq=False)
class RT0Space:
    """Degree-of-freedom layout of the Raviart-Thomas space on region D."""

    tri_ids: np.ndarray
    edge_ids: np.ndarray
    l2g: np.ndarray
    n_dofs: int
    edge_local: np.ndarray


def br_space(mesh):
    tri_ids = np.flatnonzero(mesh.subdomain == "B")
    tris = mesh.triangles[tri_ids]
    vertex_ids = np.unique(tris)
    edge_ids = np.unique(mesh.tri_edges[tri_ids])
    vertex_local = np.full(mesh.num_vertices, -1, dtype=int)
    vertex_local[vertex_ids] = np.arange(vertex_ids.size)
    edge_local = np.full(mesh.num_edges, -1, dtype=int)
    edge_local[edge_ids] = np.arange(edge_ids.size)

    vl = vertex_local[tris]
    el = edge_local[mesh.tri_edges[tri_ids]]
    l2g = np.empty((tri_ids.size, 9), dtype=int)
    l2g[:, 0:6:2] = 2 * vl
    l2g[:, 1:6:2] = 2 * vl + 1
    l2g[:, 6:9] = 2 * vertex_ids.size + el
    return BRSpace(
        tri_ids=tri_ids,
        vertex_ids=vertex_ids,
        edge_ids=edge_ids,
        l2g=l2g,
        n_dofs=2 * vertex_ids.size + edge_ids.size,
        vertex_local=vertex_local,
        edge_local=edge_local,
    )


def rt0_space(mesh):
    tri_ids = np.flatnonzero(mesh.subdomain == "D")
    edge_ids = np.unique(mesh.tri_edges[tri_ids])
    edge_local = np.full(mesh.num_edges, -1, dtype=int)
    edge_local[edge_ids] = np.arange(edge_ids.size)
    l2g = edge_local[mesh.tri_edges[tri_ids]]
    return RT0Space(
        tri_ids=tri_ids,
        edge_ids=edge_ids,
        l2g=l2g,
        n_dofs=edge_ids.size,
        edge_local=edge_local,
    )


def _edge_fluxes(v, mesh, edge_ids, npts):
    """Integrate v . n over the given edges in the global orientation."""
    t, w = edge_rule(npts)
    pts = points_on_edges(mesh, edge_ids, t)
    vals = np.asarray(v(pts.reshape(-1, 2))).reshape(len(edge_ids), len(t), 2)
    normals = mesh.outward_normals()[edge_ids]
    lens = mesh.edge_lengths[edge_ids]
    return lens * np.einsum("q,eqd,ed->e", w, vals, normals)


def interpolate_br(v, mesh, space=None, edge_points=5):
    """Bernardi-Raugel interpolation: vertex values plus edge fluxes.

    ``v`` must map an (n, 2) array of points to an (n, 2) array of
    vectors.  Returns the coefficient vector in the ``br_space`` layout.
    """
    if space is None:
        space = br_space(mesh)
    coeffs = np.zeros(space.n_dofs)
    vv = np.asarray(v(mesh.vertices[space.vertex_ids]))
    nv = space.vertex_ids.size
    coeffs[0 : 2 * nv : 2] = vv[:, 0]
    coeffs[1 : 2 * nv : 2] = vv[:, 1]
    coeffs[2 * nv :] = _edge_fluxes(v, mesh, space.edge_ids, edge_points)
    return coeffs


def interpolate_rt0(v, mesh, space=None, edge_points=5):
    """Raviart-Thomas interpolation: one edge flux per region-D edge."""
    if space is None:
        space = rt0_space(mesh)
    return _edge_fluxes(v, mesh, space.edge_ids, edge_points)


def project_p0(f, mesh, degree=6):
    """L2 projection onto piecewise constants: per-triangle mean values.

    ``f`` must map an (n, 2) array of points to an (n,) array.  Returns
    one coefficient per triangle.
    """
    rule = quad_rule(degree)
    verts = mesh.vertices[mesh.triangles]
    pts = physical_points(verts, rule.bary)
    vals = np.asarray(f(pts.reshape(-1, 2))).reshape(mesh.num_triangles, len(rule))
    # weights sum to 1/2 on the reference cell, the mean needs factor 2
    return 2.0 * np.einsum("q,tq->t", rule.weights, vals)
