"""Mesh generation, interface pairing and file round-trip tests."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdarcy import (
    MeshConformityError,
    MeshFormatError,
    build_interface,
    generate_stacked_rect,
    load_mesh,
    save_mesh,
)
from bfdarcy.mesh import _build_topology

from oracles import hat_values

RECT_B = (-0.5, 0.5, 0.5, 1.5)
RECT_D = (-0.5, 0.5, -0.5, 0.5)


def small_mesh(nx=4, ny_B=2, ny_D=2, pattern="right"):
    return generate_stacked_rect(RECT_B, RECT_D, nx, ny_B, ny_D, pattern=pattern)


# ---------------------------------------------------------------- generator


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=6).map(lambda k: 2 * k),
    ny_B=st.integers(min_value=1, max_value=5),
    ny_D=st.integers(min_value=1, max_value=5),
    pattern=st.sampled_from(["right", "crisscross"]),
)
def test_generator_counts_and_areas(nx, ny_B, ny_D, pattern):
    mesh = small_mesh(nx, ny_B, ny_D, pattern)
    cells = nx * (ny_B + ny_D)
    per_cell = 2 if pattern == "right" else 4
    assert mesh.num_triangles == per_cell * cells
    extra = cells if pattern == "crisscross" else 0
    assert mesh.num_vertices == (nx + 1) * (ny_B + ny_D + 1) + extra

    assert np.all(mesh.areas > 0.0)
    area_b = mesh.areas[mesh.subdomain == "B"].sum()
    area_d = mesh.areas[mesh.subdomain == "D"].sum()
    assert area_b == pytest.approx(1.0, abs=1e-13)
    assert area_d == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=6).map(lambda k: 2 * k),
    ny_B=st.integers(min_value=1, max_value=5),
    ny_D=st.integers(min_value=1, max_value=5),
)
def test_generator_boundary_tags_cover_the_boundary(nx, ny_B, ny_D):
    mesh = small_mesh(nx, ny_B, ny_D)
    expected = {
        "GB_TOP": nx,
        "GD_BOTTOM": nx,
        "SIGMA": nx,
        "GB_LEFT": ny_B,
        "GB_RIGHT": ny_B,
        "GD_LEFT": ny_D,
        "GD_RIGHT": ny_D,
    }
    for tag, count in expected.items():
        assert mesh.edges_with_tag(tag).size == count

    boundary = mesh.edge_tris[:, 1] == -1
    tagged = mesh.edge_tags != ""
    sigma = mesh.edge_tags == "SIGMA"
    # every boundary edge is tagged, every tagged interior edge is SIGMA
    assert np.all(tagged[boundary])
    assert np.all(sigma[tagged & ~boundary])


def test_generator_mesh_sizes():
    mesh = small_mesh(nx=4, ny_B=2, ny_D=1)
    dx = 1.0 / 4
    assert mesh.h_Sigma == pytest.approx(dx)
    assert mesh.h_B == pytest.approx(np.hypot(dx, 1.0 / 2))
    assert mesh.h_D == pytest.approx(np.hypot(dx, 1.0))


def test_generator_outward_normals_point_out_of_the_domain():
    mesh = small_mesh()
    normals = mesh.outward_normals()
    for tag, expect in (
        ("GB_TOP", (0.0, 1.0)),
        ("GD_BOTTOM", (0.0, -1.0)),
        ("GB_LEFT", (-1.0, 0.0)),
        ("GD_LEFT", (-1.0, 0.0)),
        ("GB_RIGHT", (1.0, 0.0)),
        ("GD_RIGHT", (1.0, 0.0)),
    ):
        np.testing.assert_allclose(normals[mesh.edges_with_tag(tag)], np.broadcast_to(expect, (mesh.edges_with_tag(tag).size, 2)), atol=1e-14)


# SHA-256 of the save_mesh text, then of the bytes of edge_tris, tri_edges
# and tri_edge_signs, recorded from the loop-based generator that the
# array version replaced.
GENERATOR_DIGESTS = {
    ("right", 2, 1, 1): "c510ca374f4f07dfa34ae455e71c1336fb7d471c0cb9761a2cae4337e106a418",
    ("right", 4, 3, 2): "2073eb4d478081ded009405d156d248fc0afab0aa82a4dda0c72aa236c928bda",
    ("right", 6, 2, 5): "697d5d822c39534841fa6854ba262f3566680f7d498b54852a2fa62cd5518080",
    ("crisscross", 2, 1, 1): "69e7a915799151e7c72242a28559eb641bb54dab2bbabffef742c0644f0f1401",
    ("crisscross", 4, 3, 2): "031db04218c267d0fad811541ed790d53cfb8d381cb10945fd1657467d71a847",
    ("crisscross", 6, 2, 5): "a6f7283de608da9cb189179881e9a3406e1a3e6d5ceb00111ffb38ca9995d390",
}


@pytest.mark.parametrize("case", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned_bit_for_bit(tmp_path, case):
    pattern, nx, ny_B, ny_D = case
    mesh = small_mesh(nx, ny_B, ny_D, pattern)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    digest = hashlib.sha256(path.read_bytes())
    for array in (mesh.edge_tris, mesh.tri_edges, mesh.tri_edge_signs):
        digest.update(array.tobytes())
    assert digest.hexdigest() == GENERATOR_DIGESTS[case]


def reference_normals(mesh):
    """Unit edge normals, flipped to point away from the first triangle."""
    v, e = mesh.vertices, mesh.edges
    t = v[e[:, 1]] - v[e[:, 0]]
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    centroid = v[mesh.triangles[mesh.edge_tris[:, 0]]].mean(axis=1)
    mid = 0.5 * (v[e[:, 0]] + v[e[:, 1]])
    n[np.sum(n * (mid - centroid), axis=1) < 0.0] *= -1.0
    return n


def renumbered(mesh, tmp_path, seed):
    """Load ``mesh`` from a file that numbers its vertices in random order."""
    old = np.random.default_rng(seed).permutation(mesh.num_vertices)
    new = np.argsort(old)
    tagged = np.flatnonzero(mesh.edge_tags != "")
    lines = ["bfdarcy-mesh v1", f"{mesh.num_vertices} {mesh.num_triangles} {tagged.size}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices[old]]
    lines += [f"{i} {j} {k} {s}" for (i, j, k), s in zip(new[mesh.triangles], mesh.subdomain)]
    lines += [f"{i} {j} {mesh.edge_tags[e]}" for e, (i, j) in zip(tagged, new[mesh.edges[tagged]])]
    return load_mesh(rewrite(tmp_path / "renumbered.txt", lines))


@pytest.mark.parametrize("pattern", ["right", "crisscross"])
def test_outward_normals_are_stored_once_and_read_only(tmp_path, pattern):
    mesh = small_mesh(nx=4, ny_B=3, ny_D=2, pattern=pattern)
    for m in (mesh, renumbered(mesh, tmp_path, seed=7)):
        normals = m.outward_normals()
        np.testing.assert_array_equal(normals, reference_normals(m))
        assert m.outward_normals() is normals
        assert not normals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            normals[0] = 0.0

    # dataclasses.replace runs __post_init__, so the copy gets normals of
    # its own geometry
    tags = mesh.edge_tags.copy()
    tags[mesh.edges_with_tag("GB_TOP")] = "GB_LEFT"
    retagged = dataclasses.replace(mesh, edge_tags=tags)
    np.testing.assert_array_equal(retagged.outward_normals(), mesh.outward_normals())
    assert not retagged.outward_normals().flags.writeable
    sheared = dataclasses.replace(mesh, vertices=mesh.vertices @ np.array([[1.0, 0.0], [0.5, 1.0]]))
    np.testing.assert_array_equal(sheared.outward_normals(), reference_normals(sheared))
    assert not np.array_equal(sheared.outward_normals(), mesh.outward_normals())


@pytest.mark.parametrize("pattern", ["right", "crisscross"])
def test_replace_vertices_recomputes_the_geometry(pattern):
    """A copy with mapped vertices has the areas, edge lengths, mesh sizes
    and normals of a mesh built on the mapped vertices."""
    mesh = small_mesh(nx=4, ny_B=3, ny_D=2, pattern=pattern)
    tagged = np.flatnonzero(mesh.edge_tags != "")
    for mapping in ([[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.5, 1.0]]):
        vertices = mesh.vertices @ np.array(mapping)
        copy = dataclasses.replace(mesh, vertices=vertices)
        built = _build_topology(
            vertices, mesh.triangles, mesh.subdomain, mesh.edges[tagged], mesh.edge_tags[tagged]
        )
        for name in ("areas", "edge_lengths", "h_B", "h_D", "h_Sigma"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(built, name))
        np.testing.assert_array_equal(copy.outward_normals(), built.outward_normals())
        assert not np.array_equal(copy.edge_lengths, mesh.edge_lengths)
        assert copy.h_B != mesh.h_B


def test_generator_input_validation():
    with pytest.raises(ValueError, match="even"):
        small_mesh(nx=3)
    with pytest.raises(ValueError, match="even"):
        small_mesh(nx=0)
    with pytest.raises(ValueError, match="ny_B and ny_D"):
        small_mesh(ny_B=0)
    with pytest.raises(ValueError, match="unknown pattern"):
        small_mesh(pattern="union-jack")
    with pytest.raises(ValueError, match="same x extent"):
        generate_stacked_rect((0, 1, 1, 2), (0, 2, 0, 1), 4, 2, 2)
    with pytest.raises(ValueError, match="on top"):
        generate_stacked_rect((0, 1, 1.5, 2), (0, 1, 0, 1), 4, 2, 2)
    with pytest.raises(ValueError, match="degenerate"):
        generate_stacked_rect((0, 1, 1, 1), (0, 1, 0, 1), 4, 2, 2)


# ---------------------------------------------------------------- interface


@pytest.mark.parametrize("pattern", ["right", "crisscross"])
def test_interface_ordering_and_macro_grid(pattern):
    nx = 6
    mesh = small_mesh(nx=nx, pattern=pattern)
    iface = build_interface(mesh)

    assert iface.num_edges == nx
    assert iface.nodes_x.size - 1 == nx // 2
    assert iface.num_nodes == nx // 2 + 1
    assert iface.y == pytest.approx(0.5)
    np.testing.assert_allclose(iface.normal, [0.0, -1.0])

    # edges sorted left to right and contiguous
    assert np.all(np.diff(iface.x_left) > 0)
    np.testing.assert_allclose(iface.x_right[:-1], iface.x_left[1:], atol=1e-14)
    np.testing.assert_allclose(iface.nodes_x, np.linspace(-0.5, 0.5, nx // 2 + 1), atol=1e-14)

    # each interface edge separates one B and one D triangle, B above
    assert np.all(mesh.subdomain[iface.tri_B] == "B")
    assert np.all(mesh.subdomain[iface.tri_D] == "D")
    cent_B = mesh.vertices[mesh.triangles[iface.tri_B]].mean(axis=1)
    cent_D = mesh.vertices[mesh.triangles[iface.tri_D]].mean(axis=1)
    assert np.all(cent_B[:, 1] > iface.y)
    assert np.all(cent_D[:, 1] < iface.y)


def test_interface_hat_functions_partition_unity():
    iface = build_interface(small_mesh(nx=8))
    x = np.linspace(-0.5, 0.5, 101)
    total = sum(hat_values(iface.nodes_x, x, k) for k in range(iface.num_nodes))
    np.testing.assert_allclose(total, 1.0, atol=1e-14)
    # nodal interpolation property
    for k in range(iface.num_nodes):
        vals = hat_values(iface.nodes_x, iface.nodes_x, k)
        expect = np.zeros(iface.num_nodes)
        expect[k] = 1.0
        np.testing.assert_allclose(vals, expect, atol=1e-14)


# ---------------------------------------------------------------- file I/O


def test_save_load_round_trip(tmp_path):
    mesh = small_mesh(nx=4, ny_B=2, ny_D=3, pattern="crisscross")
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)

    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    np.testing.assert_array_equal(back.subdomain, mesh.subdomain)
    np.testing.assert_array_equal(back.edges, mesh.edges)
    np.testing.assert_array_equal(back.edge_tags, mesh.edge_tags)
    np.testing.assert_array_equal(back.edge_tris, mesh.edge_tris)
    assert back.h_B == mesh.h_B and back.h_D == mesh.h_D and back.h_Sigma == mesh.h_Sigma

    # saving the loaded mesh reproduces the file byte for byte
    again = tmp_path / "again.txt"
    save_mesh(back, again)
    assert again.read_bytes() == path.read_bytes()


def lines_of(mesh, tmp_path):
    path = tmp_path / "m.txt"
    save_mesh(mesh, path)
    return path.read_text().splitlines(), path


def rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_rejects_bad_header(tmp_path):
    lines, path = lines_of(small_mesh(), tmp_path)
    lines[0] = "mesh v999"
    with pytest.raises(MeshFormatError, match="bad header"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_bad_count_line(tmp_path):
    lines, path = lines_of(small_mesh(), tmp_path)
    lines[1] = "1 2"
    with pytest.raises(MeshFormatError, match="three integers"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_truncated_file(tmp_path):
    lines, path = lines_of(small_mesh(), tmp_path)
    with pytest.raises(MeshFormatError, match="expected .* lines"):
        load_mesh(rewrite(path, lines[:-3]))


def test_load_rejects_bad_vertex_line(tmp_path):
    lines, path = lines_of(small_mesh(), tmp_path)
    lines[2] = "0.0 not-a-number"
    with pytest.raises(MeshFormatError, match="two floats"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_bad_subdomain_tag(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    row = 2 + mesh.num_vertices
    lines[row] = lines[row].rsplit(" ", 1)[0] + " X"
    with pytest.raises(MeshFormatError, match="B.D"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_vertex_index_out_of_range(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    row = 2 + mesh.num_vertices
    tok = lines[row].split()
    tok[0] = str(mesh.num_vertices + 7)
    lines[row] = " ".join(tok)
    with pytest.raises(MeshFormatError, match="out of range"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_unknown_edge_tag(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " GB_BELOW"
    with pytest.raises(MeshFormatError, match="edge line"):
        load_mesh(rewrite(path, lines))


@pytest.mark.parametrize(
    "block, edits, message",
    [
        ("triangle", {3: "0 1 x B", 5: "0 1 2 X"}, "triangle line 3: bad vertex index in '0 1 x B'"),
        ("triangle", {3: "0 1 2", 5: "0 1 x B"}, "triangle line 3: expected 'i j k B|D', got '0 1 2'"),
        ("triangle", {2: "0\t1  2 B", 4: "0 1 2 B D"}, "triangle line 4: expected 'i j k B|D'"),
        ("edge", {1: "0 9999 GD_BOTTOM", 4: "0 1"}, "edge line 1: vertex index out of range"),
        ("edge", {1: "0 1 GD_BOTTOM", 4: "0 x GD_BOTTOM"}, "edge line 4: bad vertex index in '0 x GD_BOTTOM'"),
        ("edge", {2: "3 3 GD_BOTTOM"}, "edge line 2: vertex index out of range"),
    ],
)
def test_load_names_the_first_bad_line_of_a_block(tmp_path, block, edits, message):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    start = 2 + mesh.num_vertices + (mesh.num_triangles if block == "edge" else 0)
    for r, text in edits.items():
        lines[start + r] = text
    with pytest.raises(MeshFormatError) as info:
        load_mesh(rewrite(path, lines))
    assert str(info.value).startswith(message)


def test_load_keeps_the_last_tag_of_an_edge_tagged_twice(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    nv, nt, ne = (int(t) for t in lines[1].split())
    i, j, tag = lines[-1].split()
    # The same edge, reversed and with another tag, ahead of its own line.
    lines.insert(2 + nv + nt, f"{j} {i} GB_TOP")
    lines[1] = f"{nv} {nt} {ne + 1}"
    back = load_mesh(rewrite(path, lines))
    for name in ("vertices", "triangles", "subdomain", "edges", "edge_tags", "edge_tris"):
        np.testing.assert_array_equal(getattr(back, name), getattr(mesh, name))


@pytest.mark.parametrize(
    "body", [["0 0 0"], ["3 0 0", "0 0", "1 0", "0 1"]], ids=["empty", "vertices-only"]
)
def test_load_rejects_a_mesh_without_triangles(tmp_path, body):
    with pytest.raises(MeshFormatError, match="NT >= 1"):
        load_mesh(rewrite(tmp_path / "m.txt", ["bfdarcy-mesh v1", *body]))


def test_load_rejects_tag_on_nonexistent_edge(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    # vertices 0 and 2 are two apart on the bottom row, not an edge
    lines[-1] = "0 2 GD_BOTTOM"
    with pytest.raises(MeshFormatError, match="not an edge"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_clockwise_triangle(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    row = 2 + mesh.num_vertices
    tok = lines[row].split()
    lines[row] = " ".join([tok[1], tok[0], tok[2], tok[3]])
    with pytest.raises(MeshConformityError, match="negative area"):
        load_mesh(rewrite(path, lines))


def find_tag_row(lines, mesh, tag):
    first_edge_row = 2 + mesh.num_vertices + mesh.num_triangles
    for r in range(first_edge_row, len(lines)):
        if lines[r].endswith(" " + tag):
            return r
    raise AssertionError(f"no {tag} row")


def test_load_rejects_untagged_boundary_edge(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    row = find_tag_row(lines, mesh, "GD_BOTTOM")
    del lines[row]
    nv, nt, ne = (int(t) for t in lines[1].split())
    lines[1] = f"{nv} {nt} {ne - 1}"
    with pytest.raises(MeshConformityError, match="carries no tag"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_interior_edge_with_boundary_tag(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    interior = np.flatnonzero((mesh.edge_tris[:, 1] >= 0) & (mesh.edge_tags == ""))[0]
    i, j = mesh.edges[interior]
    nv, nt, ne = (int(t) for t in lines[1].split())
    lines.append(f"{i} {j} GB_TOP")
    lines[1] = f"{nv} {nt} {ne + 1}"
    with pytest.raises(MeshConformityError, match="interior edge"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_interface_on_the_boundary(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    row = find_tag_row(lines, mesh, "GD_BOTTOM")
    lines[row] = lines[row].rsplit(" ", 1)[0] + " SIGMA"
    with pytest.raises(MeshConformityError, match="non-matching interface"):
        load_mesh(rewrite(path, lines))


def test_load_rejects_missing_interface(tmp_path):
    mesh = small_mesh()
    lines, path = lines_of(mesh, tmp_path)
    keep = [ln for ln in lines if not ln.endswith(" SIGMA")]
    nv, nt, ne = (int(t) for t in lines[1].split())
    keep[1] = f"{nv} {nt} {ne - mesh.edges_with_tag('SIGMA').size}"
    with pytest.raises(MeshConformityError, match="no interface"):
        load_mesh(rewrite(path, keep))


def test_build_interface_rejects_odd_interface():
    # untag one interface edge: the remaining SIGMA count is odd, which
    # the doubled multiplier grid cannot pair
    mesh = small_mesh(nx=4)
    sig = mesh.edges_with_tag("SIGMA")
    tags = mesh.edge_tags.copy()
    tags[sig[-1]] = ""
    with pytest.raises(MeshConformityError, match="even"):
        build_interface(dataclasses.replace(mesh, edge_tags=tags))


def test_build_interface_rejects_crooked_interface():
    # a mesh whose SIGMA edges are not collinear: tag an interior edge of
    # the B region as SIGMA (a boundary edge is rejected as one-sided)
    mesh = small_mesh(nx=4)
    tags = mesh.edge_tags.copy()
    interior_B = (mesh.edge_tris[:, 1] >= 0) & (mesh.subdomain[mesh.edge_tris[:, 0]] == "B")
    tags[np.flatnonzero(interior_B & (tags == ""))[0]] = "SIGMA"
    tags[mesh.edges_with_tag("SIGMA")[0]] = ""
    with pytest.raises(MeshConformityError, match="horizontal"):
        build_interface(dataclasses.replace(mesh, edge_tags=tags))


def test_build_interface_rejects_an_interface_on_the_boundary():
    # The bottom edges tagged SIGMA form an even, straight, contiguous
    # segment, and with the D triangles first the missing neighbour (-1)
    # of each would index the last triangle, a B triangle above them.
    mesh = generate_stacked_rect((0, 1, 0, 1), (0, 1, -1, 0), 2, 1, 1)
    order = np.argsort(mesh.subdomain != "D", kind="stable")
    tags = mesh.edge_tags.copy()
    tags[tags == "SIGMA"] = ""
    tags[tags == "GD_BOTTOM"] = "SIGMA"
    kept = tags != ""
    moved = _build_topology(
        mesh.vertices, mesh.triangles[order], mesh.subdomain[order], mesh.edges[kept], tags[kept]
    )
    assert moved.subdomain[-1] == "B"
    with pytest.raises(MeshConformityError, match="non-matching interface"):
        build_interface(moved)
