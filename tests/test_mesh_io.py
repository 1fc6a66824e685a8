import hashlib

import numpy as np
import pytest

from diffdesign import config, mesh, mesh_io

from test_cli import FAST_CONFIG


@pytest.fixture(scope="module")
def small_mesh():
    spec = mesh.GeometrySpec(
        spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
        robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
        h=0.1,
    )
    return mesh.build_mesh(spec)


def test_vtk_header(tmp_path, small_mesh):
    path = tmp_path / "mesh.vtk"
    mesh_io.write_vtk(mesh_io.vtk_grid(small_mesh), {"u": np.zeros(len(small_mesh.nodes))}, path)
    first = path.read_text().splitlines()[0]
    assert first == "# vtk DataFile Version 3.0"


def test_vtk_vector_field(tmp_path, small_mesh):
    path = tmp_path / "field.vtk"
    v = np.ones((len(small_mesh.nodes), 2))
    mesh_io.write_vtk(mesh_io.vtk_grid(small_mesh), {"velocity": v}, path)
    text = path.read_text()
    assert "VECTORS velocity double" in text
    assert f"POINT_DATA {len(small_mesh.nodes)}" in text


def test_msh_roundtrip(tmp_path, small_mesh):
    # every written element carries the connectivity and the physical id of
    # its tags (ids as documented in mesh_io)
    path = tmp_path / "mesh.msh"
    mesh_io.write_msh(small_mesh, path)
    lines = path.read_text().splitlines()
    assert lines[4] == str(len(small_mesh.nodes))
    start = lines.index("$Elements")
    n_elem = int(lines[start + 1])
    assert lines[start + 2 + n_elem] == "$EndElements"
    rows = [[int(f) for f in line.split()]
            for line in lines[start + 2:start + 2 + n_elem]]
    segs = np.array([r for r in rows if r[1] == 1], dtype=int)
    tris = np.array([r for r in rows if r[1] == 2], dtype=int)
    assert len(segs) + len(tris) == n_elem
    assert np.array_equal(segs[:, 5:] - 1, small_mesh.seg_nodes)
    assert np.array_equal(tris[:, 5:] - 1, small_mesh.triangles)

    tri_phys = tris[:, 3]
    assert np.array_equal(tri_phys == 2, small_mesh.regions == 1)
    assert np.array_equal(np.flatnonzero(tri_phys == 3), small_mesh.holdall_annulus)
    assert np.array_equal(np.flatnonzero((tri_phys == 2) | (tri_phys == 3)),
                          small_mesh.holdall_closure)
    for k, elems in enumerate(small_mesh.sensor_elements):
        assert np.array_equal(np.flatnonzero(tri_phys == 100 + k), elems)

    fixed = {"dirichlet": 11, "interface": 12, "holdall": 13, "neumann": 19}
    for phys, kind, ref in zip(segs[:, 3], small_mesh.seg_kind, small_mesh.seg_ref):
        if kind == "robin":
            assert phys == 20 + ref
        elif kind == "sensor":
            assert phys == 30 + ref
        else:
            assert phys == fixed[kind]
    betas = small_mesh.seg_beta
    assert set(betas[segs[:, 3] == 20].tolist()) == {10.0}
    assert set(betas[segs[:, 3] == 19].tolist()) == {0.0}


def test_roundtrip_deterministic(tmp_path, small_mesh):
    p1 = tmp_path / "a.msh"
    p2 = tmp_path / "b.msh"
    mesh_io.write_msh(small_mesh, p1)
    mesh_io.write_msh(small_mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


# values whose text is easy to get wrong: signed zero, subnormal-range,
# inexact decimal and large magnitudes
AWKWARD = [-0.0, 1e-300, 0.1, 1e16, -2.5, 1.0 / 3.0]


@pytest.fixture
def awkward_mesh():
    nodes = np.array([[0.0, -0.0], [1e-300, 0.1], [1e16, 1.0 / 3.0], [0.1, 1e16]])
    return mesh.Mesh(
        nodes=nodes,
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        regions=np.array([0, 1]),
        seg_nodes=np.array([[0, 1]]),
        seg_kind=np.array(["dirichlet"], dtype="U9"),
        seg_ref=np.array([-1]),
        seg_beta=np.array([0.0]),
    )


def awkward_vtk(awkward_mesh, point_data, title="diffdesign"):
    """Full text of a VTK file on `awkward_mesh` with the given point data lines."""
    fmt = mesh_io._fmt
    return "\n".join(
        ["# vtk DataFile Version 3.0", title, "ASCII",
         "DATASET UNSTRUCTURED_GRID", "POINTS 4 double"]
        + [f"{fmt(x)} {fmt(y)} 0.0" for x, y in awkward_mesh.nodes]
        + ["CELLS 2 8", "3 0 1 2", "3 0 2 3", "CELL_TYPES 2", "5", "5"]
        + point_data
        + ["CELL_DATA 2", "SCALARS region int 1", "LOOKUP_TABLE default", "0", "1"]
    ) + "\n"


def test_vtk_text_matches_fmt(tmp_path, awkward_mesh):
    scalar = np.array(AWKWARD[:4])
    vector = np.array(AWKWARD[2:] + AWKWARD[:2]).reshape(-1, 1) * [1.0, -1.0]
    path = tmp_path / "awkward.vtk"
    mesh_io.write_vtk(mesh_io.vtk_grid(awkward_mesh), {"s": scalar, "v": vector}, path)
    fmt = mesh_io._fmt
    point_data = (
        ["POINT_DATA 4", "SCALARS s double 1", "LOOKUP_TABLE default"]
        + [fmt(v) for v in scalar]
        + ["VECTORS v double"]
        + [f"{fmt(x)} {fmt(y)} 0.0" for x, y in vector]
    )
    expected = awkward_vtk(awkward_mesh, point_data)
    assert path.read_text() == expected
    lines = expected.splitlines()
    assert "-0.0" in lines and "1e-300" in lines and "1e+16" in lines


def test_one_grid_serves_several_files(tmp_path, awkward_mesh):
    # the grid is formatted once; every file written from it carries it
    # unchanged, whatever its title and fields
    grid = mesh_io.vtk_grid(awkward_mesh)
    scalar = np.array(AWKWARD[:4])
    vector = np.array(AWKWARD[2:] + AWKWARD[:4]).reshape(4, 2)
    mesh_io.write_vtk(grid, {"u": scalar}, tmp_path / "a.vtk", title="t=0.1")
    mesh_io.write_vtk(grid, {"velocity": vector}, tmp_path / "b.vtk")
    fmt = mesh_io._fmt
    assert (tmp_path / "a.vtk").read_text() == awkward_vtk(
        awkward_mesh,
        ["POINT_DATA 4", "SCALARS u double 1", "LOOKUP_TABLE default"]
        + [fmt(v) for v in scalar],
        title="t=0.1")
    assert (tmp_path / "b.vtk").read_text() == awkward_vtk(
        awkward_mesh,
        ["POINT_DATA 4", "VECTORS velocity double"]
        + [f"{fmt(x)} {fmt(y)} 0.0" for x, y in vector])


@pytest.mark.parametrize("payload, vtk_digest, msh_digest", [
    (FAST_CONFIG,
     "f18c0f8f63882f9a51eeaf558570e4a0d9afd6ae6ef64de361115a2f7b643e06",
     "a375a1f4490d905b56a24ab7ff85bb20233a73b2331e1cb21ec1dc73ee60a858"),
    ({"geometry": {"h": 0.09}},
     "5d2d011a80896209d42c3bd3109dc1453ad044b8c0079845455c2e1e8021a845",
     "8eb405dc198b9547eb7006ea71d13ca5bbb9389c08879dd324db0165990fb367"),
], ids=["fast", "default-h0.09"])
def test_mesh_files_pinned(tmp_path, payload, vtk_digest, msh_digest):
    # mesh.vtk and mesh.msh depend on the mesher and these writers only
    m = mesh.build_mesh(config.load_config(payload).geometry)
    mesh_io.write_vtk(mesh_io.vtk_grid(m), {}, tmp_path / "mesh.vtk")
    mesh_io.write_msh(m, tmp_path / "mesh.msh")
    assert hashlib.sha256((tmp_path / "mesh.vtk").read_bytes()).hexdigest() == vtk_digest
    assert hashlib.sha256((tmp_path / "mesh.msh").read_bytes()).hexdigest() == msh_digest


def test_msh_nodes_match_fmt(tmp_path, awkward_mesh):
    path = tmp_path / "awkward.msh"
    mesh_io.write_msh(awkward_mesh, path)
    fmt = mesh_io._fmt
    expected = ["$Nodes", "4"] + [
        f"{i} {fmt(x)} {fmt(y)} 0.0"
        for i, (x, y) in enumerate(awkward_mesh.nodes, start=1)] + ["$EndNodes"]
    lines = path.read_text().splitlines()
    assert lines[3:3 + len(expected)] == expected
    assert lines[5] == "1 0.0 -0.0 0.0"
