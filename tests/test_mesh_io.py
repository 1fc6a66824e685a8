import numpy as np
import pytest

from diffdesign import mesh, mesh_io
from diffdesign.errors import ParseError, UnsupportedVersion

MINIMAL_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 1.0 1.0 0.0
4 0.0 1.0 0.0
$EndNodes
$Elements
3
1 1 2 11 11 4 3
2 2 2 1 1 1 2 3
3 2 2 1 1 1 3 4
$EndElements
"""


@pytest.fixture(scope="module")
def small_mesh():
    spec = mesh.GeometrySpec(
        spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
        robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
        h=0.1,
    )
    return mesh.build_mesh(spec)


def test_minimal_fixture(tmp_path):
    path = tmp_path / "two_tri.msh"
    path.write_text(MINIMAL_MSH)
    m = mesh_io.load_msh(path)
    assert len(m.nodes) == 4
    assert len(m.triangles) == 2
    assert list(m.seg_kind) == ["dirichlet"]


def test_vtk_header(tmp_path, small_mesh):
    path = tmp_path / "mesh.vtk"
    mesh_io.write_vtk(small_mesh, {"u": np.zeros(len(small_mesh.nodes))}, path)
    first = path.read_text().splitlines()[0]
    assert first == "# vtk DataFile Version 3.0"


def test_vtk_vector_field(tmp_path, small_mesh):
    path = tmp_path / "field.vtk"
    v = np.ones((len(small_mesh.nodes), 2))
    mesh_io.write_vtk(small_mesh, {"velocity": v}, path)
    text = path.read_text()
    assert "VECTORS velocity double" in text
    assert f"POINT_DATA {len(small_mesh.nodes)}" in text


def test_msh_roundtrip(tmp_path, small_mesh):
    path = tmp_path / "mesh.msh"
    mesh_io.write_msh(small_mesh, path)
    loaded = mesh_io.load_msh(path, robin_betas={0: 10.0})
    assert len(loaded.nodes) == len(small_mesh.nodes)
    assert len(loaded.triangles) == len(small_mesh.triangles)
    assert np.array_equal(loaded.regions, small_mesh.regions)
    assert np.array_equal(np.sort(loaded.seg_kind), np.sort(small_mesh.seg_kind))
    for name in small_mesh.patches:
        assert np.array_equal(np.sort(loaded.patches[name]), np.sort(small_mesh.patches[name]))
    robin = loaded.seg_beta[loaded.seg_kind == "robin"]
    assert set(robin.tolist()) == {0.0, 10.0}


def test_roundtrip_deterministic(tmp_path, small_mesh):
    p1 = tmp_path / "a.msh"
    p2 = tmp_path / "b.msh"
    mesh_io.write_msh(small_mesh, p1)
    mesh_io.write_msh(small_mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unsupported_version(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text(MINIMAL_MSH.replace("2.2 0 8", "4.1 0 8"))
    with pytest.raises(UnsupportedVersion):
        mesh_io.load_msh(path)


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "trunc.msh"
    path.write_text(MINIMAL_MSH.replace("1 0.0 0.0 0.0", "1 garbage"))
    with pytest.raises(ParseError) as err:
        mesh_io.load_msh(path)
    assert err.value.line == 6


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


def test_vtk_text_matches_fmt(tmp_path, awkward_mesh):
    scalar = np.array(AWKWARD[:4])
    vector = np.array(AWKWARD[2:] + AWKWARD[:2]).reshape(-1, 1) * [1.0, -1.0]
    path = tmp_path / "awkward.vtk"
    mesh_io.write_vtk(awkward_mesh, {"s": scalar, "v": vector}, path)
    fmt = mesh_io._fmt
    expected = (
        ["# vtk DataFile Version 3.0", "diffdesign", "ASCII",
         "DATASET UNSTRUCTURED_GRID", "POINTS 4 double"]
        + [f"{fmt(x)} {fmt(y)} 0.0" for x, y in awkward_mesh.nodes]
        + ["CELLS 2 8", "3 0 1 2", "3 0 2 3", "CELL_TYPES 2", "5", "5",
           "POINT_DATA 4", "SCALARS s double 1", "LOOKUP_TABLE default"]
        + [fmt(v) for v in scalar]
        + ["VECTORS v double"]
        + [f"{fmt(x)} {fmt(y)} 0.0" for x, y in vector]
        + ["CELL_DATA 2", "SCALARS region int 1", "LOOKUP_TABLE default", "0", "1"]
    )
    assert path.read_text() == "\n".join(expected) + "\n"
    assert "-0.0" in expected and "1e-300" in expected and "1e+16" in expected


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
