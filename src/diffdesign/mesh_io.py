"""Mesh file writers: Gmsh MSH 2.2 ASCII subset and VTK legacy ASCII.

Physical ids written to MSH files:

    triangles: 1 plain bulk, 2 inclusion, 3 hold-all annulus, 100+k sensor k
    lines:     11 dirichlet, 12 interface, 13 hold-all boundary, 19 neumann
               (zero-flux outer edge), 20+i robin span i, 30+k sensor k edge

A triangle in several sets takes the last id in the order bulk, annulus,
sensor 0, 1, ..., inclusion. VTK files of one mesh share its grid text
(points, cells, regions): `vtk_grid` formats it once, `write_vtk` adds a
title and point data per file.

Floats are written with ``repr`` (shortest round-trip), so identical meshes
produce byte-identical files.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .mesh import Mesh

_TRI_BULK = 1
_TRI_INCLUSION = 2
_TRI_ANNULUS = 3
_TRI_SENSOR_BASE = 100

_LINE_FIXED = {"dirichlet": 11, "interface": 12, "holdall": 13, "neumann": 19}
_LINE_ROBIN_BASE = 20
_LINE_SENSOR_BASE = 30


def _fmt(x):
    return repr(float(x))


def _floats(values):
    """Python floats from ``tolist()``: their ``repr`` is the text `_fmt`
    gives, without a numpy scalar per value."""
    return np.asarray(values, dtype=float).tolist()


def _line_physical(kind, ref):
    if kind == "robin":
        return _LINE_ROBIN_BASE + ref
    if kind == "sensor":
        return _LINE_SENSOR_BASE + ref
    if kind not in _LINE_FIXED:
        raise ValueError(f"unknown segment kind {kind!r}")
    return _LINE_FIXED[kind]


def write_msh(mesh: Mesh, path):
    """Write the mesh in Gmsh MSH 2.2 ASCII format."""
    tri_phys = np.full(len(mesh.triangles), _TRI_BULK)
    tri_phys[mesh.holdall_annulus] = _TRI_ANNULUS
    for k, elems in enumerate(mesh.sensor_elements):
        tri_phys[elems] = _TRI_SENSOR_BASE + k
    tri_phys[mesh.regions == 1] = _TRI_INCLUSION

    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(mesh.nodes))]
    lines.extend(f"{i} {x!r} {y!r} 0.0" for i, (x, y) in enumerate(_floats(mesh.nodes), start=1))
    lines.append("$EndNodes")

    n_seg = len(mesh.seg_nodes)
    lines += ["$Elements", str(n_seg + len(mesh.triangles))]
    for eid, ((u, v), kind, ref) in enumerate(
            zip(mesh.seg_nodes.tolist(), mesh.seg_kind, mesh.seg_ref.tolist()), start=1):
        phys = _line_physical(str(kind), ref)
        lines.append(f"{eid} 1 2 {phys} {phys} {u + 1} {v + 1}")
    for eid, ((a, b, c), phys) in enumerate(
            zip(mesh.triangles.tolist(), tri_phys.tolist()), start=n_seg + 1):
        lines.append(f"{eid} 2 2 {phys} {phys} {a + 1} {b + 1} {c + 1}")
    lines.append("$EndElements")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


#: the text of a VTK file that depends on the mesh alone: the DATASET line
#: through the CELL_TYPES block, the region CELL_DATA block, the point count
VtkGrid = namedtuple("VtkGrid", "dataset cell_data n_points")


def vtk_grid(mesh: Mesh) -> VtkGrid:
    """Format the dataset and region blocks of `mesh` for `write_vtk`."""
    n = len(mesh.nodes)
    m = len(mesh.triangles)
    dataset = ["DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    dataset.extend(f"{x!r} {y!r} 0.0" for x, y in _floats(mesh.nodes))
    dataset.append(f"CELLS {m} {4 * m}")
    dataset.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist())
    dataset.append(f"CELL_TYPES {m}")
    dataset.extend(["5"] * m)
    cells = [f"CELL_DATA {m}", "SCALARS region int 1", "LOOKUP_TABLE default"]
    cells.extend(map(str, np.asarray(mesh.regions, dtype=int).tolist()))
    return VtkGrid("\n".join(dataset) + "\n", "\n".join(cells) + "\n", n)


def write_vtk(grid: VtkGrid, fields, path, title="diffdesign"):
    """Write a legacy ASCII VTK unstructured grid with point data.

    `grid` comes from `vtk_grid`. `fields` maps names to nodal arrays:
    shape (n,) scalars or (n, 2) vectors (padded with a zero z component).
    Triangle regions are written as cell data.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n{grid.dataset}")
        if fields:
            fh.write(f"POINT_DATA {grid.n_points}\n")
        for name, values in fields.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write("".join(f"{v!r}\n" for v in values.tolist()))
            else:
                fh.write(f"VECTORS {name} double\n")
                fh.write("".join(f"{v[0]!r} {v[1]!r} 0.0\n" for v in values.tolist()))
        fh.write(grid.cell_data)
