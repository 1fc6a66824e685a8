"""Mesh file writers: Gmsh MSH 2.2 ASCII subset and VTK legacy ASCII.

Physical ids written to MSH files:

    triangles: 1 plain bulk, 2 inclusion, 3 hold-all annulus, 100+k sensor k
    lines:     11 dirichlet, 12 interface, 13 hold-all boundary,
               19 robin (default beta), 20+i robin span i, 30+k sensor k edge

Floats are written with ``repr`` (shortest round-trip), so identical meshes
produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

_TRI_BULK = 1
_TRI_INCLUSION = 2
_TRI_ANNULUS = 3
_TRI_SENSOR_BASE = 100

_LINE_DIRICHLET = 11
_LINE_INTERFACE = 12
_LINE_HOLDALL = 13
_LINE_ROBIN_DEFAULT = 19
_LINE_ROBIN_BASE = 20
_LINE_SENSOR_BASE = 30


def _fmt(x):
    return repr(float(x))


def _floats(values):
    """Python floats from ``tolist()``: their ``repr`` is the text `_fmt`
    gives, without a numpy scalar per value."""
    return np.asarray(values, dtype=float).tolist()


def _line_physical(kind, ref):
    if kind == "dirichlet":
        return _LINE_DIRICHLET
    if kind == "interface":
        return _LINE_INTERFACE
    if kind == "holdall":
        return _LINE_HOLDALL
    if kind == "robin":
        return _LINE_ROBIN_DEFAULT if ref < 0 else _LINE_ROBIN_BASE + ref
    if kind == "sensor":
        return _LINE_SENSOR_BASE + ref
    raise ValueError(f"unknown segment kind {kind!r}")


def write_msh(mesh: Mesh, path):
    """Write the mesh in Gmsh MSH 2.2 ASCII format."""
    annulus = set(mesh.patches.get("holdall", np.empty(0, dtype=int)).tolist())
    sensor_of = {}
    for name, elems in mesh.patches.items():
        if name.startswith("sensor:"):
            k = int(name.split(":", 1)[1])
            for t in elems.tolist():
                sensor_of[t] = k

    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(mesh.nodes))]
    for i, (x, y) in enumerate(_floats(mesh.nodes), start=1):
        lines.append(f"{i} {x!r} {y!r} 0.0")
    lines.append("$EndNodes")

    n_elem = len(mesh.seg_nodes) + len(mesh.triangles)
    lines.append("$Elements")
    lines.append(str(n_elem))
    eid = 1
    for (u, v), kind, ref in zip(mesh.seg_nodes, mesh.seg_kind, mesh.seg_ref):
        phys = _line_physical(str(kind), int(ref))
        lines.append(f"{eid} 1 2 {phys} {phys} {u + 1} {v + 1}")
        eid += 1
    for t, (a, b, c) in enumerate(mesh.triangles):
        if mesh.regions[t] == 1:
            phys = _TRI_INCLUSION
        elif t in sensor_of:
            phys = _TRI_SENSOR_BASE + sensor_of[t]
        elif t in annulus:
            phys = _TRI_ANNULUS
        else:
            phys = _TRI_BULK
        lines.append(f"{eid} 2 2 {phys} {phys} {a + 1} {b + 1} {c + 1}")
        eid += 1
    lines.append("$EndElements")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk(mesh: Mesh, fields, path, title="diffdesign"):
    """Write a legacy ASCII VTK unstructured grid with point data.

    `fields` maps names to nodal arrays: shape (n,) scalars or (n, 2)
    vectors (padded with a zero z component). Triangle regions are written
    as cell data.
    """
    n = len(mesh.nodes)
    m = len(mesh.triangles)
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    out.extend(f"{x!r} {y!r} 0.0" for x, y in _floats(mesh.nodes))
    out.append(f"CELLS {m} {4 * m}")
    out.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist())
    out.append(f"CELL_TYPES {m}")
    out.extend(["5"] * m)

    if fields:
        out.append(f"POINT_DATA {n}")
        for name, values in fields.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out.extend(map(repr, values.tolist()))
            else:
                out.append(f"VECTORS {name} double")
                out.extend(f"{v[0]!r} {v[1]!r} 0.0" for v in values.tolist())
    out.append(f"CELL_DATA {m}")
    out.append("SCALARS region int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(map(str, np.asarray(mesh.regions, dtype=int).tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
