"""Interface curve, normal-field basis, and elasticity extension into the
hold-all.

The interface polygon is recovered from the mesh's region-contrast edges and
parametrized by arc length from the lexicographically smallest vertex. The k
basis fields are one block throughout: a (k, n_vertices) array of normal
amplitudes (Gaussian bumps of the arc-length geodesic distance plus one
constant field) on the interface, extended to one (k, n_nodes, 2)
`VelocityField` on the hold-all closure by one linear elasticity problem with
zero Dirichlet data on the hold-all boundary: one matrix, one block of
right-hand sides, one row per field. The shape metric is the integral of the
gradient contraction of two extended fields over the hold-all, taken from the
(k, e, 2, 2) block of element Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CentersOutOfRange,
    DisconnectedGraph,
    MultipleLoops,
    OpenLoop,
)
from .mesh import Mesh, _polygon_area, p1_elasticity, p1_gradients
from .numerics import cg_solve, dirichlet_blocks

LAME_LAMBDA_DEFAULT = 0.01
LAME_MU_DEFAULT = 0.495
SLOPE_DEFAULT = 100.0


@dataclass
class InterfaceCurve:
    """Closed interface loop with arc-length parameters and outward normals."""

    mesh: Mesh
    vertices: np.ndarray      # ordered node ids, start = lexicographic minimum
    arc: np.ndarray           # arc-length parameter per vertex, arc[0] = 0
    normals: np.ndarray       # unit outward normals (inclusion -> bulk)
    length: float

    def coords(self):
        return self.mesh.nodes[self.vertices]


@dataclass
class VelocityField:
    """Block of k nodal displacement fields supported on the hold-all
    closure."""

    mesh: Mesh
    values: np.ndarray        # (k, n_nodes, 2)
    support: np.ndarray       # element ids carrying the fields


def interface_from_mesh(mesh: Mesh) -> InterfaceCurve:
    """Extract the closed interface loop between inclusion and bulk.

    Raises OpenLoop when interface edges do not close and MultipleLoops for
    more than one component. The loop is oriented counter-clockwise around
    the inclusion and starts at the lexicographically smallest vertex.
    """
    segs = mesh.seg_nodes[mesh.seg_kind == "interface"]
    if len(segs) == 0:
        raise OpenLoop("mesh has no interface edges")
    neighbors = {}
    for u, v in segs:
        neighbors.setdefault(int(u), []).append(int(v))
        neighbors.setdefault(int(v), []).append(int(u))
    if any(len(adj) != 2 for adj in neighbors.values()):
        raise OpenLoop("interface edges do not form a closed loop")

    start = min(neighbors, key=lambda i: (mesh.nodes[i, 0], mesh.nodes[i, 1]))
    loop = [start]
    prev, cur = None, start
    while True:
        a, b = neighbors[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
    if len(loop) != len(neighbors):
        raise MultipleLoops("interface has more than one closed loop")

    vertices = np.asarray(loop, dtype=int)
    pts = mesh.nodes[vertices]
    if _polygon_area(pts) < 0.0:
        vertices = np.concatenate([[vertices[0]], vertices[1:][::-1]])
        pts = mesh.nodes[vertices]

    diffs = np.roll(pts, -1, axis=0) - pts
    seg_len = np.hypot(diffs[:, 0], diffs[:, 1])
    arc = np.concatenate([[0.0], np.cumsum(seg_len[:-1])])
    length = float(seg_len.sum())

    # vertex normal: mean of the two adjacent edge normals (CCW loop ->
    # outward normal of edge d is (d_y, -d_x))
    edge_normals = np.column_stack([diffs[:, 1], -diffs[:, 0]])
    edge_normals /= np.linalg.norm(edge_normals, axis=1, keepdims=True)
    vertex_normals = edge_normals + np.roll(edge_normals, 1, axis=0)
    vertex_normals /= np.linalg.norm(vertex_normals, axis=1, keepdims=True)

    return InterfaceCurve(mesh=mesh, vertices=vertices, arc=arc,
                          normals=vertex_normals, length=length)


def wraparound_distance(r, centers, length):
    """Arc-length geodesic distance on a closed loop, min(|r-c|, L-|r-c|)."""
    d = np.abs(np.subtract.outer(r, centers))
    return np.minimum(d, length - d)


def gaussian_bump_basis(curve: InterfaceCurve, n_basis: int,
                        slope: float = SLOPE_DEFAULT, centers=None):
    """Normal amplitudes of the bumps exp(-slope * d(r, r_i)^2) plus one
    constant field, one row per field: (n_basis, n_vertices).

    `centers` lists the arc-length positions of the n_basis - 1 bumps;
    omitted centers default to equidistant positions starting at 0.
    """
    if n_basis < 1:
        raise ValueError("need at least one basis field")
    if centers is None:
        centers = [i * curve.length / (n_basis - 1) for i in range(n_basis - 1)] \
            if n_basis > 1 else []
    centers = np.asarray(centers, dtype=float)
    if len(centers) != n_basis - 1:
        raise ValueError(f"expected {n_basis - 1} centers, got {len(centers)}")
    if len(centers) and (centers.min() < 0.0 or centers.max() >= curve.length):
        raise CentersOutOfRange(f"centers must lie in [0, {curve.length})")
    if slope <= 0.0:
        raise ValueError("slope factor must be positive")

    d = wraparound_distance(centers, curve.arc, curve.length)
    return np.vstack([np.exp(-slope * d * d), np.ones(len(curve.vertices))])


def graph_geodesics(arg):
    """All-pairs shortest path distances via scipy's Floyd-Warshall.

    Accepts an InterfaceCurve (loop graph weighted by segment length) or a
    tuple (n_nodes, edges) with edges (i, j, weight). Raises
    DisconnectedGraph when some pair is unreachable.
    """
    if isinstance(arg, InterfaceCurve):
        pts = arg.coords()
        n = len(pts)
        d = np.roll(pts, -1, axis=0) - pts
        w = np.hypot(d[:, 0], d[:, 1])
        edges = [(i, (i + 1) % n, w[i]) for i in range(n)]
    else:
        n, edges = arg
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j, w in edges:
        if w <= 0.0:
            raise ValueError("edge weights must be positive")
        dist[i, j] = min(dist[i, j], w)
        dist[j, i] = min(dist[j, i], w)
    # lazy: csgraph adds ~2.7 MB of peak RSS to runs that never use it
    from scipy.sparse.csgraph import floyd_warshall
    dist = floyd_warshall(dist, directed=False)
    if np.isinf(dist).any():
        raise DisconnectedGraph("graph has unreachable node pairs")
    return dist


def farthest_point_centers(dist, n_centers, seed=0):
    """Greedy center set maximizing the minimum pairwise distance.

    Starting from {seed}, repeatedly adds the point maximizing the minimum
    pairwise distance of the augmented set; ties break to the lowest vertex
    id, so the result is deterministic.
    """
    n = dist.shape[0]
    if n_centers > n:
        raise ValueError("more centers than graph nodes")
    chosen = [int(seed)]
    min_pairwise = math.inf
    min_to_set = dist[seed].copy()
    for _ in range(n_centers - 1):
        candidate_score = np.minimum(min_to_set, min_pairwise)
        candidate_score[chosen] = -math.inf
        best = int(np.argmax(candidate_score))
        min_pairwise = min(min_pairwise, float(min_to_set[best]))
        chosen.append(best)
        np.minimum(min_to_set, dist[best], out=min_to_set)
    return chosen


def extend_velocity(mesh: Mesh, curve: InterfaceCurve, amplitudes,
                    lam: float = LAME_LAMBDA_DEFAULT,
                    mu: float = LAME_MU_DEFAULT,
                    tol: float = 1e-10) -> VelocityField:
    """Extend normal fields on the interface into the hold-all by linear
    elasticity; `amplitudes` holds one row of normal amplitudes per field.

    Dirichlet data: amplitude times vertex normal on the interface, zero on
    the hold-all boundary. The fields are zero outside the hold-all closure.
    The elasticity matrix is assembled once and all right-hand sides go to
    one block `cg_solve` call.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    k = len(amplitudes)
    if k == 0:
        raise ValueError("no fields given")
    support = mesh.holdall_closure
    values = np.zeros((k, len(mesh.nodes), 2))
    values[:, curve.vertices] = amplitudes[:, :, None] * curve.normals

    holdall_nodes = mesh.seg_nodes[mesh.seg_kind == "holdall"].ravel()
    fixed_nodes = np.unique(np.concatenate([curve.vertices, holdall_nodes]))
    tris = mesh.triangles[support]
    free_nodes = np.setdiff1d(np.unique(tris), fixed_nodes)
    if len(free_nodes):
        g, area = p1_gradients(mesh.nodes, tris)
        free = np.column_stack([2 * free_nodes, 2 * free_nodes + 1]).ravel()
        fixed = np.column_stack([2 * fixed_nodes, 2 * fixed_nodes + 1]).ravel()
        a_ff, a_fc = dirichlet_blocks(p1_elasticity(tris, g, area, lam, mu, len(mesh.nodes)),
                                      free, fixed)
        flat = values.reshape(k, -1)
        rhs = (-a_fc @ flat[:, fixed].T).T
        flat[:, free] = cg_solve(a_ff, rhs, tol=tol)
    return VelocityField(mesh, values, support)


def velocity_gradients(fields: VelocityField):
    """Element-wise Jacobians DV (constant per element) of every field on the
    support, (k, e, 2, 2), with the support's P1 gradients and areas."""
    mesh = fields.mesh
    tris = mesh.triangles[fields.support]
    g, area = p1_gradients(mesh.nodes, tris)
    v = fields.values[:, tris]                   # (k, e, 3, 2)
    jac = np.einsum("keia,eib->keab", v, g)      # DV[a,b] = dV_a / dx_b
    return jac, g, area


def gramian(fields: VelocityField):
    """Shape-metric Gramian B_ij = integral over the hold-all of
    grad V_i : grad V_j, assembled element-wise."""
    jac, _, areas = velocity_gradients(fields)
    n = len(jac)
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            val = float(np.sum(areas * np.einsum("eab,eab->e", jac[i], jac[j])))
            b[i, j] = val
            b[j, i] = val
    return b
