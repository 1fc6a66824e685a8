"""Conforming triangulations of the unit square with tagged subdomains.

The generator is an incremental Bowyer-Watson triangulator with constrained
edges and Ruppert-style refinement. It makes the mesh conform to the input
segments by splitting alone: a segment missing from the first triangulation
is split at its midpoint until its pieces are edges. Then triangles below
the angle bound or above the target edge length are split at their
circumcenters, and constrained segments whose diametral circle is
encroached are split at their midpoints. All processing orders are fixed by
creation index, so the same input always yields the same mesh.

Every constrained edge records its source, the input polyline it came from,
and both halves of a split inherit it, so segment tags are read from the
input, not guessed from geometry. Crossings are checked on the input
segments, never on the triangulation's edges.

Adjacency is one map from each directed edge to its counter-clockwise
triangle, and each predicate (orientation, proper crossing, diametral-circle
encroachment) has one function, taking points or coordinate arrays.

Tagged entities:
  triangle regions  -> `regions`: bulk / inclusion (centroid-in-polygon test)
  boundary segments -> `seg_kind`: dirichlet, robin (`seg_beta`, span index in
                       `seg_ref`), neumann (zero-flux), holdall, sensor (box
                       index in `seg_ref`), interface; consumers use masks
  element sets      -> `sensor_elements` (one per sensor box, in box order),
                       `holdall_annulus`, `holdall_closure` (centroid-in-box)
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConstraintCrossing, DegenerateInput, RefinementBudgetExceeded

_MERGE_TOL = 1e-12
_ON_TOL = 1e-9
THETA_MIN = 20.0  # degrees; Ruppert's termination proof covers up to ~20.7

#: side of the unit square -> (index of the coordinate fixed on it, its value)
SIDES = {"top": (1, 1.0), "bottom": (1, 0.0), "left": (0, 0.0), "right": (0, 1.0)}


def _orient(a, b, c):
    """Twice the signed area of triangle (a, b, c); positive when CCW.

    Coordinates are indexed ``[0]``/``[1]``, so a, b, c may be points or
    (2, n) coordinate arrays of n triangles.
    """
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _circumcenter(a, b, c):
    d = 2.0 * _orient(a, b, c)
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy)


def _in_circumcircle(a, b, c, p):
    """Positive when p is inside the circumcircle of CCW triangle (a,b,c)."""
    adx, ady = a[0] - p[0], a[1] - p[1]
    bdx, bdy = b[0] - p[0], b[1] - p[1]
    cdx, cdy = c[0] - p[0], c[1] - p[1]
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (adx * (bdy * cd - bd * cdy)
           - ady * (bdx * cd - bd * cdx)
           + ad * (bdx * cdy - bdy * cdx))
    scale = max(ad, bd, cd, 1e-30)
    return det / scale


def _segments_cross(p1, p2, q1, q2):
    """True where segments p1p2 and q1q2 intersect in both interiors; the
    end points may be points or broadcasting coordinate arrays."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    eps = 1e-14
    return (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & \
           (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))


def _encroaches(p, u, v):
    """True where p lies inside the diametral circle of segment uv, i.e.
    sees it at an obtuse angle; p, u, v may be points or (2, s) arrays."""
    return (p[0] - u[0]) * (p[0] - v[0]) + (p[1] - u[1]) * (p[1] - v[1]) < -1e-14


def _edge_key(u, v):
    return (u, v) if u < v else (v, u)


class Triangulation:
    """Incremental triangulation with constrained edges.

    Points are immutable once inserted; triangles are keyed by creation id
    and extracted in id order, which makes every derived mesh deterministic.
    Adjacency is one map, `tri_at`, from each directed edge (u, v) to the
    counter-clockwise triangle that holds u -> v; the neighbour across that
    edge is the owner of (v, u), and a hull edge has no such twin.
    """

    def __init__(self):
        self.points = []
        self.tri_v = {}
        self.tri_at = {}             # directed edge -> triangle id
        self.constrained = {}        # edge key -> source polyline index
        self._next_tri = 0
        self._hint = None
        self._super = ()

    # -- structure bookkeeping ------------------------------------------

    def _create(self, a, b, c):
        pa, pb, pc = self.points[a], self.points[b], self.points[c]
        if _orient(pa, pb, pc) <= 0.0:
            b, c = c, b
            if _orient(pa, self.points[b], self.points[c]) <= 0.0:
                raise DegenerateInput(f"degenerate triangle {(a, b, c)}")
        tid = self._next_tri
        self._next_tri += 1
        self.tri_v[tid] = (a, b, c)
        for edge in ((a, b), (b, c), (c, a)):
            self.tri_at[edge] = tid
        self._hint = tid
        return tid

    def _remove(self, tid):
        a, b, c = self.tri_v.pop(tid)
        for edge in ((a, b), (b, c), (c, a)):
            del self.tri_at[edge]

    def _neighbor(self, u, v):
        """The triangle across edge u -> v of a CCW triangle, or None."""
        return self.tri_at.get((v, u))

    def _owners(self, key):
        """Ascending ids of the 1 or 2 triangles on undirected edge `key`;
        empty when it is no edge."""
        u, v = key
        return sorted(t for t in (self.tri_at.get((u, v)), self.tri_at.get((v, u)))
                      if t is not None)

    def triangle_ids(self):
        # ids are created ascending and dicts keep insertion order
        return list(self.tri_v)

    def point_array(self):
        return np.asarray(self.points, dtype=float)

    def has_edge(self, u, v):
        return (u, v) in self.tri_at or (v, u) in self.tri_at

    # -- point location ---------------------------------------------------

    def locate(self, p):
        """Walk to a triangle containing p; None when p is outside the hull."""
        if not self.tri_v:
            return None
        tid = self._hint if self._hint in self.tri_v else next(iter(self.tri_v))
        eps = -1e-13
        for _ in range(4 * len(self.tri_v) + 64):
            a, b, c = self.tri_v[tid]
            crossed = None
            hull_exit = False
            for u, v in ((a, b), (b, c), (c, a)):
                if _orient(self.points[u], self.points[v], p) < eps:
                    nxt = self._neighbor(u, v)
                    if nxt is None:
                        hull_exit = True
                        continue
                    crossed = nxt
                    break
            if crossed is not None:
                tid = crossed
                continue
            if hull_exit:
                return None
            return tid
        # numerical cycle: fall back to a full scan
        for tid in self.triangle_ids():
            a, b, c = self.tri_v[tid]
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            if (_orient(pa, pb, p) >= eps and _orient(pb, pc, p) >= eps
                    and _orient(pc, pa, p) >= eps):
                return tid
        return None

    # -- insertion ---------------------------------------------------------

    def add_point(self, p):
        self.points.append((float(p[0]), float(p[1])))
        return len(self.points) - 1

    def insert(self, idx, seed):
        """Bowyer-Watson insertion of an already-appended point, starting
        from the triangle `seed` that `locate` found for it.

        The cavity never grows across constrained edges, so constraints
        survive refinement insertions.
        """
        p = self.points[idx]
        if seed is None:
            raise DegenerateInput(f"point {p} outside the triangulated domain")
        cavity = {seed}
        stack = [seed]
        while stack:
            tid = stack.pop()
            a, b, c = self.tri_v[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if _edge_key(u, v) in self.constrained:
                    continue
                other = self._neighbor(u, v)
                if other is None or other in cavity:
                    continue
                oa, ob, oc = self.tri_v[other]
                if _in_circumcircle(self.points[oa], self.points[ob],
                                    self.points[oc], p) > -1e-13:
                    cavity.add(other)
                    stack.append(other)
        boundary = []
        for tid in cavity:
            a, b, c = self.tri_v[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                other = self._neighbor(u, v)
                # constrained edges always bound the cavity, even if both
                # of their triangles were reached around the constraint
                if other is None or other not in cavity \
                        or _edge_key(u, v) in self.constrained:
                    boundary.append((u, v))
        for tid in sorted(cavity):
            self._remove(tid)
        created = []
        for u, v in boundary:
            created.append(self._create(u, v, idx))
        return created

    # -- flips --------------------------------------------------------------

    def _quad(self, key):
        """(t1, t2, c, d) for an edge shared by triangles t1 < t2, where c
        and d are their vertices off the edge; None for a hull edge."""
        owners = self._owners(key)
        if len(owners) != 2:
            return None
        t1, t2 = owners
        c = next(w for w in self.tri_v[t1] if w not in key)
        d = next(w for w in self.tri_v[t2] if w not in key)
        return t1, t2, c, d

    def _flip(self, key, quad):
        """Swap edge `key` for the other diagonal of `quad`; returns it."""
        t1, t2, c, d = quad
        self._remove(t1)
        self._remove(t2)
        self._create(c, d, key[0])
        self._create(d, c, key[1])
        return _edge_key(c, d)

    def _flippable(self, key, quad):
        # the quad must be strictly convex: cd must cross uv properly
        p = self.points
        return _segments_cross(p[quad[2]], p[quad[3]], p[key[0]], p[key[1]])

    def legalize(self, edges):
        """Lawson flips restoring the local Delaunay property."""
        queue = deque(edges)
        budget = 50 * (len(queue) + 10) * (len(queue) + 10)
        while queue and budget > 0:
            budget -= 1
            key = queue.popleft()
            if key in self.constrained:
                continue
            quad = self._quad(key)
            if quad is None:
                continue
            t1, _, c, d = quad
            if _in_circumcircle(*(self.points[w] for w in self.tri_v[t1]),
                                self.points[d]) <= 1e-13:
                continue
            if not self._flippable(key, quad):
                continue
            self._flip(key, quad)
            u, v = key
            # only the outer edges of the flipped quad can turn illegal
            queue.extend(_edge_key(x, y) for x, y in ((u, c), (c, v), (v, d), (d, u)))


def bowyer_watson(points):
    """Delaunay triangulation of a point list via incremental insertion.

    Duplicate points within 1e-12 are merged; the returned triangulation
    carries the merged point set. Raises DegenerateInput for collinear input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise DegenerateInput("need at least three 2D points")
    merged, mapping = merge_close_points(pts, _MERGE_TOL)
    if len(merged) < 3:
        raise DegenerateInput("fewer than three distinct points")

    lo = merged.min(axis=0)
    hi = merged.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    cx, cy = 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])
    r = 50.0 * span

    tr = Triangulation()
    s0 = tr.add_point((cx - 2.0 * r, cy - r))
    s1 = tr.add_point((cx + 2.0 * r, cy - r))
    s2 = tr.add_point((cx, cy + 2.0 * r))
    tr._super = (s0, s1, s2)
    tr._create(s0, s1, s2)
    for p in merged:
        idx = tr.add_point(p)
        tr.insert(idx, tr.locate(tr.points[idx]))

    has_interior = any(
        all(v not in tr._super for v in verts) for verts in tr.tri_v.values()
    )
    if not has_interior:
        raise DegenerateInput("all points are collinear")
    tr.input_index = mapping + len(tr._super)
    return tr


def merge_close_points(pts, tol):
    """Merge points closer than tol in both coordinates.

    Returns (unique points, mapping from original index to merged index).
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    kept = []
    mapping = np.empty(len(pts), dtype=int)
    for idx in order:
        p = pts[idx]
        hit = -1
        j = len(kept) - 1
        while j >= 0 and p[0] - kept[j][0] <= tol:
            if abs(p[1] - kept[j][1]) <= tol:
                hit = j
                break
            j -= 1
        if hit < 0:
            kept.append((p[0], p[1]))
            hit = len(kept) - 1
        mapping[idx] = hit
    return np.asarray(kept, dtype=float), mapping


def strip_super(tr):
    """Remove all triangles touching the synthetic bounding vertices."""
    for tid in list(tr.tri_v):
        if any(v in tr._super for v in tr.tri_v[tid]):
            tr._remove(tid)


def recover_constraints(tr, segments):
    """Make each segment (u, v, source) conform: cover it with constrained
    edges that record `source`, the index of the input polyline it came from.

    u and v index the original input points handed to the triangulator. A
    segment that is no edge is split at a vertex lying on it, or else at its
    midpoint, which goes in through `Triangulation.insert`; both halves
    recurse, as in refinement (Ruppert, J. Algorithms 18, 1995), so the
    triangulation stays Delaunay away from the constraints. Raises
    ConstraintCrossing when a segment that is no edge crosses an input
    segment; two edges never cross, so every crossing pair is caught.
    """
    remap = tr.input_index
    ends = np.array([(tr.points[remap[u]], tr.points[remap[v]]) for u, v, _ in segments],
                    dtype=float).reshape(-1, 2, 2)
    for u, v, source in segments:
        _enforce_segment(tr, int(remap[u]), int(remap[v]), source, ends)
    return tr


def _validate_no_crossings(pts, segs):
    if len(segs) < 2:
        return
    seg = np.asarray(segs, dtype=int)
    a = pts[seg[:, 0]].T
    b = pts[seg[:, 1]].T
    # proper[i, j]: segment i (rows) crosses segment j (columns)
    proper = _segments_cross(a[:, :, None], b[:, :, None], a[:, None, :], b[:, None, :])
    shared = (
        (seg[:, None, 0] == seg[None, :, 0]) | (seg[:, None, 0] == seg[None, :, 1])
        | (seg[:, None, 1] == seg[None, :, 0]) | (seg[:, None, 1] == seg[None, :, 1])
    )
    proper &= ~shared
    np.fill_diagonal(proper, False)
    if proper.any():
        i, j = np.argwhere(proper)[0]
        raise ConstraintCrossing(f"segments {segs[i]} and {segs[j]} cross")


def _collinear_between(p, a, b, tol=1e-12):
    """True where p lies strictly inside segment ab (within tol); p may be a
    point or a (2, n) coordinate array of n points."""
    ab = (b[0] - a[0], b[1] - a[1])
    length2 = ab[0] * ab[0] + ab[1] * ab[1]
    if length2 == 0.0:
        return False
    cross = _orient(a, b, p)
    t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / length2
    return (cross * cross <= tol * length2 * length2) & (1e-12 < t) & (t < 1.0 - 1e-12)


def _enforce_segment(tr, u, v, source, ends):
    if u == v:
        return
    if tr.has_edge(u, v):
        # an edge that several polylines share keeps the lowest source
        key = _edge_key(u, v)
        tr.constrained[key] = min(source, tr.constrained.get(key, source))
        return
    pu, pv = tr.points[u], tr.points[v]
    if _segments_cross(pu, pv, ends[:, 0].T, ends[:, 1].T).any():
        raise ConstraintCrossing(f"segment ({u}, {v}) crosses an input segment")
    # a vertex on the segment splits the constraint, else its midpoint does
    on = (w for w in range(len(tr.points))
          if w not in (u, v) and _collinear_between(tr.points[w], pu, pv))
    w = next(on, None)
    if w is None:
        w = tr.add_point((0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])))
        tr.insert(w, tr.locate(tr.points[w]))
    _enforce_segment(tr, u, w, source, ends)
    _enforce_segment(tr, w, v, source, ends)


# -- refinement -------------------------------------------------------------


def _tri_geometry(tr, tid):
    a, b, c = tr.tri_v[tid]
    pa, pb, pc = tr.points[a], tr.points[b], tr.points[c]
    la = math.dist(pb, pc)
    lb = math.dist(pc, pa)
    lc = math.dist(pa, pb)
    longest = max(la, lb, lc)
    # min angle is opposite the shortest edge
    shortest = min(la, lb, lc)
    others = sorted((la, lb, lc))[1:]
    cos_min = (others[0] ** 2 + others[1] ** 2 - shortest ** 2) / (2.0 * others[0] * others[1])
    min_angle = math.degrees(math.acos(max(-1.0, min(1.0, cos_min))))
    return min_angle, longest


def _segment_encroached(tr, key):
    """An apex of a triangle on `key` encroaches it."""
    pu, pv = tr.points[key[0]], tr.points[key[1]]
    return any(w not in key and _encroaches(tr.points[w], pu, pv)
               for tid in tr._owners(key) for w in tr.tri_v[tid])


def _split_segment(tr, key, work, node_cap, segments):
    """Split a constrained segment at its midpoint (`segments`, the
    _SegmentCache of `tr`, records the halves).

    The split is structural (each adjacent triangle is replaced by two) so
    collinear constraint chains never enter a Bowyer-Watson cavity; the
    neighborhood is re-legalized afterwards.
    """
    if len(tr.points) >= node_cap:
        raise RefinementBudgetExceeded(f"node cap {node_cap} reached")
    u, v = key
    pu, pv = tr.points[u], tr.points[v]
    m = tr.add_point((0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])))
    suspect = []
    for tid in tr._owners(key):
        verts = tr.tri_v[tid]
        w = next(x for x in verts if x not in key)
        # the edge as oriented within this CCW triangle
        i = verts.index(w)
        y, x = verts[(i + 1) % 3], verts[(i + 2) % 3]
        tr._remove(tid)
        work.append(tr._create(x, m, w))
        work.append(tr._create(m, y, w))
        suspect.append(_edge_key(x, w))
        suspect.append(_edge_key(y, w))
    segments.split(key, m)
    tr.legalize(suspect)
    for sub in (_edge_key(u, m), _edge_key(m, v)):
        if _segment_encroached(tr, sub):
            _split_segment(tr, sub, work, node_cap, segments)


def refine(tr, h, node_cap=200000):
    """Ruppert-style refinement to a minimum angle and target edge length.

    Boundary edges (used by a single triangle) are treated as constrained;
    those not constrained yet get source 0, the outer polyline of
    `build_mesh`. A triangle is split when its minimum angle falls below
    `THETA_MIN` degrees or its longest edge exceeds `h`; `math.inf` refines
    by angle alone.
    A pass queues every triangle in id order, then those its splits create,
    and skips the good and the stalled ones as it pops them (badness
    depends only on a triangle's vertices); passes repeat while they
    progress. Raises RefinementBudgetExceeded when the node cap is hit
    first.
    """
    for u, v in tr.tri_at:
        if (v, u) not in tr.tri_at:
            tr.constrained.setdefault(_edge_key(u, v), 0)

    work = deque()
    segments = _SegmentCache(tr)
    for key in sorted(tr.constrained):
        if _segment_encroached(tr, key):
            _split_segment(tr, key, work, node_cap, segments)

    stalled = set()
    progressed = True
    while progressed:
        work.extend(tr.triangle_ids())
        progressed = False
        while work:
            tid = work.popleft()
            if tid not in tr.tri_v or tid in stalled:
                continue
            min_angle, longest = _tri_geometry(tr, tid)
            if min_angle >= THETA_MIN * (1.0 - 1e-12) and longest <= h * (1.0 + 1e-12):
                continue
            if len(tr.points) >= node_cap:
                raise RefinementBudgetExceeded(f"node cap {node_cap} reached")
            a, b, c = tr.tri_v[tid]
            center = _circumcenter(tr.points[a], tr.points[b], tr.points[c])
            key = segments.encroached(center)
            if key is not None:
                _split_segment(tr, key, work, node_cap, segments)
                work.append(tid)
                progressed = True
                continue
            seed = tr.locate(center)
            if seed is None or _too_close(tr, center, tid, longest):
                stalled.add(tid)
                continue
            m = tr.add_point(center)
            work.extend(tr.insert(m, seed))
            progressed = True
    return tr


class _SegmentCache:
    """`_encroaches` over every constrained segment at once.

    Holds the constrained keys sorted, beside an (s, 4) array of their end
    points; `split` updates both along with `tr.constrained`, so during
    refinement every change to the constraints goes through it. Every key
    is an edge: recovery records only edges, a split creates both halves,
    and flips and insertion cavities never remove a constrained edge.
    """

    def __init__(self, tr):
        self.tr = tr
        self.keys = sorted(tr.constrained)
        self.ends = np.array([self._ends(key) for key in self.keys],
                             dtype=float).reshape(-1, 4)

    def _ends(self, key):
        return self.tr.points[key[0]] + self.tr.points[key[1]]

    def split(self, key, m):
        """Replace constrained `key` by its halves at point m, both keeping
        its source."""
        source = self.tr.constrained.pop(key)
        i = bisect.bisect_left(self.keys, key)
        del self.keys[i]
        ends = np.delete(self.ends, i, axis=0)
        for half in (_edge_key(key[0], m), _edge_key(m, key[1])):
            self.tr.constrained[half] = source
            j = bisect.bisect_left(self.keys, half)
            self.keys.insert(j, half)
            ends = np.insert(ends, j, self._ends(half), axis=0)
        self.ends = ends

    def encroached(self, p):
        """The lowest constrained key that p encroaches, or None."""
        hits = np.flatnonzero(_encroaches(p, self.ends[:, :2].T, self.ends[:, 2:].T))
        return self.keys[hits[0]] if len(hits) else None


def _too_close(tr, p, tid, longest):
    """p lies within 1e-7 `longest` of a vertex of triangle `tid`."""
    return any(math.dist(p, tr.points[w]) < 1e-7 * longest for w in tr.tri_v[tid])


# -- geometry specification --------------------------------------------------


def sample_closed_bspline(control, samples=64):
    """Sample a closed uniform cubic B-spline at `samples` parameter values."""
    control = np.asarray(control, dtype=float)
    n = len(control)
    if n < 4:
        raise ValueError("closed cubic B-spline needs at least 4 control points")
    out = np.empty((samples, 2))
    ts = np.linspace(0.0, n, samples, endpoint=False)
    for k, t in enumerate(ts):
        i = int(math.floor(t))
        u = t - i
        p = [control[(i - 1) % n], control[i % n], control[(i + 1) % n], control[(i + 2) % n]]
        b0 = (1.0 - u) ** 3 / 6.0
        b1 = (3.0 * u ** 3 - 6.0 * u ** 2 + 4.0) / 6.0
        b2 = (-3.0 * u ** 3 + 3.0 * u ** 2 + 3.0 * u + 1.0) / 6.0
        b3 = u ** 3 / 6.0
        out[k] = b0 * p[0] + b1 * p[1] + b2 * p[2] + b3 * p[3]
    return out


#: kidney-like default inclusion: 8 control points around (0.5, 0.5)
DEFAULT_INCLUSION_CONTROL = np.array([
    [0.605, 0.5],
    [0.5672, 0.5672],
    [0.5, 0.59],
    [0.4328, 0.5672],
    [0.395, 0.5],
    [0.44343, 0.44343],
    [0.5, 0.45],
    [0.55657, 0.44343],
])

DEFAULT_SENSOR_BOXES = [
    (0.05, 0.05, 0.35, 0.35),
    (0.35, 0.05, 0.65, 0.35),
    (0.65, 0.05, 0.95, 0.35),
    (0.05, 0.35, 0.35, 0.65),
    (0.65, 0.35, 0.95, 0.65),
    (0.05, 0.65, 0.35, 0.95),
    (0.35, 0.65, 0.65, 0.95),
    (0.65, 0.65, 0.95, 0.95),
]


@dataclass
class RobinSpan:
    """A beta value on a parameter span [lo, hi] of one outer side."""
    side: str
    lo: float
    hi: float
    beta: float


@dataclass
class GeometrySpec:
    """Geometry of the experiment on the unit square.

    The inclusion is either an explicit closed polygon or a closed uniform
    cubic B-spline given by control points and sampled uniformly. Boxes and
    point lists may be tuples, lists or arrays: every reader unpacks them or
    goes through np.asarray.
    """

    holdall: tuple = (0.35, 0.35, 0.65, 0.65)
    inclusion_polygon: np.ndarray | None = None
    spline_control: np.ndarray | None = None
    spline_samples: int = 64
    sensors: list = field(default_factory=lambda: list(DEFAULT_SENSOR_BOXES))
    dirichlet_side: str = "top"
    robin_spans: list = field(default_factory=list)
    h: float = 0.04
    node_cap: int = 200000

    def polygon(self):
        """Closed inclusion polygon (counter-clockwise), or None."""
        if self.inclusion_polygon is not None:
            poly = np.asarray(self.inclusion_polygon, dtype=float)
        elif self.spline_control is not None:
            poly = sample_closed_bspline(self.spline_control, self.spline_samples)
        else:
            return None
        if len(poly) < 3:
            return None
        if _polygon_area(poly) < 0.0:
            poly = poly[::-1].copy()
        return poly

    def validate(self):
        if not self.h > 0.0:                # NaN fails this and the span tests
            raise ValueError(f"h = {self.h} is not positive")
        x0, y0, x1, y1 = self.holdall
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0):
            raise ValueError("hold-all must be strictly inside the unit square")
        poly = self.polygon()
        if poly is not None:
            margin = 1e-6
            if not (np.all(poly[:, 0] > x0 + margin) and np.all(poly[:, 0] < x1 - margin)
                    and np.all(poly[:, 1] > y0 + margin) and np.all(poly[:, 1] < y1 - margin)):
                raise ValueError("inclusion must be strictly inside the hold-all")
            n = len(poly)
            try:
                _validate_no_crossings(poly, [(i, (i + 1) % n) for i in range(n)])
            except ConstraintCrossing:
                raise ValueError("inclusion polygon has crossing edges") from None
            if _polygon_area(poly) == 0.0:
                raise ValueError("inclusion polygon has zero area")
            # a self-touching polygon's interface is no single closed loop
            if len(merge_close_points(poly, _MERGE_TOL)[0]) < n:
                raise ValueError("inclusion polygon has a repeated vertex")
            # an edge's own end points sit at t = 0 and 1, never strictly inside
            if any(_collinear_between(poly.T, poly[j], poly[(j + 1) % n]).any() for j in range(n)):
                raise ValueError("inclusion polygon has a vertex on a non-adjacent edge")
        for i, box in enumerate(self.sensors):
            bx0, by0, bx1, by1 = box
            if not (0.0 <= bx0 < bx1 <= 1.0 and 0.0 <= by0 < by1 <= 1.0):
                raise ValueError(f"sensor {i} outside the unit square")
            if _boxes_overlap(box, self.holdall):
                raise ValueError(f"sensor {i} overlaps the hold-all")
            for j in range(i):
                if _boxes_overlap(box, self.sensors[j]):
                    raise ValueError(f"sensors {j} and {i} overlap")
        if self.dirichlet_side not in (*SIDES, "all"):
            raise ValueError(f"unknown dirichlet side {self.dirichlet_side!r}")
        for i, span in enumerate(self.robin_spans):
            if span.side not in SIDES:
                raise ValueError(f"robin_spans[{i}]: unknown side {span.side!r}")
            # a span with lo == hi would get no edge
            if not (0.0 <= span.lo < span.hi <= 1.0 and span.beta >= 0.0):
                raise ValueError(f"robin_spans[{i}]: needs 0 <= lo < hi <= 1, beta >= 0")
            # the Dirichlet condition owns its side; a span there would be
            # dropped without a trace
            if self.dirichlet_side in ("all", span.side):
                raise ValueError(f"robin_spans[{i}]: side {span.side!r} is under "
                                 f"the Dirichlet condition ({self.dirichlet_side!r})")
            # an edge in two spans would take the first one's beta
            for j, other in enumerate(self.robin_spans[:i]):
                if other.side == span.side and max(span.lo, other.lo) < min(span.hi, other.hi):
                    raise ValueError(f"robin_spans[{i}]: overlaps robin_spans[{j}] "
                                     f"on side {span.side!r}")


def _boxes_overlap(p, q):
    """True when the open boxes (x0, y0, x1, y1) p and q share an interior
    point (more than 1e-12 deep)."""
    return (p[0] < q[2] - 1e-12 and p[2] > q[0] + 1e-12
            and p[1] < q[3] - 1e-12 and p[3] > q[1] + 1e-12)


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _points_in_polygon(pts, poly):
    """Ray-casting test, vectorized over pts."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


# -- tagged mesh --------------------------------------------------------------


def p1_gradients(nodes, triangles):
    """Element-wise P1 basis gradients and triangle areas.

    ``g[e, i, :]`` is the gradient of the basis function of local node i on
    element e; areas are signed (positive for counter-clockwise triangles).
    """
    pts = nodes[triangles]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = _orient(pts[:, 0].T, pts[:, 1].T, pts[:, 2].T)
    g = np.empty((len(triangles), 3, 2))
    g[:, 1, 0] = e2[:, 1] / det
    g[:, 1, 1] = -e2[:, 0] / det
    g[:, 2, 0] = -e1[:, 1] / det
    g[:, 2, 1] = e1[:, 0] / det
    g[:, 0, :] = -g[:, 1, :] - g[:, 2, :]
    return g, 0.5 * det


def assemble_p1(elements, local, n):
    """Sum the (e, d, d) element matrices of (e, d) elements (triangles, d = 3,
    or boundary edges, d = 2) into an (n, n) CSR matrix, element by element."""
    d = elements.shape[1]
    rows = np.repeat(elements, d, axis=1).ravel()
    cols = np.tile(elements, (1, d)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def p1_stiffness(triangles, g, coeff, n):
    """P1 stiffness sum_e coeff[e] * grad(phi_i) . grad(phi_j) from the
    `p1_gradients` g of the elements."""
    return assemble_p1(triangles, np.einsum("e,eia,eja->eij", coeff, g, g), n)


def p1_elasticity(triangles, g, area, lam, mu, n):
    """P1 elasticity stiffness (Lame lam, mu) from the elements' `p1_gradients`
    g and areas, node i's dofs at (2i, 2i + 1): entry (i, j, a, b) of element e
    is area_e (mu g_ib g_ja + lam g_ia g_jb + [a == b] mu g_i . g_j). scipy sums
    duplicates in the given order, and the element-major order of `assemble_p1`
    would move the bits, so the entries keep (i, j, a, b, e) order."""
    gt = g.transpose(1, 2, 0)                                   # (3, 2, e)
    k = (mu * gt)[:, None, None] * gt[None, :, :, None]         # (3, 3, 2, 2, e)
    k += (lam * gt)[:, None, :, None] * gt[None, :, None]
    mu_dots = mu * np.einsum("eik,ejk->eij", g, g).transpose(1, 2, 0)
    k[:, :, 0, 0] += mu_dots
    k[:, :, 1, 1] += mu_dots
    k *= area
    dof = 2 * triangles.T[:, None] + np.arange(2)[:, None]     # (3, 2, e)
    rows = np.broadcast_to(dof[:, None, :, None], k.shape).ravel()
    cols = np.broadcast_to(dof[None, :, None], k.shape).ravel()
    return sp.coo_matrix((k.ravel(), (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def _no_elements():
    return np.empty(0, dtype=int)


@dataclass
class Mesh:
    """Conforming triangulation with region, boundary and element-set tags.

    Each element set is an ascending array of triangle ids.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray                      # 0 bulk, 1 inclusion
    seg_nodes: np.ndarray                    # (s, 2) node ids
    seg_kind: np.ndarray                     # unicode kind per segment
    seg_ref: np.ndarray                      # sensor id / robin span index / -1
    seg_beta: np.ndarray                     # beta per robin segment, else 0
    sensor_elements: list = field(default_factory=list)  # one per sensor box
    holdall_annulus: np.ndarray = field(default_factory=_no_elements)
    holdall_closure: np.ndarray = field(default_factory=_no_elements)

    def areas(self):
        """Signed triangle areas, positive for counter-clockwise triangles."""
        return p1_gradients(self.nodes, self.triangles)[1]


def _subdivide_polyline(points, h):
    """Split each leg of a closed polyline into pieces no longer than h;
    returns points, segments."""
    pts = [tuple(map(float, points[0]))]
    segs = []
    n = len(points)
    for i in range(n):
        a = np.asarray(points[i], dtype=float)
        b = np.asarray(points[(i + 1) % n], dtype=float)
        pieces = max(1, int(math.ceil(math.dist(a, b) / h - 1e-12)))
        for k in range(1, pieces + 1):
            last = len(pts) - 1
            if i == n - 1 and k == pieces:
                segs.append((last, 0))
            else:
                q = a + (b - a) * (k / pieces)
                pts.append((float(q[0]), float(q[1])))
                segs.append((last, last + 1))
    return pts, segs


def _box_polyline(box):
    x0, y0, x1, y1 = box
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def build_mesh(spec: GeometrySpec) -> Mesh:
    """Generate the tagged mesh for a geometry specification."""
    spec.validate()
    h = spec.h
    # a segment's source is its polyline's index here; shared edges keep the lowest
    polylines = [(_box_polyline((0.0, 0.0, 1.0, 1.0)), "outer", -1)]
    polylines.append((_box_polyline(spec.holdall), "holdall", -1))
    for k, box in enumerate(spec.sensors):
        polylines.append((_box_polyline(box), "sensor", k))
    poly = spec.polygon()
    if poly is not None:
        polylines.append(([tuple(p) for p in poly], "interface", -1))

    all_points = []
    all_segments = []
    for source, (pts, _kind, _ref) in enumerate(polylines):
        base = len(all_points)
        sub_pts, sub_segs = _subdivide_polyline(pts, h)
        all_points.extend(sub_pts)
        all_segments.extend((base + u, base + v, source) for u, v in sub_segs)
    # split outer-boundary points at robin span breaks and dirichlet corners
    for span in spec.robin_spans:
        for val in (span.lo, span.hi):
            all_points.append(_side_point(span.side, val))

    tr = bowyer_watson(np.asarray(all_points))
    recover_constraints(tr, all_segments)
    strip_super(tr)
    refine(tr, h=h, node_cap=spec.node_cap)
    return _tag_mesh(tr, spec, poly, [(kind, ref) for _pts, kind, ref in polylines])


def _side_point(side, val):
    """The point of `side` at running coordinate `val`."""
    axis, value = SIDES[side]
    return (val, value) if axis == 1 else (value, val)


def _side_coord(side, mid):
    """(on-side, running coordinate) for an outer-boundary midpoint."""
    axis, value = SIDES[side]
    return abs(mid[axis] - value) <= _ON_TOL, mid[1 - axis]


def _tag_mesh(tr, spec, poly, tags):
    nodes = tr.point_array()
    tri_ids = tr.triangle_ids()
    triangles = np.array([tr.tri_v[t] for t in tri_ids], dtype=int)

    # drop unused super vertices and compact node numbering
    used = np.zeros(len(nodes), dtype=bool)
    used[triangles.ravel()] = True
    new_index = np.cumsum(used) - 1
    nodes = nodes[used]
    triangles = new_index[triangles]

    centroids = nodes[triangles].mean(axis=1)
    if poly is not None:
        regions = _points_in_polygon(centroids, poly).astype(int)
    else:
        regions = np.zeros(len(triangles), dtype=int)

    seg_nodes, seg_kind, seg_ref, seg_beta = [], [], [], []
    for key, source in sorted(tr.constrained.items()):
        u, v = (int(new_index[key[0]]), int(new_index[key[1]]))
        kind, ref, beta = _classify_edge(0.5 * (nodes[u] + nodes[v]), *tags[source], spec)
        seg_nodes.append((u, v))
        seg_kind.append(kind)
        seg_ref.append(ref)
        seg_beta.append(beta)

    in_holdall = _centroids_in_box(centroids, spec.holdall)
    return Mesh(
        nodes=nodes,
        triangles=triangles,
        regions=regions,
        seg_nodes=np.asarray(seg_nodes, dtype=int).reshape(-1, 2),
        seg_kind=np.asarray(seg_kind, dtype="U9"),
        seg_ref=np.asarray(seg_ref, dtype=int),
        seg_beta=np.asarray(seg_beta, dtype=float),
        sensor_elements=[np.flatnonzero(_centroids_in_box(centroids, box))
                         for box in spec.sensors],
        holdall_annulus=np.flatnonzero(in_holdall & (regions == 0)),
        holdall_closure=np.flatnonzero(in_holdall),
    )


def _classify_edge(mid, kind, ref, spec):
    """(kind, ref, beta) of a constrained edge from its source polyline's
    (kind, ref); an outer edge's midpoint places it on the Dirichlet side, a
    Robin span or neither (a zero-flux edge)."""
    if kind != "outer":
        return kind, ref, 0.0
    if spec.dirichlet_side == "all" or _side_coord(spec.dirichlet_side, mid)[0]:
        return "dirichlet", -1, 0.0
    for i, span in enumerate(spec.robin_spans):
        on_side, coord = _side_coord(span.side, mid)
        if on_side and span.lo - _ON_TOL <= coord <= span.hi + _ON_TOL:
            return "robin", i, span.beta
    return "neumann", -1, 0.0


def _centroids_in_box(centroids, box):
    """True where a centroid lies in the open box (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = box
    return ((centroids[:, 0] > x0) & (centroids[:, 0] < x1)
            & (centroids[:, 1] > y0) & (centroids[:, 1] < y1))
