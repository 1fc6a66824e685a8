import dataclasses
import hashlib
import math
from collections import deque

import numpy as np
import pytest

from diffdesign import fem, fim, mesh
from diffdesign.errors import ConstraintCrossing, DegenerateInput

from test_shape import elasticity_matrix


def circumcircle_oracle(points, triangles, slack=1e-12):
    """Brute-force empty-circumcircle check over every point."""
    pts = np.asarray(points, dtype=float)
    for a, b, c in triangles:
        pa, pb, pc = pts[a], pts[b], pts[c]
        d = 2.0 * ((pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0]))
        assert d > 0.0
        a2 = pa @ pa
        b2 = pb @ pb
        c2 = pc @ pc
        ux = (a2 * (pb[1] - pc[1]) + b2 * (pc[1] - pa[1]) + c2 * (pa[1] - pb[1])) / d
        uy = (a2 * (pc[0] - pb[0]) + b2 * (pa[0] - pc[0]) + c2 * (pb[0] - pa[0])) / d
        r2 = (pa[0] - ux) ** 2 + (pa[1] - uy) ** 2
        d2 = (pts[:, 0] - ux) ** 2 + (pts[:, 1] - uy) ** 2
        inside = d2 < r2 * (1.0 - slack) - slack
        inside[[a, b, c]] = False
        if inside.any():
            return False
    return True


def delaunay(points):
    """Delaunay triangulation of the convex hull of `points`: Bowyer-Watson
    with the bounding super-triangle stripped."""
    tr = mesh.bowyer_watson(points)
    mesh.strip_super(tr)
    return tr


def triangle_array(tr):
    """Vertex ids of the live triangles, in creation-id order."""
    return np.array([tr.tri_v[t] for t in tr.triangle_ids()], dtype=int)


def line_positions(nodes, a, b):
    """Position of each node along segment ab (0 at a, 1 at b); NaN for a
    node farther than 1e-9 from its line."""
    nodes = np.asarray(nodes, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = b - a
    q = nodes - a
    off = np.abs(d[0] * q[:, 1] - d[1] * q[:, 0]) > 1e-9 * math.hypot(*d)
    return np.where(off, np.nan, q @ d / (d @ d))


def covering_edges(nodes, edges, a, b):
    """Indices of the (u, v) edges that lie on segment ab, after checking
    that they form one path from a to b."""
    t = line_positions(nodes, a, b)
    on = (t >= -1e-12) & (t <= 1.0 + 1e-12)
    hits = [i for i, (u, v) in enumerate(edges) if on[u] and on[v]]
    pieces = sorted(sorted((t[u], t[v])) for u, v in (edges[i] for i in hits))
    assert pieces, f"no edge on segment {a} -> {b}"
    assert abs(pieces[0][0]) <= 1e-12 and abs(pieces[-1][1] - 1.0) <= 1e-12
    assert all(end == start for (_, end), (start, _) in zip(pieces, pieces[1:]))
    return hits


def assert_segment_recovered(tr, u, v, source):
    """The constrained edges lying on input segment uv form one path from u
    to v, each an edge of the triangulation recording `source`."""
    keys = list(tr.constrained)
    u, v = tr.input_index[u], tr.input_index[v]
    hits = covering_edges(tr.point_array(), keys, tr.points[u], tr.points[v])
    assert all(tr.has_edge(*keys[i]) and tr.constrained[keys[i]] == source for i in hits)


def edge_use_counts(triangles):
    counts = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def mesh_digest(m):
    """sha256 over the bytes of every mesh array and of the element sets,
    each under its mesh_stats.json name, in name order."""
    h = hashlib.sha256()
    for a in (m.nodes, m.triangles, m.regions,
              m.seg_nodes, m.seg_kind, m.seg_ref, m.seg_beta):
        h.update(np.ascontiguousarray(a).tobytes())
    sets = {"holdall": m.holdall_annulus, "holdall-closure": m.holdall_closure}
    sets.update((f"sensor:{k}", e) for k, e in enumerate(m.sensor_elements))
    for name in sorted(sets):
        h.update(name.encode())
        h.update(np.ascontiguousarray(sets[name]).tobytes())
    return h.hexdigest()


#: sensors touching the outer box, each other (0 and 1) and the hold-all (2)
TOUCHING_SENSORS = [(0.0, 0.0, 0.3, 0.3), (0.3, 0.0, 0.6, 0.2), (0.05, 0.35, 0.35, 0.65)]

_ANGLES = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
#: an explicit inclusion polygon: 40-gon of radius 0.1 around (0.5, 0.5)
GON40 = 0.5 + 0.1 * np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])


#: Dirichlet on the bottom and a Robin span on each other side, with its
#: node count and mesh digest (every other pinned layout keeps the bottom free)
ROBIN_THREE_SIDES = (
    {"dirichlet_side": "bottom", "h": 0.05,
     "robin_spans": [mesh.RobinSpan("top", 0.2, 0.7, 5.0), mesh.RobinSpan("left", 0.0, 0.5, 2.0),
                     mesh.RobinSpan("right", 0.3, 1.0, 7.0)]},
    1207, "05df92351dfe4ed620e82b8c005a43eb59362aec90ed4d6ca185320d7e26332c")


def shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestDelaunay:
    def test_square_corners(self):
        tr = delaunay([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(tr.tri_v) == 2

    def test_square_plus_center(self):
        tr = delaunay([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(tr.tri_v) == 4

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            delaunay([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_duplicates_merged(self):
        tr = delaunay([(0, 0), (1, 0), (0, 1), (0, 0), (1.0, 0.0)])
        # super vertices plus three distinct input points
        assert len(tr.points) == 3 + 3

    def test_random_cloud_empty_circumcircle(self):
        rng = np.random.default_rng(42)
        pts = rng.random((40, 2))
        tr = delaunay(pts)
        tris = triangle_array(tr)
        assert circumcircle_oracle(tr.point_array(), tris)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.random((30, 2))
        t1 = triangle_array(delaunay(pts))
        t2 = triangle_array(delaunay(pts))
        assert np.array_equal(t1, t2)


class TestConstraints:
    def test_forced_diagonal(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.05), (0.5, 0.95)]
        tr = delaunay(pts)
        mesh.recover_constraints(tr, [(0, 2, 0)])
        assert_segment_recovered(tr, 0, 2, 0)

    def test_existing_edge_idempotent(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tr = delaunay(pts)
        before = {tuple(t) for t in triangle_array(tr).tolist()}
        diag = None
        for a in range(4):
            for b in range(a + 1, 4):
                if tr.has_edge(tr.input_index[a], tr.input_index[b]) and abs(a - b) == 2:
                    diag = (a, b)
        assert diag is not None
        mesh.recover_constraints(tr, [(*diag, 0)])
        after = {tuple(t) for t in triangle_array(tr).tolist()}
        assert before == after

    def test_16gon_in_cloud(self):
        rng = np.random.default_rng(3)
        cloud = rng.random((60, 2)) * 2.0 - 0.5
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        ring = 0.5 + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.vstack([ring, cloud])
        segs = [(i, (i + 1) % 16, 0) for i in range(16)]
        tr = mesh.bowyer_watson(pts)
        mesh.recover_constraints(tr, segs)
        for u, v, _ in segs:
            assert tr.has_edge(tr.input_index[u], tr.input_index[v])

    @pytest.mark.parametrize("segs", [[(0, 2, 0), (1, 3, 0)], [(1, 3, 0), (0, 2, 0)]],
                             ids=["diagonal-02-first", "diagonal-13-first"])
    def test_crossing_constraints_raise(self, segs):
        # recovery is the only crossing check for direct callers: whichever
        # diagonal comes second meets the first as a constrained edge
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tr = delaunay(pts)
        with pytest.raises(ConstraintCrossing):
            mesh.recover_constraints(tr, segs)

    def test_triangle_ids_ascend_after_inserts_flips_and_splits(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([[(0.05, 0.5), (0.95, 0.52)], rng.random((40, 2))])
        tr = mesh.bowyer_watson(pts)
        u, v = tr.input_index[0], tr.input_index[1]
        assert not tr.has_edge(u, v)
        mesh.recover_constraints(tr, [(0, 1, 0)])  # inserts midpoints
        assert tr.triangle_ids() == sorted(tr.tri_v)
        mesh.strip_super(tr)
        mesh.refine(tr, h=0.2)  # inserts and splits
        assert not tr.has_edge(u, v)
        assert tr.triangle_ids() == sorted(tr.tri_v)
        for p in rng.random((10, 2)) * 0.8 + 0.1:
            idx = tr.add_point(p)
            tr.insert(idx, tr.locate(tr.points[idx]))
            ids = tr.triangle_ids()
            assert ids == sorted(tr.tri_v)
            assert len(set(ids)) == len(ids)


class TestRefine:
    def test_directed_edge_map_after_refinement(self):
        rng = np.random.default_rng(11)
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        ring = 0.5 + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.vstack([ring, [(0, 0), (1, 0), (1, 1), (0, 1)], rng.random((20, 2))])
        tr = mesh.bowyer_watson(pts)
        mesh.recover_constraints(tr, [(i, (i + 1) % 16, 0) for i in range(16)])
        mesh.strip_super(tr)
        mesh.refine(tr, h=0.15)
        assert len(tr.tri_at) == 3 * len(tr.tri_v)
        # the segment cache relies on every constrained key being an edge
        assert all(tr.has_edge(u, v) for u, v in tr.constrained)
        for (u, v), tid in tr.tri_at.items():
            a, b, c = tr.tri_v[tid]
            assert (u, v) in ((a, b), (b, c), (c, a))
            assert mesh._orient(tr.points[a], tr.points[b], tr.points[c]) > 0.0
            twin = tr.tri_at.get((v, u))
            if twin is None:
                assert (min(u, v), max(u, v)) in tr.constrained
            else:
                assert twin != tid
                assert tr._neighbor(u, v) == twin

    def test_segment_cache_follows_splits(self):
        # the cache's incrementally kept keys and end points equal one built
        # afresh, and it answers with the lowest encroached key
        rng = np.random.default_rng(5)
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        ring = 0.5 + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])
        tr = mesh.bowyer_watson(np.vstack([ring, [(0, 0), (1, 0), (1, 1), (0, 1)]]))
        mesh.recover_constraints(tr, [(i, (i + 1) % 16, 0) for i in range(16)])
        mesh.strip_super(tr)
        segments = mesh._SegmentCache(tr)
        for key in sorted(tr.constrained)[::2]:
            mesh._split_segment(tr, key, deque(), 10000, segments)
        fresh = mesh._SegmentCache(tr)
        assert len(tr.constrained) > 16
        assert segments.keys == fresh.keys == sorted(tr.constrained)
        assert np.array_equal(segments.ends, fresh.ends)
        for p in rng.random((200, 2)):
            hits = [k for k in sorted(tr.constrained)
                    if mesh._encroaches(p, tr.points[k[0]], tr.points[k[1]])]
            assert segments.encroached(p) == (hits[0] if hits else None)

    def test_fine_mesh_is_fixpoint(self):
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        tr = delaunay(pts)
        before = {tuple(t) for t in triangle_array(tr).tolist()}
        mesh.refine(tr, h=math.inf)
        after = {tuple(t) for t in triangle_array(tr).tolist()}
        assert before == after

    def test_sliver_gets_fixed(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.02)]
        tr = delaunay(pts)
        mesh.refine(tr, h=math.inf)
        tris = triangle_array(tr)
        nodes = tr.point_array()
        for t in tris:
            min_angle = triangle_min_angle(nodes[t])
            assert min_angle >= 20.0 - 1e-9

    def test_unit_square_node_count(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tr = delaunay(pts)
        mesh.refine(tr, h=0.05)
        n_nodes = len(np.unique(triangle_array(tr)))
        assert 300 <= n_nodes <= 1500
        nodes = tr.point_array()
        for t in triangle_array(tr):
            p = nodes[t]
            longest = max(math.dist(p[0], p[1]), math.dist(p[1], p[2]), math.dist(p[2], p[0]))
            assert longest <= 1.5 * 0.05
            assert triangle_min_angle(p) >= 20.0 - 1e-9

    def test_refined_still_delaunay(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tr = delaunay(pts)
        mesh.refine(tr, h=0.08)
        tris = triangle_array(tr)
        used = np.unique(tris)
        remap = np.full(len(tr.points), -1, dtype=int)
        remap[used] = np.arange(len(used))
        assert circumcircle_oracle(tr.point_array()[used], remap[tris])

    def test_delaunay_at_two_thousand_nodes(self):
        # brute-force empty-circumcircle scan stays valid near the stated
        # size bound
        rng = np.random.default_rng(55)
        pts = np.vstack([[(0, 0), (1, 0), (1, 1), (0, 1)], rng.random((300, 2))])
        tr = delaunay(pts)
        mesh.refine(tr, h=0.04)
        tris = triangle_array(tr)
        used = np.unique(tris)
        assert 1200 <= len(used) <= 2000
        remap = np.full(len(tr.points), -1, dtype=int)
        remap[used] = np.arange(len(used))
        assert circumcircle_oracle(tr.point_array()[used], remap[tris])


def triangle_min_angle(p):
    la = math.dist(p[1], p[2])
    lb = math.dist(p[2], p[0])
    lc = math.dist(p[0], p[1])
    angles = []
    for opposite, e1, e2 in ((la, lb, lc), (lb, lc, la), (lc, la, lb)):
        cosv = (e1 * e1 + e2 * e2 - opposite * opposite) / (2.0 * e1 * e2)
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cosv)))))
    return min(angles)


@pytest.fixture(scope="module")
def paper_layout_mesh():
    spec = mesh.GeometrySpec(
        spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
        robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
        h=0.06,
    )
    return mesh.build_mesh(spec), spec


class TestBuildMesh:
    def test_no_inclusion_all_bulk(self):
        spec = mesh.GeometrySpec(inclusion_polygon=None, sensors=[], h=0.15)
        m = mesh.build_mesh(spec)
        assert np.all(m.regions == 0)

    def test_area_partition(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        assert abs(m.areas().sum() - 1.0) <= 1e-9
        assert np.all(m.areas() > 0.0)

    def test_inclusion_area_matches_polygon(self):
        angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        poly = 0.5 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
        spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=0.05)
        m = mesh.build_mesh(spec)
        inc_area = m.areas()[m.regions == 1].sum()
        assert abs(inc_area - shoelace(poly)) <= 0.02 * shoelace(poly)

    def test_paper_layout_sensor_patches(self, paper_layout_mesh):
        m, spec = paper_layout_mesh
        assert len(m.sensor_elements) == len(spec.sensors) == 8
        seen = set()
        for elems in m.sensor_elements:
            assert np.all(np.diff(elems) > 0)
            elems = set(elems.tolist())
            assert elems
            assert not elems & seen
            seen |= elems

    def test_conformity_edge_use(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        counts = edge_use_counts(m.triangles)
        boundary = [e for e, c in counts.items() if c == 1]
        assert all(c in (1, 2) for c in counts.values())
        # boundary edges all lie on the unit square
        for u, v in boundary:
            for w in (u, v):
                x, y = m.nodes[w]
                assert min(abs(x), abs(x - 1), abs(y), abs(y - 1)) <= 1e-9

    def test_tagged_segments_are_triangle_edges(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        edges = set(edge_use_counts(m.triangles))
        for u, v in m.seg_nodes:
            assert (min(u, v), max(u, v)) in edges

    def test_interface_edges_equal_region_contrast(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        counts = edge_use_counts(m.triangles)
        owners = {}
        for t, (a, b, c) in enumerate(m.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                owners.setdefault(key, []).append(m.regions[t])
        contrast = {k for k, regs in owners.items() if len(regs) == 2 and regs[0] != regs[1]}
        tagged = {tuple(sorted(e)) for e in m.seg_nodes[m.seg_kind == "interface"].tolist()}
        assert contrast == tagged

    def test_dirichlet_on_top(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        nodes = np.unique(m.seg_nodes[m.seg_kind == "dirichlet"])
        assert len(nodes) > 2
        assert np.allclose(m.nodes[nodes, 1], 1.0, atol=1e-9)

    def test_robin_betas(self, paper_layout_mesh):
        # Robin edges are the span's edges alone; the rest of the outer
        # boundary off the Dirichlet side is zero-flux
        m, _ = paper_layout_mesh
        mids = 0.5 * (m.nodes[m.seg_nodes[:, 0]] + m.nodes[m.seg_nodes[:, 1]])
        on_lower_left = (np.abs(mids[:, 1]) <= 1e-9) & (mids[:, 0] < 0.5)
        assert np.array_equal(m.seg_kind == "robin", on_lower_left)
        assert np.all(m.seg_beta[on_lower_left] == 10.0)
        assert np.all(m.seg_beta[m.seg_kind == "neumann"] == 0.0)

    @pytest.mark.parametrize("layout", [
        ROBIN_THREE_SIDES[0], {"robin_spans": [mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)]},
    ], ids=["robin-three-sides", "case1"])
    def test_outer_edge_tags_follow_their_midpoints(self, layout):
        # on the Dirichlet side: dirichlet; inside span i: (robin, i, beta_i);
        # anywhere else on the outer boundary: (neumann, -1, 0.0)
        spec = mesh.GeometrySpec(**{"spline_control": mesh.DEFAULT_INCLUSION_CONTROL,
                                    **layout})
        m = mesh.build_mesh(spec)
        mids = 0.5 * (m.nodes[m.seg_nodes[:, 0]] + m.nodes[m.seg_nodes[:, 1]])
        tags = zip(m.seg_kind.tolist(), m.seg_ref.tolist(), m.seg_beta.tolist())
        seen = set()
        for (x, y), tag in zip(mids.tolist(), tags):
            side = [s for s, (coord, value) in {"bottom": (y, 0.0), "top": (y, 1.0),
                                                 "left": (x, 0.0), "right": (x, 1.0)}.items()
                    if abs(coord - value) <= 1e-9]
            if not side:
                assert tag[0] not in ("dirichlet", "robin", "neumann")
                continue
            side, = side
            run = x if side in ("bottom", "top") else y
            spans = [i for i, s in enumerate(spec.robin_spans)
                     if s.side == side and s.lo < run < s.hi]
            if side == spec.dirichlet_side:
                expected = ("dirichlet", -1, 0.0)
            elif spans:
                expected = ("robin", spans[0], spec.robin_spans[spans[0]].beta)
            else:
                expected = ("neumann", -1, 0.0)
            assert tag == expected
            seen.add(expected[0])
        assert seen == {"dirichlet", "robin", "neumann"}

    def test_delaunay_away_from_constraints(self):
        spec = mesh.GeometrySpec(sensors=[], h=0.12)
        m = mesh.build_mesh(spec)
        assert len(m.nodes) <= 2000
        # unconstrained interior: oracle may only fail across constrained edges;
        # with no inclusion/sensors the only constraints are the boundary bound
        assert circumcircle_oracle(m.nodes, m.triangles)

    @pytest.mark.parametrize("layout", [
        {"h": 1.0}, {"h": 0.5}, {"h": 0.2, "sensors": [(0.002, 0.1, 0.2, 0.3)]},
    ], ids=["h1.0", "h0.5", "sensor-near-left"])
    def test_recovered_mesh_conforms(self, layout, monkeypatch):
        # each layout's first triangulation misses input segments that no
        # vertex lies on, so recovery has to split them
        recover, missing = mesh.recover_constraints, []

        def counting(tr, segments):
            pts, remap = tr.point_array(), tr.input_index
            for u, v, _ in segments:
                u, v = remap[u], remap[v]
                t = line_positions(pts, pts[u], pts[v])
                if not tr.has_edge(u, v) and not ((t > 1e-12) & (t < 1.0 - 1e-12)).any():
                    missing.append((u, v))
            return recover(tr, segments)
        monkeypatch.setattr(mesh, "recover_constraints", counting)
        spec = mesh.GeometrySpec(**{"spline_control": mesh.DEFAULT_INCLUSION_CONTROL, **layout})
        m = mesh.build_mesh(spec)
        assert missing

        # every input polyline is covered, and each constrained edge lies on
        # one and carries the tag of the first polyline that holds it
        polylines = [(mesh._box_polyline((0.0, 0.0, 1.0, 1.0)),
                      ({"dirichlet", "robin", "neumann"}, -1)),
                     (mesh._box_polyline(spec.holdall), ({"holdall"}, -1))]
        polylines += [(mesh._box_polyline(box), ({"sensor"}, k))
                      for k, box in enumerate(spec.sensors)]
        polylines.append((spec.polygon(), ({"interface"}, -1)))
        owner = {}
        for pts, tag in polylines:
            pts = np.asarray(pts, dtype=float)
            for a, b in zip(pts, np.roll(pts, -1, axis=0)):
                for i in covering_edges(m.nodes, m.seg_nodes, a, b):
                    owner.setdefault(i, tag)
        assert sorted(owner) == list(range(len(m.seg_nodes)))
        for i, (kinds, ref) in owner.items():
            assert m.seg_kind[i] in kinds and m.seg_ref[i] == ref

        edges = set(edge_use_counts(m.triangles))
        assert all((min(u, v), max(u, v)) in edges for u, v in m.seg_nodes)
        # empty away from the constraints, and here across them as well
        assert circumcircle_oracle(m.nodes, m.triangles)
        assert min(triangle_min_angle(p) for p in m.nodes[m.triangles]) \
            >= mesh.THETA_MIN - 1e-9
        assert np.all(m.areas() > 0.0) and abs(m.areas().sum() - 1.0) <= 1e-12


class TestExtractPatch:
    """The typed element sets of the mesh and the local numbering that
    `fim.build_sensor_model` gives a sensor's elements."""

    def test_sensor_patch_area(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        assert abs(m.areas()[m.sensor_elements[0]].sum() - 0.09) <= 0.02 * 0.09

    def test_holdall_patch_area(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        inc_area = m.areas()[m.regions == 1].sum()
        assert abs(m.areas()[m.holdall_annulus].sum() - (0.09 - inc_area)) <= 1e-9

    def test_holdall_closure_area(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        assert abs(m.areas()[m.holdall_closure].sum() - 0.09) <= 1e-9

    def test_local_map_injective(self, paper_layout_mesh):
        m, _ = paper_layout_mesh
        s = fim.build_sensor_model(m, 3)
        tris = m.triangles[m.sensor_elements[3]]
        assert np.array_equal(s.elements, m.sensor_elements[3])
        assert np.array_equal(s.nodes, np.unique(tris))
        # the lumped mass, summed on local ids, lands on the right global nodes
        mass = np.zeros(len(m.nodes))
        np.add.at(mass, tris.ravel(), np.repeat(m.areas()[s.elements] / 3.0, 3))
        assert np.allclose(s.lumped_mass, mass[s.nodes], rtol=1e-12, atol=0.0)


class TestMeshStress:
    @pytest.mark.parametrize("h", [0.12, 0.08, 0.05])
    def test_default_geometry_invariants_across_resolutions(self, h):
        spec = mesh.GeometrySpec(
            spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
            robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
            h=h,
        )
        m = mesh.build_mesh(spec)
        assert abs(m.areas().sum() - 1.0) <= 1e-9
        assert m.areas().min() > 0.0
        counts = edge_use_counts(m.triangles)
        assert all(c in (1, 2) for c in counts.values())
        edges = set(counts)
        for u, v in m.seg_nodes:
            assert (min(u, v), max(u, v)) in edges
        seen = set()
        for elems in m.sensor_elements:
            elems = set(elems.tolist())
            assert elems and not elems & seen
            seen |= elems

    def test_narrow_gap_between_interface_and_holdall(self):
        # inclusion hugging the hold-all boundary forces steep grading
        angles = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        poly = 0.5 + 0.13 * np.column_stack([np.cos(angles), np.sin(angles)])
        spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=0.06)
        m = mesh.build_mesh(spec)
        assert abs(m.areas().sum() - 1.0) <= 1e-9
        assert m.areas().min() > 0.0
        inc_area = m.areas()[m.regions == 1].sum()
        assert abs(inc_area - shoelace(poly)) <= 0.02 * shoelace(poly)

    def test_skinny_constraint_through_dense_cloud(self):
        rng = np.random.default_rng(21)
        cloud = rng.random((120, 2))
        pts = np.vstack([[(0.0, 0.501), (1.0, 0.502)], cloud])
        tr = mesh.bowyer_watson(pts)
        mesh.recover_constraints(tr, [(0, 1, 0)])
        assert_segment_recovered(tr, 0, 1, 0)

    def test_build_deterministic(self):
        spec = mesh.GeometrySpec(
            spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
            robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
            h=0.09,
        )
        m1 = mesh.build_mesh(spec)
        m2 = mesh.build_mesh(spec)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.seg_nodes, m2.seg_nodes)

    @pytest.mark.parametrize("h, n_nodes, digest", [
        (0.04, 1665, "b05d47675c2048a72d6654549f11fed7956184c551739e59a8a39269fa843719"),
        (0.09, 464, "349a96fa9e487a25bec4e9935a2bf3174c2541c52bc2982f7d07f24de8ff94f7"),
    ], ids=["h0.04", "h0.09"])
    def test_default_geometry_mesh_bytes_pinned(self, h, n_nodes, digest):
        # any change of the mesher that moves a byte of the mesh (node
        # order, a coordinate, a tag) changes every downstream result
        spec = mesh.GeometrySpec(spline_control=mesh.DEFAULT_INCLUSION_CONTROL, h=h)
        m = mesh.build_mesh(spec)
        assert len(m.nodes) == n_nodes
        assert mesh_digest(m) == digest

    @pytest.mark.parametrize("layout, n_nodes, digest", [
        ({"robin_spans": [mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)]}, 1660,
         "c64b8340bfac272ad2362c246d97bf5fc6269395cb963c6e6ff236c1c20c5217"),
        ({"dirichlet_side": "all"}, 1665,
         "7202f9d49cc4929c15f21eeda6083cee42615b3974eec153cab9cb007dac904d"),
        ({"sensors": TOUCHING_SENSORS, "h": 0.05}, 1239,
         "b288ceb6ef970f7ec5b1adf8e9a6a87cc6f3dddb086ae38d188f479628d44dcd"),
        ({"inclusion_polygon": GON40, "h": 0.05}, 1110,
         "9c4dab575e5bcf4d96d2e3f97267cb23017939a4551fccc5ac76d81f19e3b053"),
        ({"spline_control": None, "sensors": [], "h": 0.1}, 302,
         "768249cb0e0156815e0dd1dec0693f131b7eafdeadb00e205d9cd2443fa3a921"),
        ROBIN_THREE_SIDES,
    ], ids=["case1-robin", "dirichlet-all", "touching-sensors", "polygon-40gon",
            "no-inclusion-no-sensors", "robin-three-sides"])
    def test_precedence_layout_mesh_bytes_pinned(self, layout, n_nodes, digest):
        # edges that several input polylines share: the tag must follow the
        # order outer, hold-all, sensor k (lowest k first); polygon-40gon and
        # no-inclusion-no-sensors pin an explicit polygon and criterion 10's
        # plain square, robin-three-sides the left, right and top spans
        spec = mesh.GeometrySpec(**{"spline_control": mesh.DEFAULT_INCLUSION_CONTROL,
                                    **layout})
        m = mesh.build_mesh(spec)
        assert len(m.nodes) == n_nodes
        assert mesh_digest(m) == digest

    def test_shared_edges_take_the_first_source(self):
        spec = mesh.GeometrySpec(spline_control=mesh.DEFAULT_INCLUSION_CONTROL,
                                 sensors=TOUCHING_SENSORS, h=0.05)
        m = mesh.build_mesh(spec)
        mid = 0.5 * (m.nodes[m.seg_nodes[:, 0]] + m.nodes[m.seg_nodes[:, 1]])
        x, y = mid[:, 0], mid[:, 1]

        def tags(mask):
            assert mask.any()
            return set(zip(m.seg_kind[mask].tolist(), m.seg_ref[mask].tolist()))

        # sensors 0 and 1 on the outer box: the outer boundary condition
        on_outer = ((np.abs(y) < 1e-9) & (x < 0.6)) | ((np.abs(x) < 1e-9) & (y < 0.3))
        assert tags(on_outer) == {("neumann", -1)}
        # sensor 2's right side is the hold-all's left side
        assert tags((np.abs(x - 0.35) < 1e-9) & (y > 0.35) & (y < 0.65)) == {("holdall", -1)}
        # the side sensors 0 and 1 share belongs to sensor 0
        assert tags((np.abs(x - 0.3) < 1e-9) & (y < 0.2)) == {("sensor", 0)}
        assert tags((np.abs(y - 0.2) < 1e-9) & (x > 0.3) & (x < 0.6)) == {("sensor", 1)}

    def test_node_cap_enforced(self):
        from diffdesign.errors import RefinementBudgetExceeded
        spec = mesh.GeometrySpec(sensors=[], h=0.02, node_cap=200)
        with pytest.raises(RefinementBudgetExceeded):
            mesh.build_mesh(spec)


class TestSpecValidation:
    def test_sensor_overlapping_holdall(self):
        spec = mesh.GeometrySpec(sensors=[(0.3, 0.3, 0.6, 0.6)])
        with pytest.raises(ValueError):
            spec.validate()

    def test_overlapping_sensors(self):
        spec = mesh.GeometrySpec(sensors=[(0.0, 0.0, 0.2, 0.2), (0.1, 0.1, 0.3, 0.3)])
        with pytest.raises(ValueError):
            spec.validate()

    def test_inclusion_outside_holdall(self):
        poly = np.array([(0.2, 0.2), (0.5, 0.2), (0.5, 0.5), (0.2, 0.5)])
        spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[])
        with pytest.raises(ValueError):
            spec.validate()

    def test_unknown_robin_side(self):
        # the schema's enum guards JSON input only; a span built in Python
        # reaches validate as it is
        spec = mesh.GeometrySpec(robin_spans=[mesh.RobinSpan("front", 0.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="unknown side 'front'"):
            spec.validate()

    @pytest.mark.parametrize("lo, hi, beta", [
        (-0.5, 0.5, 10.0), (0.5, 1.5, 10.0), (math.nan, 0.5, 10.0), (0.0, 0.5, -1.0),
        (0.0, 0.5, math.nan), (0.3, 0.3, 10.0),
    ], ids=["lo-below-0", "hi-above-1", "nan-lo", "negative-beta", "nan-beta", "zero-length"])
    def test_robin_span_bounds(self, lo, hi, beta):
        # the schema's bounds guard JSON input only; unchecked, a span from
        # -0.5 meshed outside the unit square (area 1.25 at h = 0.1)
        spec = mesh.GeometrySpec(robin_spans=[mesh.RobinSpan("bottom", lo, hi, beta)])
        with pytest.raises(ValueError, match="needs 0 <= lo < hi <= 1, beta >= 0"):
            spec.validate()

    @pytest.mark.parametrize("second, first", [
        (("bottom", 0.4, 1.0), 0), (("bottom", 0.1, 0.2), 0), (("left", 0.0, 1.0), 1),
    ], ids=["overlap", "nested", "whole-side"])
    def test_overlapping_robin_spans(self, second, first):
        # unchecked, the first span took the shared edges: bottom [0, 0.6]
        # and [0.4, 1.0] gave [0.4, 0.6] beta 10 at h = 0.1
        spans = [mesh.RobinSpan("bottom", 0.0, 0.6, 10.0), mesh.RobinSpan("left", 0.2, 0.5, 1.0),
                 mesh.RobinSpan(*second, 5.0)]
        with pytest.raises(ValueError, match=rf"robin_spans\[2\]: overlaps "
                                             rf"robin_spans\[{first}\] on side '{second[0]}'"):
            mesh.GeometrySpec(robin_spans=spans).validate()

    def test_robin_spans_may_share_an_end_point(self):
        spec = mesh.GeometrySpec(robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0),
                                              mesh.RobinSpan("bottom", 0.5, 1.0, 5.0)], h=0.1)
        m = mesh.build_mesh(spec)
        assert set(zip(m.seg_ref[m.seg_kind == "robin"].tolist(),
                       m.seg_beta[m.seg_kind == "robin"].tolist())) == {(0, 10.0), (1, 5.0)}

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
    def test_mesh_size_positive(self, h):
        # unchecked, h = 0 divided by zero while subdividing the input
        # polylines and h < 0 refined up to the node cap
        with pytest.raises(ValueError, match=f"h = {h} is not positive"):
            mesh.GeometrySpec(h=h).validate()

    def test_default_spline_inside_holdall(self):
        poly = mesh.sample_closed_bspline(mesh.DEFAULT_INCLUSION_CONTROL, 64)
        assert np.all(poly[:, 0] > 0.36) and np.all(poly[:, 0] < 0.64)
        assert np.all(poly[:, 1] > 0.36) and np.all(poly[:, 1] < 0.64)


@pytest.fixture(scope="module")
def robin_three_sides_mesh():
    layout, _, _ = ROBIN_THREE_SIDES
    return mesh.build_mesh(mesh.GeometrySpec(
        spline_control=mesh.DEFAULT_INCLUSION_CONTROL, **layout))


class TestSparseOperators:
    @pytest.mark.parametrize("span", [0, 1, 2], ids=["top", "left", "right"])
    def test_robin_edge_mass_exact_for_quadratics(self, robin_three_sides_mesh, span):
        # u is the running coordinate on the span and 0 elsewhere, so
        # u^T R u = beta * integral of s^2 over [lo, hi]: the P1 edge mass is
        # exact for products of P1 functions. (On the whole side, the top
        # span would pick up the right span's edge at their shared corner.)
        # 1^T R 1 alone cannot tell the local matrix [[2, 1], [1, 2]] from
        # [[1, 2], [2, 1]]; this can
        m = robin_three_sides_mesh
        side, lo, hi, beta = dataclasses.astuple(ROBIN_THREE_SIDES[0]["robin_spans"][span])
        axis, value = mesh.SIDES[side]
        coord = m.nodes[:, 1 - axis]
        on_span = ((np.abs(m.nodes[:, axis] - value) <= 1e-12)
                   & (coord >= lo - 1e-12) & (coord <= hi + 1e-12))
        u = np.where(on_span, coord, 0.0)
        robin = fem.assemble_heat(m).robin
        exact = beta * (hi ** 3 - lo ** 3) / 3.0
        assert abs(u @ (robin @ u) - exact) <= 1e-12 * exact

    def test_zero_flux_edges_assemble_nothing(self):
        # a homogeneous Neumann edge adds no boundary term to the weak form;
        # the default layout has no Robin span
        m = mesh.build_mesh(mesh.GeometrySpec(spline_control=mesh.DEFAULT_INCLUSION_CONTROL))
        assert fem.assemble_heat(m).robin.nnz == 0

    def test_elasticity_annihilates_rigid_motions(self, robin_three_sides_mesh):
        m = robin_three_sides_mesh
        stiff = elasticity_matrix(m, m.holdall_closure)
        x, y = m.nodes.T
        scale = abs(stiff).max()
        for motion in (np.column_stack([np.ones_like(x), 0 * x]),
                       np.column_stack([0 * x, np.ones_like(x)]),
                       np.column_stack([-y, x])):
            flat = motion.ravel()
            residual = np.abs(stiff @ flat).max()
            assert residual <= 1e-12 * scale * np.abs(flat).max()
