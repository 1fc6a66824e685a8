import dataclasses
import heapq
import math

import numpy as np
import pytest

from diffdesign import mesh, numerics, shape
from diffdesign.errors import CentersOutOfRange, DisconnectedGraph, MultipleLoops, OpenLoop


def dijkstra_oracle(n, edges, source):
    adj = {i: [] for i in range(n)}
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def rows(fields, index):
    """The block of the fields selected by `index` (a slice or id list)."""
    return dataclasses.replace(fields, values=fields.values[index])


def elasticity_matrix(m, elements):
    """The default-Lame elasticity stiffness on the given elements of m."""
    tris = m.triangles[elements]
    g, area = mesh.p1_gradients(m.nodes, tris)
    return mesh.p1_elasticity(tris, g, area, shape.LAME_LAMBDA_DEFAULT,
                              shape.LAME_MU_DEFAULT, len(m.nodes))


def segments_mesh(segments, kind="interface"):
    """A hand-built mesh with no triangles, only the given segments, all of
    one kind: all interface_from_mesh reads. Nodes 0-3 are the unit square's
    corners, counter-clockwise, and 4-7 those of a square inside it."""
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    n = len(segments)
    return mesh.Mesh(nodes=np.array(corners + [(0.5 * x + 0.25, 0.5 * y + 0.25)
                                               for x, y in corners]),
                     triangles=np.zeros((0, 3), dtype=int), regions=np.zeros(0, dtype=int),
                     seg_nodes=np.array(segments, dtype=int).reshape(n, 2),
                     seg_kind=np.full(n, kind, dtype="U9"), seg_ref=np.full(n, -1),
                     seg_beta=np.zeros(n))


@pytest.fixture(scope="module")
def square_interface_mesh():
    poly = np.array([(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)])
    spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=0.08)
    return mesh.build_mesh(spec)


@pytest.fixture(scope="module")
def circle_interface_mesh():
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    poly = 0.5 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=0.08)
    return mesh.build_mesh(spec)


class TestInterfaceCurve:
    def test_square_perimeter(self, square_interface_mesh):
        curve = shape.interface_from_mesh(square_interface_mesh)
        assert abs(curve.length - 0.8) <= 1e-10

    def test_circle_perimeter(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        target = 2.0 * np.pi * 0.1
        assert abs(curve.length - target) <= 0.005 * target

    def test_arc_strictly_increasing(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        assert np.all(np.diff(curve.arc) > 0.0)
        assert curve.arc[0] == 0.0
        # closing segment accounts for the rest of the length
        last = curve.arc[-1] + np.linalg.norm(curve.coords()[-1] - curve.coords()[0])
        assert abs(last - curve.length) <= 1e-12

    def test_start_vertex_lexicographic(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        pts = curve.coords()
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        assert order[0] == 0

    def test_normals_outward_and_unit(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        pts = curve.coords()
        centroid = pts.mean(axis=0)
        assert np.allclose(np.linalg.norm(curve.normals, axis=1), 1.0, atol=1e-10)
        assert np.all(np.einsum("ij,ij->i", curve.normals, pts - centroid) > 0.0)

    def test_closed_loop_of_a_hand_built_mesh(self):
        curve = shape.interface_from_mesh(segments_mesh([(0, 1), (2, 1), (2, 3), (3, 0)]))
        assert curve.vertices.tolist() == [0, 1, 2, 3]
        assert curve.length == 4.0

    @pytest.mark.parametrize("segments, kind, message", [
        ([(0, 1), (1, 2), (2, 3)], "interface", "do not form a closed loop"),
        ([(0, 1), (1, 2), (2, 0), (0, 3)], "interface", "do not form a closed loop"),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], "dirichlet", "no interface edges"),
    ], ids=["open-chain", "branch", "no-interface-edges"])
    def test_open_loop(self, segments, kind, message):
        with pytest.raises(OpenLoop, match=message):
            shape.interface_from_mesh(segments_mesh(segments, kind))

    def test_two_loops(self):
        # two closed loops, the outer square and the inner one
        outer = [(0, 1), (1, 2), (2, 3), (3, 0)]
        inner = [(4, 5), (5, 6), (6, 7), (7, 4)]
        with pytest.raises(MultipleLoops, match="more than one closed loop"):
            shape.interface_from_mesh(segments_mesh(outer + inner))

    def test_normals_point_into_bulk(self, circle_interface_mesh):
        m = circle_interface_mesh
        curve = shape.interface_from_mesh(m)
        probes = curve.coords() + 1e-3 * curve.normals
        poly = curve.coords()
        from diffdesign.mesh import _points_in_polygon
        assert not _points_in_polygon(probes, poly).any()


class TestGaussianBumps:
    def test_amplitude_one_at_center(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        r_c = float(curve.arc[5])
        amplitudes = shape.gaussian_bump_basis(curve, 2, slope=100.0, centers=[r_c])
        assert amplitudes[0, 5] == 1.0

    def test_slope_value(self):
        # amplitude at distance 0.1 with slope 100 is exp(-1)
        assert abs(math.exp(-100.0 * 0.1 ** 2) - 0.36787944117144233) < 1e-15

    def test_wraparound_distance_simplification(self):
        # min(|r-c|, min(L-r+c, L-c+r)) equals min(|r-c|, L-|r-c|)
        rng = np.random.default_rng(0)
        length = 0.8
        r = rng.random(100) * length
        c = rng.random(100) * length
        lhs = np.minimum(np.abs(r - c), np.minimum(length - r + c, length - c + r))
        rhs = shape.wraparound_distance(r, c, length).diagonal()
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_last_field_constant(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        amplitudes = shape.gaussian_bump_basis(curve, 9)
        assert np.all(amplitudes[-1] == 1.0)
        assert len(amplitudes) == 9

    def test_fields_parallel_to_normals(self, circle_interface_mesh):
        m = circle_interface_mesh
        curve = shape.interface_from_mesh(m)
        fields = shape.extend_velocity(m, curve, shape.gaussian_bump_basis(curve, 5))
        for f in fields.values[:, curve.vertices]:
            cross = (f[:, 0] * curve.normals[:, 1]
                     - f[:, 1] * curve.normals[:, 0])
            assert np.abs(cross).max() <= 1e-10

    def test_equidistant_maxima(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        amplitudes = shape.gaussian_bump_basis(curve, 9)
        centers = [i * curve.length / 8 for i in range(8)]
        for a, c in zip(amplitudes[:-1], centers):
            peak = curve.arc[np.argmax(a)]
            d = min(abs(peak - c), curve.length - abs(peak - c))
            assert d <= curve.length / len(curve.vertices) + 1e-12

    def test_centers_out_of_range(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        with pytest.raises(CentersOutOfRange):
            shape.gaussian_bump_basis(curve, 2, centers=[curve.length + 0.1])


class TestGeodesics:
    def test_path_graph(self):
        dist = shape.graph_geodesics((3, [(0, 1, 1.0), (1, 2, 1.0)]))
        assert dist[0, 2] == 2.0

    def test_triangle_graph(self):
        dist = shape.graph_geodesics((3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
        off = dist[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_against_dijkstra(self):
        rng = np.random.default_rng(11)
        n = 30
        edges = []
        for i in range(1, n):
            edges.append((rng.integers(0, i), i, float(rng.random() + 0.1)))
        for _ in range(40):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((int(i), int(j), float(rng.random() + 0.1)))
        dist = shape.graph_geodesics((n, edges))
        for src in range(n):
            oracle = dijkstra_oracle(n, edges, src)
            assert np.allclose(dist[src], oracle, atol=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(12)
        n = 12
        edges = [(i, (i + 1) % n, float(rng.random() + 0.5)) for i in range(n)]
        dist = shape.graph_geodesics((n, edges))
        assert np.allclose(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        viol = dist[:, :, None] + dist[None, :, :] - dist[:, None, :]
        assert viol.min() >= -1e-12

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            shape.graph_geodesics((4, [(0, 1, 1.0), (2, 3, 1.0)]))

    def test_loop_matches_wraparound_arc_distance(self, circle_interface_mesh):
        curve = shape.interface_from_mesh(circle_interface_mesh)
        dist = shape.graph_geodesics(curve)
        analytic = shape.wraparound_distance(curve.arc, curve.arc, curve.length)
        seg_max = np.max(np.diff(np.concatenate([curve.arc, [curve.length]])))
        assert np.abs(dist - analytic).max() <= seg_max + 1e-12


class TestFarthestPointCenters:
    def test_single_center(self):
        dist = shape.graph_geodesics((4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))
        assert shape.farthest_point_centers(dist, 1, seed=2) == [2]

    def test_antipodal_on_even_polygon(self):
        n = 16
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        dist = shape.graph_geodesics((n, edges))
        centers = shape.farthest_point_centers(dist, 2, seed=0)
        assert centers == [0, n // 2]

    def test_four_centers_on_64gon(self):
        n = 64
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        dist = shape.graph_geodesics((n, edges))
        centers = shape.farthest_point_centers(dist, 4, seed=0)
        pair_min = min(dist[a, b] for a in centers for b in centers if a != b)
        assert pair_min >= n / 4 - 1

    def test_matches_exhaustive_greedy(self):
        rng = np.random.default_rng(13)
        n = 20
        edges = [(i, (i + 1) % n, float(rng.random() + 0.2)) for i in range(n)]
        dist = shape.graph_geodesics((n, edges))
        got = shape.farthest_point_centers(dist, 5, seed=3)

        chosen = [3]
        for _ in range(4):
            best, best_score = None, -math.inf
            for x in range(n):
                if x in chosen:
                    continue
                aug = chosen + [x]
                score = min(dist[a, b] for a in aug for b in aug if a != b)
                if score > best_score:
                    best, best_score = x, score
            chosen.append(best)
        assert got == chosen

    def test_deterministic(self):
        n = 10
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        dist = shape.graph_geodesics((n, edges))
        a = shape.farthest_point_centers(dist, 4, seed=0)
        b = shape.farthest_point_centers(dist, 4, seed=0)
        assert a == b


@pytest.fixture(scope="module")
def extended_fields(circle_interface_mesh):
    m = circle_interface_mesh
    curve = shape.interface_from_mesh(m)
    bumps = shape.gaussian_bump_basis(curve, 9)
    fields = shape.extend_velocity(m, curve, bumps, tol=1e-12)
    return m, curve, bumps, fields


class TestExtendVelocity:
    def test_zero_data_zero_field(self, circle_interface_mesh):
        m = circle_interface_mesh
        curve = shape.interface_from_mesh(m)
        v = shape.extend_velocity(m, curve, np.zeros((1, len(curve.vertices))))
        assert np.all(v.values == 0.0)

    def test_boundary_data_exact(self, extended_fields):
        m, curve, bumps, fields = extended_fields
        for b, f in zip(bumps, fields.values):
            assert np.array_equal(f[curve.vertices], b[:, None] * curve.normals)
            hold_nodes = np.unique(m.seg_nodes[m.seg_kind == "holdall"])
            assert np.all(f[hold_nodes] == 0.0)

    def test_zero_outside_holdall(self, extended_fields):
        m, _, _, fields = extended_fields
        outside = np.setdiff1d(np.arange(len(m.nodes)),
                               np.unique(m.triangles[m.holdall_closure]))
        for f in fields.values:
            assert np.all(f[outside] == 0.0)

    def test_linearity(self, circle_interface_mesh):
        m = circle_interface_mesh
        curve = shape.interface_from_mesh(m)
        b = shape.gaussian_bump_basis(curve, 2)[0]
        v1, v3 = shape.extend_velocity(m, curve, [b, 3.0 * b], tol=1e-13).values
        assert np.abs(v3 - 3.0 * v1).max() <= 1e-10

    def test_energy_optimality(self, extended_fields):
        m, curve, _, fields = extended_fields
        support = m.holdall_closure
        stiff = elasticity_matrix(m, support)
        hold_nodes = m.seg_nodes[m.seg_kind == "holdall"].ravel()
        fixed = np.unique(np.concatenate([curve.vertices, hold_nodes]))
        involved = np.unique(m.triangles[support])
        free = np.setdiff1d(involved, fixed)
        rng = np.random.default_rng(5)
        w = np.zeros((len(m.nodes), 2))
        w[free] = rng.standard_normal((len(free), 2))
        v = fields.values[0].ravel()
        wf = w.ravel()
        energy = v @ (stiff @ v)
        for eps in (1e-3, -1e-3):
            pert = v + eps * wf
            assert pert @ (stiff @ pert) > energy

    def test_matches_direct_sparse_solve(self, circle_interface_mesh):
        # same reduced elasticity system solved by an unrelated solver
        import scipy.sparse.linalg as spla
        m = circle_interface_mesh
        curve = shape.interface_from_mesh(m)
        b = shape.gaussian_bump_basis(curve, 3)[1]
        [mine] = shape.extend_velocity(m, curve, [b], tol=1e-13).values

        support = m.holdall_closure
        stiff = elasticity_matrix(m, support)
        values = np.zeros((len(m.nodes), 2))
        values[curve.vertices] = b[:, None] * curve.normals
        hold_nodes = m.seg_nodes[m.seg_kind == "holdall"].ravel()
        fixed_nodes = np.unique(np.concatenate([curve.vertices, hold_nodes]))
        involved = np.unique(m.triangles[support])
        free_nodes = np.setdiff1d(involved, fixed_nodes)
        free = np.column_stack([2 * free_nodes, 2 * free_nodes + 1]).ravel()
        fixed = np.column_stack([2 * fixed_nodes, 2 * fixed_nodes + 1]).ravel()
        flat = values.ravel()
        rhs = -stiff[free][:, fixed] @ flat[fixed]
        direct = spla.spsolve(stiff[free][:, free].tocsc(), rhs)
        scale = max(np.abs(direct).max(), 1e-30)
        assert np.abs(mine.ravel()[free] - direct).max() <= 1e-8 * scale

    def test_block_matches_fields_extended_alone(self, extended_fields):
        m, curve, bumps, fields = extended_fields
        for b, f in zip(bumps[::4], fields.values[::4]):
            [alone] = shape.extend_velocity(m, curve, [b], tol=1e-12).values
            assert np.array_equal(f, alone)

    def test_mesh_deformation_keeps_positive_areas(self, extended_fields):
        m, _, _, fields = extended_fields
        for f in fields.values[:2]:
            moved = m.nodes + 1e-3 * f
            p = moved[m.triangles]
            areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                           - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
            assert areas.min() > 0.0


class TestGramian:
    def test_single_field_positive(self, extended_fields):
        _, _, _, fields = extended_fields
        b = shape.gramian(rows(fields, slice(0, 1)))
        assert b.shape == (1, 1)
        assert b[0, 0] > 0.0

    def test_duplicated_field_rank_one(self, extended_fields):
        _, _, _, fields = extended_fields
        b = shape.gramian(rows(fields, [0, 0]))
        assert abs(np.linalg.det(b)) <= 1e-10 * b[0, 0] ** 2

    def test_nine_bumps_spd(self, extended_fields):
        _, _, _, fields = extended_fields
        b = shape.gramian(fields)
        numerics.cholesky(b)  # raises if not SPD

    def test_permutation_identity(self, extended_fields):
        _, _, _, fields = extended_fields
        b = shape.gramian(rows(fields, slice(0, 4)))
        perm = [2, 0, 3, 1]
        bp = shape.gramian(rows(fields, perm))
        p = np.zeros((4, 4))
        for new, old in enumerate(perm):
            p[old, new] = 1.0
        assert np.array_equal(bp, p.T @ b @ p)

    def test_generalized_eigs_basis_independent(self, extended_fields):
        # five bumps keep the Gramian well conditioned on the circle fixture;
        # nine symmetric bumps are nearly dependent and not a fair test
        _, _, _, fields = extended_fields
        b = shape.gramian(rows(fields, [0, 1, 2, 3, 8]))
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5))
        upsilon = a.T @ a                      # synthetic SPD information matrix
        t = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
        ref = numerics.generalized_eig(upsilon, b)
        tra = numerics.generalized_eig(t.T @ upsilon @ t, t.T @ b @ t)
        assert np.allclose(ref.values, tra.values, rtol=1e-7, atol=1e-9)
