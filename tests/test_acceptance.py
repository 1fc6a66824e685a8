"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
paper-shaped stages are shared through module fixtures so the whole gate
stays within the stated runtime budgets.
"""

import time

import numpy as np
import pytest

from diffdesign import config, fem, fim, mesh, numerics, oed, pipeline, shape

from test_fem import crossed_mesh, fd_material_derivative_oracle
from test_mesh import circumcircle_oracle
from test_oed import a_criterion, synthetic_tensor
from test_shape import dijkstra_oracle


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """Full paper-shaped 2D pipeline: 8 sensors, 22 instants, C_w = 10,
    N_basis = 9, Robin beta = 10 on the lower-left boundary."""
    cache = tmp_path_factory.mktemp("cache")
    cfg = config.load_config(config.comparison_case_dicts()["case1"])
    start = time.perf_counter()
    pipe = pipeline.Pipeline(cfg, tmp_path_factory.mktemp("case1"),
                             cache_dir=cache, log=False)
    result = pipe.result()
    elapsed = time.perf_counter() - start
    return {"config": cfg, "pipe": pipe, "result": result,
            "tensor": pipe.tensor(), "elapsed": elapsed, "cache": cache}


@pytest.fixture(scope="module")
def five_cases(paper_run, tmp_path_factory):
    cases = config.comparison_case_dicts()
    cfgs = [config.load_config(cases[k])
            for k in ("case1", "case2", "case3", "case4", "case5")]
    rows = pipeline.compare_cases(cfgs, tmp_path_factory.mktemp("compare"),
                                  cache_dir=paper_run["cache"], log=False)
    return {case: (phi, recip) for case, phi, recip in rows}


def test_criterion_1_fem_convergence():
    start = time.perf_counter()
    errors = []
    for n in (8, 16):
        m = crossed_mesh(n)

        def exact(t, pts):
            return (1.0 - np.exp(-t)) * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

        def source(t, m=m):
            s = np.sin(np.pi * m.nodes[:, 0]) * np.sin(np.pi * m.nodes[:, 1])
            return (np.exp(-t) + 2.0 * np.pi ** 2 * (1.0 - np.exp(-t))) * s

        ops = fem.assemble_heat(m, kappa_bulk=1.0, kappa_inc=1.0, u_d=0.0,
                                source=source)
        traj = fem.solve_forward(ops, horizon=0.2, n_steps=80, tol=1e-12)
        err = traj.values[-1] - exact(0.2, m.nodes)
        errors.append(np.sqrt(err @ (ops.mass @ err)))
    elapsed = time.perf_counter() - start
    ratio = errors[0] / errors[1]
    check(1, 3.4 <= ratio <= 4.6 and elapsed < 60.0,
          f"L2 error ratio under h -> h/2: {ratio:.3f} (target [3.4, 4.6]), "
          f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_material_derivative_oracle():
    angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    poly = 0.5 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    spec = mesh.GeometrySpec(
        inclusion_polygon=poly,
        sensors=[(0.05, 0.05, 0.35, 0.35), (0.65, 0.35, 0.95, 0.65)],
        robin_spans=[mesh.RobinSpan("bottom", 0.0, 0.5, 10.0)],
        h=0.09,
    )
    m = mesh.build_mesh(spec)
    ops = fem.assemble_heat(m)
    forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
    curve = shape.interface_from_mesh(m)
    vfields = shape.extend_velocity(m, curve, shape.gaussian_bump_basis(curve, 3)[:1],
                                    tol=1e-12)
    [vfield] = vfields.values
    [delta] = fem.solve_sensitivity(ops, forward, vfields, tol=1e-12).values
    sensor_nodes = np.unique(np.concatenate(
        [m.triangles[m.sensor_elements[0]].ravel(),
         m.triangles[m.sensor_elements[1]].ravel()]))
    scale = np.abs(delta[:, sensor_nodes]).max()
    errs = {}
    for tau_fd in (1e-3, 1e-4):
        oracle = fd_material_derivative_oracle(m, vfield, tau_fd,
                                               n_steps=8, tol=1e-13)
        errs[tau_fd] = np.abs((oracle.values - delta)[:, sensor_nodes]).max()
    ratio = errs[1e-3] / errs[1e-4]
    rel = errs[1e-4] / scale
    check(2, 5.0 <= ratio <= 15.0 and rel <= 3e-2,
          f"error ratio 1e-3/1e-4: {ratio:.2f} (target [5, 15]), "
          f"relative error at sensors {rel:.2e} <= 3e-2")


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        tensor = synthetic_tensor(2, 3, 4, rng)
        w = 0.2 + 0.6 * rng.random(tensor.n_weights)
        grad = oed.ReducedProblem(tensor).gradient(w)
        step = 1e-6
        for idx in range(tensor.n_weights):
            wp, wm = w.copy(), w.copy()
            wp[idx] += step
            wm[idx] -= step
            fd = (a_criterion(fim.combine(wp, tensor), tensor.gramian)
                  - a_criterion(fim.combine(wm, tensor), tensor.gramian)) / (2 * step)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), 1e-12))
    check(3, worst <= 1e-5,
          f"max relative deviation from central differences over 20 designs: "
          f"{worst:.2e} <= 1e-5")


def test_criterion_4_criterion_identities():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        a = rng.standard_normal((n, n))
        upsilon = a @ a.T + 0.5 * np.eye(n)
        b = rng.standard_normal((n, n))
        gram = b @ b.T + n * np.eye(n)
        eig = numerics.generalized_eig(upsilon, gram)
        phi = a_criterion(upsilon, gram)
        worst = max(worst, abs(phi - np.sum(1.0 / eig.values)) / abs(phi))
    # published 2D spectrum: reciprocal eigenvalues must add up to the
    # reported criterion value within table rounding
    recip = [0.27, 0.49, 0.77, 1.04, 1.24, 2.58, 3.39, 6.68, 16.48]
    table_gap = abs(sum(recip) - 32.93)
    check(4, worst <= 1e-8 and table_gap <= 0.05,
          f"trace identity on 50 pencils: {worst:.2e} <= 1e-8; "
          f"published spectrum sums to 32.93 +- {table_gap:.3f}")


def grid_search_phi(tensor, budget, step=1e-3):
    """Exhaustive minimum over the restricted simplex for 3 weights, 2x2 FIMs."""
    a = np.arange(0.0, 1.0 + step / 2, step)
    w1, w2 = np.meshgrid(a, a, indexing="ij")
    w3 = budget - w1 - w2
    valid = (w3 >= -1e-12) & (w3 <= 1.0 + 1e-12)
    flat = tensor.flat()
    ups = (w1[..., None, None] * flat[0] + w2[..., None, None] * flat[1]
           + w3[..., None, None] * flat[2])
    det = ups[..., 0, 0] * ups[..., 1, 1] - ups[..., 0, 1] * ups[..., 1, 0]
    b = tensor.gramian
    tr = (b[0, 0] * ups[..., 1, 1] - b[0, 1] * ups[..., 1, 0]
          - b[1, 0] * ups[..., 0, 1] + b[1, 1] * ups[..., 0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        phis = np.where(valid & (det > 0.0), tr / det, np.inf)
    return float(phis.min())


def test_criterion_5_small_scale_optimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(3):
        tensor = synthetic_tensor(1, 3, 2, rng)
        for budget in (1, 2):
            result = oed.simplicial_decomposition(tensor, budget=budget,
                                                  tol_outer=1e-6)
            reference = grid_search_phi(tensor, budget, step=1e-3)
            gap = (result.phi - reference) / abs(reference)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    check(5, worst <= 1e-4 and elapsed < 10.0,
          f"max relative gap to 1e-3 grid search over 3 tensors x 2 budgets: "
          f"{worst:.2e} <= 1e-4, runtime {elapsed:.1f}s < 10s")


def test_criterion_6_paper_shaped_run(paper_run):
    result = paper_run["result"]
    elapsed = paper_run["elapsed"]
    w = result.design.weights
    counts = result.counts
    n_idx = len(w)
    budget_gap = abs(w.sum() - 10.0)
    zero_frac = counts["zero"] / n_idx
    ok = (budget_gap <= 1e-8
          and zero_frac >= 0.85
          and counts["fractional"] <= 9 + 2
          and result.converged
          and result.violations.max() <= 1e-3 * result.xi
          and elapsed < 300.0)
    check(6, ok,
          f"sum(w)-C_w = {budget_gap:.1e} <= 1e-8; zeros {counts['zero']}/{n_idx} "
          f"({100 * zero_frac:.0f}% >= 85%); fractional {counts['fractional']} <= 11; "
          f"certificate {result.violations.max() / result.xi:.1e} <= 1e-3; "
          f"runtime {elapsed:.0f}s < 300s")


def test_criterion_7_case_ordering(five_cases):
    phi = {case: v[0] for case, v in five_cases.items()}
    r31 = phi["case3"] / phi["case1"]
    r54 = phi["case5"] / phi["case4"]
    worst_is_5 = phi["case5"] == max(phi.values())
    check(7, r31 >= 2.0 and r54 >= 2.0 and worst_is_5,
          f"case3/case1 = {r31:.2f} >= 2, case5/case4 = {r54:.2f} >= 2, "
          f"uniform-Neumann worst: {worst_is_5} "
          f"(phis: {', '.join(f'{c}={phi[c]:.3e}' for c in sorted(phi))})")


def test_criterion_8_eigen_gap(paper_run):
    recip = np.sort(1.0 / paper_run["result"].eigenvalues)
    gap = recip[-1] / recip[-2]
    check(8, gap >= 1.5,
          f"largest reciprocal eigenvalue over second largest: {gap:.2f} >= 1.5")


def test_criterion_9_spatial_consistency(paper_run):
    rng = np.random.default_rng(104)
    tensor_1t = synthetic_tensor(6, 1, 3, rng)
    st = oed.simplicial_decomposition(tensor_1t, budget=2)
    sp = oed.solve_spatial(tensor_1t, budget=2)
    w_gap = np.abs(st.design.weights - sp.design.weights).max()

    tensor = paper_run["tensor"]
    wk = rng.random(tensor.n_obs)
    lhs = fim.combine(wk, fim.spatial_tensor(tensor))
    rhs = fim.combine(np.repeat(wk, tensor.n_time), tensor)
    agg_gap = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    check(9, w_gap <= 1e-10 and agg_gap <= 1e-12,
          f"single-instant solvers agree to {w_gap:.1e} <= 1e-10; "
          f"time-aggregation identity to {agg_gap:.1e} <= 1e-12")


def test_criterion_10_geometry_graph_suites(paper_run):
    m = paper_run["pipe"].mesh()
    assert len(m.nodes) <= 2000
    spec = mesh.GeometrySpec(sensors=[], h=0.1)
    plain = mesh.build_mesh(spec)
    delaunay_ok = circumcircle_oracle(plain.nodes, plain.triangles)

    rng = np.random.default_rng(105)
    n = 30
    edges = [(int(rng.integers(0, i)), i, float(rng.random() + 0.1))
             for i in range(1, n)]
    edges += [(int(i), int(j), float(rng.random() + 0.1))
              for i, j in rng.integers(0, n, (40, 2)) if i != j]
    dist = shape.graph_geodesics((n, edges))
    fw_ok = all(
        np.allclose(dist[src], dijkstra_oracle(n, edges, src), atol=1e-12)
        for src in range(n)
    )

    ring = [(i, (i + 1) % 16, 1.0) for i in range(16)]
    ring_dist = shape.graph_geodesics((16, ring))
    centers_a = shape.farthest_point_centers(ring_dist, 4, seed=0)
    centers_b = shape.farthest_point_centers(ring_dist, 4, seed=0)
    antipodal = shape.farthest_point_centers(ring_dist, 2, seed=0) == [0, 8]
    fps_ok = centers_a == centers_b and antipodal

    check(10, delaunay_ok and fw_ok and fps_ok,
          f"empty-circumcircle oracle on {len(plain.nodes)} nodes: {delaunay_ok}; "
          f"Floyd-Warshall vs Dijkstra on 30 nodes: {fw_ok}; "
          f"center sampling deterministic and antipodal: {fps_ok}")
