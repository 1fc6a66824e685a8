import dataclasses
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from diffdesign import fem, mesh, shape
from diffdesign.errors import NoConvergence

from test_shape import rows

ROOT = Path(__file__).resolve().parents[1]


class MeshInversion(Exception):
    """Node displacement produced a non-positive triangle area."""


def displaced_mesh(m, velocity, step):
    """Copy of the mesh with nodes moved by step * V, V the (n_nodes, 2)
    nodal velocity; connectivity and tags are unchanged. Raises
    MeshInversion when an element area turns non-positive."""
    moved = dataclasses.replace(m, nodes=m.nodes + step * velocity)
    if moved.areas().min() <= 0.0:
        raise MeshInversion(f"displacement step {step} inverts an element")
    return moved


def fd_material_derivative_oracle(m, velocity, tau_fd,
                                  kappa_bulk=fem.KAPPA_BULK_DEFAULT,
                                  kappa_inc=fem.KAPPA_INC_DEFAULT,
                                  u_d=fem.U_DIRICHLET_DEFAULT,
                                  horizon=fem.T_DEFAULT, n_steps=fem.N_STEPS_DEFAULT,
                                  central=False, tol=1e-12):
    """Finite-difference material derivative via node displacement.

    Solves the forward problem on meshes with nodes moved by +tau_fd (and
    -tau_fd for the central variant) along the nodal velocity V and
    differences the nodal
    trajectories; identical connectivity makes the nodal difference exactly
    the material derivative's finite difference.
    """
    def solve_on(moved):
        ops = fem.assemble_heat(moved, kappa_bulk=kappa_bulk,
                                kappa_inc=kappa_inc, u_d=u_d)
        return fem.solve_forward(ops, horizon=horizon, n_steps=n_steps, tol=tol)

    plus = solve_on(displaced_mesh(m, velocity, tau_fd))
    if central:
        minus = solve_on(displaced_mesh(m, velocity, -tau_fd))
        diff = (plus.values - minus.values) / (2.0 * tau_fd)
    else:
        base = solve_on(m)
        diff = (plus.values - base.values) / tau_fd
    return fem.Trajectory(times=plus.times, values=diff)


def crossed_mesh(n, dirichlet="all"):
    """Structured union-jack mesh of the unit square, built directly."""
    xs = np.linspace(0.0, 1.0, n + 1)
    grid = np.array([(x, y) for y in xs for x in xs])
    centers = np.array([((xs[i] + xs[i + 1]) / 2, (xs[j] + xs[j + 1]) / 2)
                        for j in range(n) for i in range(n)])
    nodes = np.vstack([grid, centers])
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + n + 1
            v11 = v01 + 1
            c = (n + 1) ** 2 + j * n + i
            tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    tris = np.asarray(tris, dtype=int)

    segs, kinds = [], []
    for i in range(n):
        bottom = (i, i + 1)
        top = (n * (n + 1) + i, n * (n + 1) + i + 1)
        left = (i * (n + 1), (i + 1) * (n + 1))
        right = (i * (n + 1) + n, (i + 1) * (n + 1) + n)
        for side, seg in (("bottom", bottom), ("top", top), ("left", left), ("right", right)):
            segs.append(seg)
            if dirichlet == "all" or dirichlet == side:
                kinds.append("dirichlet")
            else:
                kinds.append("neumann")
    segs = np.asarray(segs, dtype=int)
    return mesh.Mesh(
        nodes=nodes,
        triangles=tris,
        regions=np.zeros(len(tris), dtype=int),
        seg_nodes=segs,
        seg_kind=np.asarray(kinds, dtype="U9"),
        seg_ref=np.full(len(segs), -1, dtype=int),
        seg_beta=np.zeros(len(segs)),
    )


@pytest.fixture(scope="module")
def fixture_problem():
    """Circle inclusion with two sensors; the standard small test problem."""
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
    curve = shape.interface_from_mesh(m)
    bumps = shape.gaussian_bump_basis(curve, 3)
    fields = shape.extend_velocity(m, curve, bumps, tol=1e-12)
    return m, ops, fields


class TestAssembly:
    def test_zero_beta_zero_robin(self, fixture_problem):
        # the Robin coefficients come from the mesh's segment data
        m, ops, _ = fixture_problem
        assert np.abs(ops.robin.data).max() > 0.0
        zero = dataclasses.replace(m, seg_beta=np.zeros_like(m.seg_beta))
        robin = fem.assemble_heat(zero).robin
        assert robin.nnz == 0 or np.all(robin.data == 0.0)

    def test_total_mass_is_area(self, fixture_problem):
        _, ops, _ = fixture_problem
        ones = np.ones(len(ops.mesh.nodes))
        assert abs(ones @ (ops.mass @ ones) - 1.0) <= 1e-10

    def test_stiffness_rows_annihilate_constants(self):
        m = crossed_mesh(6)
        ops = fem.assemble_heat(m, kappa_bulk=1.0, kappa_inc=1.0)
        row_sums = np.asarray(ops.stiffness @ np.ones(len(m.nodes)))
        boundary = np.unique(m.seg_nodes)
        interior = np.setdiff1d(np.arange(len(m.nodes)), boundary)
        assert np.abs(row_sums[interior]).max() <= 1e-12

    def test_matrices_symmetric(self, fixture_problem):
        _, ops, _ = fixture_problem
        for mat in (ops.mass, ops.stiffness, ops.robin):
            assert abs(mat - mat.T).max() <= 1e-14

    def test_kappa_per_region(self, fixture_problem):
        m, ops, _ = fixture_problem
        assert np.all(ops.kappa[m.regions == 1] == fem.KAPPA_INC_DEFAULT)
        assert np.all(ops.kappa[m.regions == 0] == fem.KAPPA_BULK_DEFAULT)


class TestForward:
    def test_zero_dirichlet_zero_solution(self, fixture_problem):
        m, _, _ = fixture_problem
        ops = fem.assemble_heat(m, u_d=0.0)
        traj = fem.solve_forward(ops, horizon=5.0, n_steps=5)
        assert np.all(traj.values == 0.0)

    def test_steady_state_saturation(self):
        m = crossed_mesh(8)
        ops = fem.assemble_heat(m, kappa_bulk=0.1, kappa_inc=0.1, u_d=1.0)
        traj = fem.solve_forward(ops, horizon=200.0, n_steps=40, tol=1e-12)
        assert np.abs(traj.values[-1] - 1.0).max() < 1e-2

    def test_maximum_principle(self, fixture_problem):
        _, ops, _ = fixture_problem
        traj = fem.solve_forward(ops, horizon=10.0, n_steps=21)
        assert traj.values.min() >= -1e-9
        assert traj.values.max() <= 1.0 + 1e-9

    def test_initial_snapshot_zero(self, fixture_problem):
        _, ops, _ = fixture_problem
        traj = fem.solve_forward(ops, horizon=10.0, n_steps=5)
        assert np.all(traj.values[0] == 0.0)
        assert np.all(traj.values[1][ops.dirichlet_nodes] == 1.0)

    def test_unconditional_stability(self, fixture_problem):
        _, ops, _ = fixture_problem
        for n_steps in (10, 100):
            traj = fem.solve_forward(ops, horizon=10.0, n_steps=n_steps)
            energies = [np.sqrt(v @ (ops.mass @ v)) for v in traj.values]
            ones = np.ones(len(ops.mesh.nodes))
            bound = np.sqrt(ones @ (ops.mass @ ones))
            assert max(energies) <= bound * (1.0 + 1e-9)

    def test_step_matches_direct_sparse_solve(self, fixture_problem):
        # one backward-Euler step cross-checked against an unrelated solver
        import scipy.sparse.linalg as spla
        _, ops, _ = fixture_problem
        tau = 10.0 / 21
        traj = fem.solve_forward(ops, horizon=10.0, n_steps=21, tol=1e-13)
        free, a_ff, a_fc = ops.reduced_system(tau)
        lift = a_fc @ np.full(len(ops.dirichlet_nodes), ops.dirichlet_value)
        rhs = (ops.mass @ traj.values[3])[free] - lift
        direct = spla.spsolve(a_ff.tocsc(), rhs)
        scale = max(np.abs(direct).max(), 1e-30)
        assert np.abs(traj.values[4][free] - direct).max() <= 1e-8 * scale

    def test_manufactured_convergence(self):
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
        ratio = errors[0] / errors[1]
        assert 3.4 <= ratio <= 4.6


class TestSensitivity:
    def test_zero_velocity_zero_sensitivity(self, fixture_problem):
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=5)
        zero = shape.VelocityField(m, np.zeros_like(fields.values[:1]),
                                   fields.support)
        traj = fem.solve_sensitivity(ops, forward, zero)
        assert np.all(traj.values == 0.0)

    def test_linearity(self, fixture_problem):
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=5, tol=1e-12)
        v1, v2 = fields.values[:2]
        block = shape.VelocityField(m, np.stack([v1, v2, v1 + v2]), fields.support)
        d1, d2, d12 = fem.solve_sensitivity(ops, forward, block, tol=1e-12).values
        scale = np.abs(d12).max()
        assert np.abs(d12 - d1 - d2).max() <= 1e-9 * max(scale, 1.0)

    def test_rhs_zero_outside_support(self, fixture_problem):
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=5)
        from diffdesign.fem import _sensitivity_element_data, _sensitivity_rhs
        data = _sensitivity_element_data(ops, fields)
        rhs = _sensitivity_rhs(forward.values[3], forward.values[2], forward.tau,
                               *data, len(m.nodes))
        supported = np.unique(m.triangles[fields.support])
        outside = np.setdiff1d(np.arange(len(m.nodes)), supported)
        assert np.all(rhs[:, outside] == 0.0)

    def test_step_matches_direct_sparse_solve(self, fixture_problem):
        # one sensitivity step cross-checked against an unrelated solver
        import scipy.sparse.linalg as spla
        from diffdesign.fem import _sensitivity_element_data, _sensitivity_rhs
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=21, tol=1e-13)
        first = rows(fields, slice(0, 1))
        [traj] = fem.solve_sensitivity(ops, forward, first, tol=1e-13).values
        tau = forward.tau
        free, a_ff, _ = ops.reduced_system(tau)
        [load] = _sensitivity_rhs(forward.values[4], forward.values[3], tau,
                                  *_sensitivity_element_data(ops, first),
                                  len(m.nodes))
        rhs = (ops.mass @ traj[3])[free] + tau * load[free]
        direct = spla.spsolve(a_ff.tocsc(), rhs)
        scale = max(np.abs(direct).max(), 1e-30)
        assert np.abs(traj[4][free] - direct).max() <= 1e-8 * scale
        assert np.all(traj[:, ops.dirichlet_nodes] == 0.0)

    def test_mirror_symmetry(self):
        m = crossed_mesh(8, dirichlet="top")
        ops = fem.assemble_heat(m, kappa_bulk=0.5, kappa_inc=0.5)
        forward = fem.solve_forward(ops, horizon=2.0, n_steps=4, tol=1e-13)
        # mirror-symmetric velocity: V_x odd, V_y even under x -> 1-x
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        bump = np.exp(-8.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
        interior = (x > 1e-9) & (x < 1 - 1e-9) & (y > 1e-9) & (y < 1 - 1e-9)
        vals = np.zeros((len(m.nodes), 2))
        vals[interior, 0] = (np.sin(2.0 * np.pi * x) * bump)[interior]
        vals[interior, 1] = (np.sin(np.pi * x) * (y - 0.5) * bump)[interior]
        vfield = shape.VelocityField(m, vals[None], np.arange(len(m.triangles)))
        [traj] = fem.solve_sensitivity(ops, forward, vfield, tol=1e-13).values

        # node map x -> 1-x
        mirrored = m.nodes.copy()
        mirrored[:, 0] = 1.0 - mirrored[:, 0]
        order = np.lexsort((m.nodes[:, 1], m.nodes[:, 0]))
        order_m = np.lexsort((mirrored[:, 1], mirrored[:, 0]))
        perm = np.empty(len(m.nodes), dtype=int)
        perm[order] = order_m
        final = traj[-1]
        assert np.abs(final - final[perm]).max() <= 1e-9


class TestMetamorphic:
    def test_block_march_matches_fields_marched_alone(self, fixture_problem):
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        together = fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        for i, values in enumerate(together.values):
            alone = fem.solve_sensitivity(ops, forward, rows(fields, slice(i, i + 1)),
                                          tol=1e-12)
            assert np.array_equal(values, alone.values[0])
            assert np.array_equal(together.times, alone.times)

    def test_permuted_fields_permute_sensitivities(self, fixture_problem):
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        ref = fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        perm = [2, 0, 1]
        got = fem.solve_sensitivity(ops, forward, rows(fields, perm), tol=1e-12)
        for values, i in zip(got.values, perm):
            assert np.array_equal(values, ref.values[i])


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_cg_in(monkeypatch, side):
    """Make fem's CG raise NoConvergence only in the forked children
    (side "child") or only in this process (side "parent")."""
    here, real = os.getpid(), fem.cg_solve

    def cg_solve(*args, **kwargs):
        if (os.getpid() == here) == (side == "parent"):
            raise NoConvergence(f"CG stalled in the {side}")
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "cg_solve", cg_solve)


class TestGroupedMarch:
    """The fields march in one contiguous group per usable CPU: this process
    the first, a worker of a fork-context process pool each other."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_group_count_gives_the_same_bits(self, fixture_problem, monkeypatch,
                                                 cpus):
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 1)
        serial = fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        forks, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: cpus)
        grouped = fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        assert len(forks) == min(cpus, len(fields.values)) - 1
        for row, expected in zip(grouped.values, serial.values):
            assert np.array_equal(row, expected)
        assert_no_child_left()

    def test_serial_march_makes_no_pool(self, fixture_problem, monkeypatch):
        # one group needs neither fork nor the pool's semaphores
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(fem, "ProcessPoolExecutor", None)
        fem.solve_sensitivity(ops, forward, fields, tol=1e-12)

    @pytest.mark.parametrize("side", ["child", "parent"])
    def test_error_raised_and_children_reaped(self, fixture_problem, monkeypatch, side):
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 3)
        fail_cg_in(monkeypatch, side)
        with pytest.raises(NoConvergence, match=f"CG stalled in the {side}"):
            fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        assert_no_child_left()

    def test_child_stops_when_its_parent_is_gone(self, fixture_problem, monkeypatch):
        # a worker whose parent was killed sees another parent pid; here from
        # its first time step on, after the check at its start
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 2)
        here, real, calls = os.getpid(), os.getppid, []

        def getppid():
            if os.getpid() != here:
                calls.append(1)
                if len(calls) > 1:
                    return -1
            return real()

        monkeypatch.setattr(os, "getppid", getppid)
        with pytest.raises(RuntimeError, match="terminated abruptly"):
            fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        assert_no_child_left()

    def test_killed_worker_raises(self, fixture_problem, monkeypatch):
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 2)
        here, real, steps = os.getpid(), fem.cg_solve, []

        def cg_solve(*args, **kwargs):
            if os.getpid() != here:
                steps.append(1)
                if len(steps) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(fem, "cg_solve", cg_solve)
        with pytest.raises(RuntimeError, match="terminated abruptly"):
            fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        assert_no_child_left()

    def test_parent_error_stops_workers(self, fixture_problem, monkeypatch):
        # unstopped, the worker would take 8 x 0.1 s to reach its last step
        _, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 2)
        reached = fem._shared_zeros(1)     # steps the worker has solved
        here, real = os.getpid(), fem.cg_solve

        def cg_solve(*args, **kwargs):
            if os.getpid() == here:
                raise NoConvergence("CG stalled in the parent")
            time.sleep(0.1)
            reached[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fem, "cg_solve", cg_solve)
        with pytest.raises(NoConvergence, match="CG stalled in the parent"):
            fem.solve_sensitivity(ops, forward, fields, tol=1e-12)
        assert_no_child_left()
        assert reached[0] <= 2

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's prctl")
    def test_idle_worker_exits_with_its_killed_parent(self, tmp_path):
        # the worker finishes its group and idles on the pool's call queue
        # while its parent is still in the first of its steps; the parent
        # is then killed. The worker shares the parent's stdout, so the
        # pipe ends only once the worker is gone too
        with (tmp_path / "stderr").open("wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", IDLE_WORKER_SCRIPT], stdout=subprocess.PIPE,
                stderr=err, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        worker = None
        try:
            line = proc.stdout.readline()
            assert line, (tmp_path / "stderr").read_text()
            worker = int(line)
            proc.kill()
            proc.wait()
            assert select.select([proc.stdout], [], [], 30.0)[0], "stdout stays open"
            assert proc.stdout.read() == b""
            deadline = time.monotonic() + 30.0
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(worker)
        finally:
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)
            proc.kill()
            proc.wait()
            proc.stdout.close()


IDLE_WORKER_SCRIPT = """
import os, time
import numpy as np
from diffdesign import fem, mesh, shape

angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
poly = 0.5 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
m = mesh.build_mesh(mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=0.09))
ops = fem.assemble_heat(m)
curve = shape.interface_from_mesh(m)
fields = shape.extend_velocity(m, curve, shape.gaussian_bump_basis(curve, 3))
forward = fem.solve_forward(ops, horizon=10.0, n_steps=4)
here, real_run, real_cg = os.getpid(), fem._run_group, fem.cg_solve

def run_group(rows):
    real_run(rows)
    print(os.getpid(), flush=True)

def cg_solve(*args, **kwargs):
    if os.getpid() == here:
        time.sleep(600)
    return real_cg(*args, **kwargs)

fem._usable_cpus, fem._run_group, fem.cg_solve = (lambda: 2), run_group, cg_solve
fem.solve_sensitivity(ops, forward, fields)
"""


def running(pid):
    """`pid` is a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestFdOracle:
    def test_zero_velocity(self, fixture_problem):
        m, _, fields = fixture_problem
        zero = np.zeros_like(fields.values[0])
        traj = fd_material_derivative_oracle(m, zero, 1e-3, n_steps=3)
        assert np.all(traj.values == 0.0)

    def test_mesh_inversion_detected(self, fixture_problem):
        m, _, fields = fixture_problem
        with pytest.raises(MeshInversion):
            displaced_mesh(m, fields.values[0], 50.0)

    def test_oracle_linear_convergence(self, fixture_problem):
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        [delta] = fem.solve_sensitivity(ops, forward, rows(fields, slice(0, 1)),
                                        tol=1e-12).values
        sensor_nodes = np.unique(np.concatenate([
            m.triangles[m.sensor_elements[0]].ravel(),
            m.triangles[m.sensor_elements[1]].ravel(),
        ]))
        scale = np.abs(delta[:, sensor_nodes]).max()
        errs = {}
        for tau_fd in (1e-3, 1e-4):
            oracle = fd_material_derivative_oracle(
                m, fields.values[0], tau_fd, n_steps=8, tol=1e-13)
            errs[tau_fd] = np.abs(
                (oracle.values - delta)[:, sensor_nodes]).max()
        ratio = errs[1e-3] / errs[1e-4]
        assert 5.0 <= ratio <= 15.0
        assert errs[1e-4] <= 3e-2 * scale

    def test_central_difference_tight(self, fixture_problem):
        m, ops, fields = fixture_problem
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
        [delta] = fem.solve_sensitivity(ops, forward, rows(fields, slice(1, 2)),
                                        tol=1e-12).values
        oracle = fd_material_derivative_oracle(
            m, fields.values[1], 1e-4, n_steps=8, central=True, tol=1e-13)
        sensor_nodes = np.unique(m.triangles[m.sensor_elements[0]])
        scale = np.abs(delta[:, sensor_nodes]).max()
        err = np.abs((oracle.values - delta)[:, sensor_nodes]).max()
        assert err <= 3e-2 * scale

    def test_no_contrast_transport_identity(self):
        # with kappa_inc == kappa_bulk the state ignores the interface and
        # the material derivative reduces to V . grad(u)
        errors = []
        for h in (0.12, 0.07):
            angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
            poly = 0.5 + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
            spec = mesh.GeometrySpec(inclusion_polygon=poly, sensors=[], h=h)
            m = mesh.build_mesh(spec)
            ops = fem.assemble_heat(m, kappa_bulk=0.1, kappa_inc=0.1)
            forward = fem.solve_forward(ops, horizon=10.0, n_steps=8, tol=1e-12)
            curve = shape.interface_from_mesh(m)
            vfield = shape.extend_velocity(
                m, curve, shape.gaussian_bump_basis(curve, 3)[:1], tol=1e-12)
            [delta] = fem.solve_sensitivity(ops, forward, vfield, tol=1e-12).values

            tris, g, area, _, _, _ = fem._sensitivity_element_data(ops, vfield)
            grad_u = np.einsum("ei,eia->ea", forward.values[-1][tris], g)
            v_elem = vfield.values[0][tris].mean(axis=1)
            transport = np.einsum("ea,ea->e", v_elem, grad_u)
            du_elem = delta[-1][tris].mean(axis=1)
            num = np.sqrt(np.sum(area * (du_elem - transport) ** 2))
            den = np.sqrt(np.sum(area * transport ** 2))
            errors.append(num / den)
        assert errors[1] < errors[0]
        assert errors[1] < 0.2
