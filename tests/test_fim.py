import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffdesign import config, fem, fim, mesh, numerics, pipeline, shape
from diffdesign.errors import CacheMismatch, DimensionMismatch, InstantOutOfRange, MissingTag

from test_fem import record, replay

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def problem():
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
    forward = fem.solve_forward(ops, horizon=10.0, n_steps=6, tol=1e-12)
    curve = shape.interface_from_mesh(m)
    bumps = shape.gaussian_bump_basis(curve, 3)
    fields = shape.extend_velocity(m, curve, bumps, tol=1e-12)
    gram = shape.gramian(fields)
    sens = record(ops, forward, fields, tol=1e-12)
    sensors = fim.build_sensor_models(m)
    tensor = fim.elementary_fims(replay(sens), sensors, range(7), gram)
    return m, sensors, sens, gram, tensor


def set_cache_key(path, key):
    """Rewrite the key member of a tensor cache file."""
    with np.load(path) as npz:
        members = dict(npz)
    members["key"] = np.array(key)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


#: byte-level damage a tensor cache file can suffer
CORRUPTIONS = ("truncated", "half", "empty", "flipped")


def corrupt(raw, how):
    """Bytes of the tensor cache file `raw` after damage `how`."""
    if how == "truncated":
        return raw[:-3]
    if how == "half":
        return raw[:len(raw) // 2]
    if how == "empty":
        return b""
    # one bit flipped in the middle of the matrices payload
    with np.load(io.BytesIO(raw)) as npz:
        payload = npz["matrices"].tobytes()
    pos = raw.index(payload) + len(payload) // 2
    return raw[:pos] + bytes([raw[pos] ^ 1]) + raw[pos + 1:]


class TestPrecisionRoot:
    def test_constant_field_scales_by_alpha1(self, problem):
        _, sensors, _, _, _ = problem
        s = sensors[0]
        c = 3.5 * np.ones((len(s.nodes), 1))
        out = fim.apply_precision_root(s, c)
        assert np.abs(out - s.alpha1 * 3.5).max() <= 1e-12

    def test_empty_sensor_raises_missing_tag(self, problem):
        m, _, _, _, _ = problem
        empty = dataclasses.replace(m, sensor_elements=[np.empty(0, dtype=int)])
        with pytest.raises(MissingTag):
            fim.build_sensor_model(empty, 0)

    def test_alpha0_zero_pure_scaling(self, problem):
        m, _, _, _, _ = problem
        with pytest.raises(ValueError):
            fim.build_sensor_model(m, 0, alpha0=0.0)
        # the scaling limit is realized through a vanishingly small alpha0
        s = fim.build_sensor_model(m, 0, alpha0=1e-300, alpha1=2.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((len(s.nodes), 3))
        assert np.allclose(fim.apply_precision_root(s, f), 2.0 * f)

    def test_rayleigh_bound(self, problem):
        _, sensors, _, _, _ = problem
        s = sensors[1]
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.standard_normal(len(s.nodes))
            num = f @ (s.alpha0 * (s.stiffness @ f) + s.alpha1 * (s.lumped_mass * f))
            den = f @ (s.lumped_mass * f)
            assert num / den >= s.alpha1 - 1e-10


class TestElementaryFims:
    def test_zero_sensitivities_zero_tensor(self, problem):
        m, sensors, sens, gram, _ = problem
        zero = fem.Trajectory(times=sens.times, values=np.zeros_like(sens.values[:2]))
        tensor = fim.elementary_fims(replay(zero), sensors, range(7), gram[:2, :2])
        assert np.all(tensor.matrices == 0.0)

    def test_constant_restriction_analytic(self, problem):
        m, _, sens, _, _ = problem
        s = fim.build_sensor_model(m, 0, alpha0=1e-300, alpha1=1.5)
        c = 2.0
        traj = fem.Trajectory(times=sens.times, values=np.full_like(sens.values[:1], c))
        tensor = fim.elementary_fims(replay(traj), [s], [3], np.eye(1))
        area = m.areas()[s.elements].sum()
        expected = 1.5 ** 2 * c ** 2 * area
        assert abs(tensor.matrices[0, 0, 0, 0] - expected) <= 1e-10 * expected

    def test_matches_dense_identity(self, problem):
        m, sensors, _, _, _ = problem
        s = sensors[0]
        rng = np.random.default_rng(2)
        n = len(s.nodes)
        d = rng.standard_normal((n, 3))
        k_dense = s.stiffness.toarray()
        m_dense = np.diag(s.lumped_mass)
        op = s.alpha0 * k_dense + s.alpha1 * m_dense
        expected = d.T @ op @ np.linalg.solve(m_dense, op @ d)

        vals = np.zeros((3, 2, len(m.nodes)))
        vals[:, 1, s.nodes] = d.T
        traj = fem.Trajectory(times=np.array([0.0, 1.0]), values=vals)
        tensor = fim.elementary_fims(replay(traj), [s], [1], np.eye(3))
        got = tensor.matrices[0, 0]
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_instant_zero_is_zero_matrix(self, problem):
        _, _, _, _, tensor = problem
        assert np.all(tensor.matrices[:, 0] == 0.0)

    def test_psd_and_symmetric(self, problem):
        _, _, _, _, tensor = problem
        for mat in tensor.flat():
            assert np.array_equal(mat, mat.T)
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -1e-10 * max(np.abs(eigs).max(), 1e-30)

    def test_rank_bound(self, problem):
        _, sensors, _, _, tensor = problem
        for k, s in enumerate(sensors):
            bound = min(tensor.n_basis, len(s.nodes))
            for li in range(tensor.n_time):
                assert np.linalg.matrix_rank(tensor.matrices[k, li]) <= bound

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_streamed_march_matches_replay(self, problem, monkeypatch, cpus):
        # the FIM formed while marching equals the one formed from a
        # recorded trajectory, bit for bit, whatever the number of groups
        m, sensors, _, gram, tensor = problem
        ops = fem.assemble_heat(m)
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=6, tol=1e-12)
        curve = shape.interface_from_mesh(m)
        fields = shape.extend_velocity(m, curve, shape.gaussian_bump_basis(curve, 3),
                                       tol=1e-12)
        monkeypatch.setattr(fem, "_usable_cpus", lambda: cpus)
        streamed = fim.elementary_fims(
            lambda observe: fem.solve_sensitivity(ops, forward, fields, observe, tol=1e-12),
            sensors, range(7), gram)
        assert np.array_equal(streamed.matrices, tensor.matrices)

    def test_instant_out_of_range(self, problem):
        _, sensors, sens, gram, _ = problem
        with pytest.raises(InstantOutOfRange):
            fim.elementary_fims(replay(sens), sensors, [99], gram)


class TestMetamorphic:
    def test_doubled_noise_parameters_quadruple_fims(self, problem):
        # the precision root is linear in (alpha0, alpha1) and enters each
        # elementary FIM twice; doubling is exact in floating point
        m, _, sens, gram, tensor = problem
        sensors = fim.build_sensor_models(m, alpha0=2.0 * fim.ALPHA0_DEFAULT,
                                          alpha1=2.0 * fim.ALPHA1_DEFAULT)
        doubled = fim.elementary_fims(replay(sens), sensors, range(7), gram)
        assert np.array_equal(doubled.matrices, 4.0 * tensor.matrices)

    def test_permuted_basis_keeps_generalized_eigenvalues(self, problem):
        # the basis order is a labelling: permuting the boundary fields
        # permutes the extensions, sensitivities, Gramian and every FIM
        m, sensors, _, gram, tensor = problem
        ops = fem.assemble_heat(m)
        forward = fem.solve_forward(ops, horizon=10.0, n_steps=6, tol=1e-12)
        curve = shape.interface_from_mesh(m)
        bumps = shape.gaussian_bump_basis(curve, 3)
        perm = [2, 0, 1]
        fields = shape.extend_velocity(m, curve, bumps[perm], tol=1e-12)
        sens = record(ops, forward, fields, tol=1e-12)
        gram_p = shape.gramian(fields)
        tensor_p = fim.elementary_fims(replay(sens), sensors, range(7), gram_p)
        assert np.array_equal(gram_p, gram[np.ix_(perm, perm)])
        w = np.ones(tensor.n_weights)
        ref = numerics.generalized_eig(fim.combine(w, tensor), gram)
        got = numerics.generalized_eig(fim.combine(w, tensor_p), gram_p)
        assert np.allclose(got.values, ref.values, rtol=1e-10, atol=0.0)

    def test_permuted_sensors_permute_sensor_axis(self, problem):
        # each sensor is whitened on its own patch: reordering the sensor
        # models reorders the tensor's sensor axis and changes no bit
        _, sensors, sens, gram, tensor = problem
        perm = [1, 0]
        got = fim.elementary_fims(replay(sens), [sensors[i] for i in perm], range(7), gram)
        assert np.array_equal(got.matrices, tensor.matrices[perm])


class TestCombine:
    def test_unit_vector_selects_matrix(self, problem):
        _, _, _, _, tensor = problem
        w = np.zeros(tensor.n_weights)
        w[tensor.n_time + 4] = 1.0          # sensor 1, instant 4
        got = fim.combine(w, tensor)
        assert np.array_equal(got, tensor.matrices[1, 4])

    def test_zero_weights(self, problem):
        _, _, _, _, tensor = problem
        got = fim.combine(np.zeros(tensor.n_weights), tensor)
        assert got.shape == (tensor.n_basis, tensor.n_basis)
        assert np.all(got == 0.0) and not np.signbit(got).any()

    def test_linear(self, problem):
        _, _, _, _, tensor = problem
        rng = np.random.default_rng(3)
        w1 = rng.random(tensor.n_weights)
        w2 = rng.random(tensor.n_weights)
        lhs = fim.combine(w1 + w2, tensor)
        rhs = fim.combine(w1, tensor) + fim.combine(w2, tensor)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_dimension_mismatch(self, problem):
        _, _, _, _, tensor = problem
        with pytest.raises(DimensionMismatch):
            fim.combine(np.ones(3), tensor)

    def test_psd_for_nonnegative_weights(self, problem):
        _, _, _, _, tensor = problem
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = rng.random(tensor.n_weights)
            eigs = np.linalg.eigvalsh(fim.combine(w, tensor))
            assert eigs.min() >= -1e-9 * max(eigs.max(), 1e-30)


class TestAggregateSpatial:
    def test_single_instant_identity(self, problem):
        _, sensors, sens, gram, _ = problem
        tensor = fim.elementary_fims(replay(sens), sensors, [4], gram)
        agg = fim.spatial_tensor(tensor).matrices[:, 0]
        assert np.array_equal(agg, tensor.matrices[:, 0])

    def test_zero_tensor(self, problem):
        _, _, _, _, tensor = problem
        zero = fim.FimTensor(matrices=np.zeros_like(tensor.matrices),
                             gramian=tensor.gramian)
        assert np.all(fim.spatial_tensor(zero).matrices[:, 0] == 0.0)

    def test_summation_identity(self, problem):
        _, _, _, _, tensor = problem
        rng = np.random.default_rng(5)
        wk = rng.random(tensor.n_obs)
        spatial = fim.spatial_tensor(tensor)
        lhs = fim.combine(wk, spatial)
        w_full = np.repeat(wk, tensor.n_time)
        rhs = fim.combine(w_full, tensor)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


class TestTensorCache:
    def test_roundtrip(self, problem, tmp_path):
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        fim.save_tensor(tensor, path, config_hash="abc123")
        loaded = fim.load_tensor(path, expect_hash="abc123")
        assert np.array_equal(loaded.matrices, tensor.matrices)
        assert np.array_equal(loaded.gramian, tensor.gramian)
        with np.load(path) as npz:
            assert sorted(npz.files) == ["gramian", "key", "matrices"]

    def test_hash_mismatch(self, problem, tmp_path):
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        fim.save_tensor(tensor, path, config_hash="abc123")
        with pytest.raises(CacheMismatch):
            fim.load_tensor(path, expect_hash="freshhash")

    def test_other_version_rejected(self, problem, tmp_path, monkeypatch):
        # other code gives the same config another key, and a file it wrote
        # under that key is refused
        _, _, _, _, tensor = problem
        cfg = config.load_config({})
        key = config.tensor_hash(cfg)
        monkeypatch.setattr(config, "_code_digest", lambda: "other code")
        path = tmp_path / "tensor.fim"
        fim.save_tensor(tensor, path, config_hash=config.tensor_hash(cfg))
        with pytest.raises(CacheMismatch, match="different config or code"):
            fim.load_tensor(path, expect_hash=key)

    def test_unreadable_header_rejected(self, tmp_path):
        path = tmp_path / "tensor.fim"
        npy = io.BytesIO()
        np.save(npy, np.eye(3))             # a bare array, not an archive
        for junk in (b"", b"\xff\xfe\n", b"[1, 2]\n", b"not json\n", npy.getvalue()):
            path.write_bytes(junk)
            with pytest.raises(CacheMismatch, match="not a FIM tensor cache"):
                fim.load_tensor(path, expect_hash="abc123")

    @pytest.mark.parametrize("how", CORRUPTIONS)
    def test_damaged_file_rejected(self, problem, tmp_path, how):
        # the zip members carry CRC-32s, so even a flipped payload bit that
        # keeps every length intact is caught on read
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        fim.save_tensor(tensor, path, config_hash="abc123")
        path.write_bytes(corrupt(path.read_bytes(), how))
        with pytest.raises(CacheMismatch, match="not a FIM tensor cache"):
            fim.load_tensor(path, expect_hash="abc123")

    def test_missing_member_rejected(self, problem, tmp_path):
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        with open(path, "wb") as fh:
            np.savez(fh, matrices=tensor.matrices, gramian=tensor.gramian)
        with pytest.raises(CacheMismatch, match="not a FIM tensor cache"):
            fim.load_tensor(path, expect_hash="abc123")

    def test_version1_file_rejected(self, problem, tmp_path):
        # the earlier layout: one JSON header line, then raw float64 payload
        _, _, _, _, tensor = problem
        header = {"format": "fim-tensor", "version": 1, "config_hash": "abc123",
                  "dims": [tensor.n_obs, tensor.n_time, tensor.n_basis],
                  "alpha0": 0.01, "alpha1": 1.0, "instants": list(range(7))}
        path = tmp_path / "tensor.fim"
        path.write_bytes(json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
                         + tensor.matrices.tobytes() + tensor.gramian.tobytes())
        with pytest.raises(CacheMismatch, match="not a FIM tensor cache"):
            fim.load_tensor(path, expect_hash="abc123")

    def test_disagreeing_shapes_rejected(self, problem, tmp_path):
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        for mats, gram in ((tensor.matrices, tensor.gramian[:2, :2]),
                           (tensor.matrices[0], tensor.gramian)):
            fim.save_tensor(fim.FimTensor(matrices=mats, gramian=gram), path,
                            config_hash="abc123")
            with pytest.raises(CacheMismatch, match="shapes"):
                fim.load_tensor(path, expect_hash="abc123")

    def test_save_is_atomic(self, problem, tmp_path):
        # a write that fails midway leaves the previous file and no
        # temporary file behind
        _, _, _, _, tensor = problem
        path = tmp_path / "tensor.fim"
        fim.save_tensor(tensor, path, config_hash="abc123")
        assert [p.name for p in tmp_path.iterdir()] == ["tensor.fim"]
        before = path.read_bytes()
        broken = fim.FimTensor(matrices=tensor.matrices,
                               gramian=np.array([["not a number"]], dtype=object))
        with pytest.raises(ValueError):
            fim.save_tensor(broken, path, config_hash="other")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tensor.fim"]

    def test_deterministic_bytes(self, problem, tmp_path):
        _, _, _, _, tensor = problem
        p1 = tmp_path / "a.fim"
        p2 = tmp_path / "b.fim"
        fim.save_tensor(tensor, p1, config_hash="x")
        fim.save_tensor(tensor, p2, config_hash="x")
        assert p1.read_bytes() == p2.read_bytes()


class TestInformationMonotonicity:
    def test_adding_information_cannot_worsen(self, problem):
        # trace(B Y(w)^-1) decreases when any PSD elementary matrix is added
        _, _, _, gram, tensor = problem
        rng = np.random.default_rng(6)
        w = 0.5 + 0.5 * rng.random(tensor.n_weights)
        base = fim.combine(w, tensor)
        phi = np.trace(numerics.cholesky_solve(numerics.cholesky(base), tensor.gramian))
        for idx in rng.integers(0, tensor.n_weights, 5):
            w2 = w.copy()
            w2[idx] += 1.0
            lower = numerics.cholesky(fim.combine(w2, tensor))
            phi2 = np.trace(numerics.cholesky_solve(lower, tensor.gramian))
            assert phi2 <= phi + 1e-9 * abs(phi)


class TestTimeStep:
    def test_phi_first_order_in_time_step(self, tmp_path):
        # halving the backward-Euler step with the instants held at the same
        # physical times: phi at uniform weights falls, and its successive
        # differences shrink by about 2 (first order; ~1 would not converge,
        # ~4 would be second order)
        phis = []
        for m in (1, 2, 4):
            cfg = config.load_config({
                "geometry": {"h": 0.08}, "physics": {"n_steps": 21 * m},
                "design": {"optimize": False, "instants": list(range(0, 21 * m + 1, m))}})
            phis.append(pipeline.Pipeline(cfg, tmp_path, log=False).result().phi)
        first, second = -np.diff(phis)
        assert first > 0.0 and second > 0.0
        assert 1.5 <= first / second <= 2.5


MEMORY_SCRIPT = """
import resource, sys
from diffdesign import config, pipeline

pipe = pipeline.Pipeline(config.load_config(
    {"geometry": {"h": 0.09}, "physics": {"n_steps": int(sys.argv[1])}}), ".", log=False)
pipe.forward(), pipe.gramian()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
pipe.tensor()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestMemory:
    def test_march_memory_does_not_grow_with_n_steps(self, tmp_path):
        # the peak resident size that building the tensor adds (KiB), at 20
        # and at 400 steps on 464 nodes. Only the tensor itself grows with
        # the steps: 8 sensors x 401 instants x 81 entries x 8 B = 2.1 MB. A
        # stored (9, n_steps + 1, 464) sensitivity block would add 13.4 MB
        growth = {}
        for n_steps in (20, 400):
            proc = subprocess.run(
                [sys.executable, "-c", MEMORY_SCRIPT, str(n_steps)], cwd=tmp_path,
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
            assert proc.returncode == 0, proc.stderr
            growth[n_steps] = int(proc.stdout.split()[-1]) / 1024
        assert growth[400] - growth[20] < 5.0, growth
