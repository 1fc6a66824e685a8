import dataclasses
import hashlib
import math

import numpy as np
import pytest

from diffdesign import fim, numerics, oed
from diffdesign.errors import (
    Infeasible,
    NonIntegerBudget,
    NotPositiveDefinite,
    SingularInformation,
)


def a_criterion(upsilon, gramian):
    """trace(B Upsilon^-1) on the unreduced matrices; +inf when the
    information matrix is singular. The reference the reduced problem is
    checked against."""
    try:
        lower = numerics.cholesky(upsilon)
    except NotPositiveDefinite:
        return math.inf
    return float(np.trace(numerics.cholesky_solve(lower, gramian)))


def synthetic_tensor(n_obs, n_time, n_basis, rng, rank=None, gramian=None):
    """Random PSD elementary matrices with an SPD Gramian."""
    rank = rank or n_basis
    mats = np.empty((n_obs, n_time, n_basis, n_basis))
    for k in range(n_obs):
        for li in range(n_time):
            a = rng.standard_normal((n_basis, rank))
            mats[k, li] = a @ a.T
    if gramian is None:
        b = rng.standard_normal((n_basis, n_basis))
        gramian = b @ b.T + n_basis * np.eye(n_basis)
    return fim.FimTensor(matrices=mats, gramian=gramian)


def phi_of(w, tensor):
    return a_criterion(fim.combine(w, tensor), tensor.gramian)


def master(vertices, tensor, gamma0=None, tol=oed.MASTER_TOL_DEFAULT,
           max_iter=oed.MASTER_MAX_ITER_DEFAULT):
    """Master-problem weights over `vertices`, from uniform unless given."""
    problem = oed.ReducedProblem(tensor)
    if gamma0 is None:
        gamma0 = np.full(len(vertices), 1.0 / len(vertices))
    gen_reduced = np.stack([problem.combine(v) for v in vertices])
    gamma, _ = oed.torsney_master(gen_reduced, gamma0, tol, max_iter)
    return gamma


class TestACriterion:
    def test_identity_pair(self):
        assert a_criterion(np.eye(9), np.eye(9)) == 9.0

    def test_reported_spectrum_sums_to_criterion(self):
        # internal consistency of the published 2D spectrum: the reciprocal
        # eigenvalues must add up to the criterion value within table rounding
        recip = [0.27, 0.49, 0.77, 1.04, 1.24, 2.58, 3.39, 6.68, 16.48]
        assert abs(sum(recip) - 32.93) <= 0.05

    def test_matches_generalized_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            upsilon = a @ a.T + np.eye(6)
            b = rng.standard_normal((6, 6))
            gram = b @ b.T + 6 * np.eye(6)
            eig = numerics.generalized_eig(upsilon, gram)
            phi = a_criterion(upsilon, gram)
            assert abs(phi - np.sum(1.0 / eig.values)) <= 1e-8 * abs(phi)

    def test_singular_is_infinite(self):
        v = np.array([1.0, 2.0])
        assert a_criterion(np.outer(v, v), np.eye(2)) == math.inf


class TestGradient:
    def test_identity_tensor(self):
        mats = np.broadcast_to(np.eye(4), (2, 3, 4, 4)).copy()
        tensor = fim.FimTensor(matrices=mats, gramian=np.eye(4))
        w = np.full(6, 1.0 / 6.0)           # combine = I
        grad = oed.ReducedProblem(tensor).gradient(w)
        assert np.allclose(grad, -4.0)

    def test_zero_matrix_zero_component(self):
        rng = np.random.default_rng(1)
        tensor = synthetic_tensor(1, 3, 3, rng)
        tensor.matrices[0, 1] = 0.0
        w = np.array([1.0, 0.5, 1.0])
        grad = oed.ReducedProblem(tensor).gradient(w)
        assert grad[1] == 0.0
        assert np.all(grad <= 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        tensor = synthetic_tensor(2, 3, 4, rng)
        n = tensor.n_weights
        for _ in range(20):
            w = 0.2 + 0.6 * rng.random(n)
            grad = oed.ReducedProblem(tensor).gradient(w)
            step = 1e-6
            for idx in rng.integers(0, n, 3):
                wp, wm = w.copy(), w.copy()
                wp[idx] += step
                wm[idx] -= step
                fd = (phi_of(wp, tensor) - phi_of(wm, tensor)) / (2.0 * step)
                assert abs(fd - grad[idx]) <= 1e-5 * max(abs(fd), 1e-12)

    def test_singular_information_raises(self):
        rng = np.random.default_rng(3)
        tensor = synthetic_tensor(1, 2, 4, rng, rank=1)
        with pytest.raises(SingularInformation):
            oed.ReducedProblem(tensor).gradient(np.array([1.0, 0.0]))


class TestVertexOracle:
    def test_example(self):
        v = oed.vertex_oracle(np.array([-3.0, -1.0, -2.0]), 2)
        assert np.array_equal(v, [1.0, 0.0, 1.0])

    def test_tie_break_lowest_index(self):
        v = oed.vertex_oracle(np.full(5, -1.0), 3)
        assert np.array_equal(v, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_against_sort(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = -rng.random(12)
            c = int(rng.integers(1, 12))
            v = oed.vertex_oracle(g, c)
            expect = np.zeros(12)
            expect[np.argsort(g, kind="stable")[:c]] = 1.0
            assert np.array_equal(v, expect)

    def test_non_integer_budget(self):
        with pytest.raises(NonIntegerBudget):
            oed.vertex_oracle(np.array([-1.0, -2.0]), 1.5)


class TestTorsneyMaster:
    def test_single_vertex(self):
        rng = np.random.default_rng(5)
        tensor = synthetic_tensor(1, 3, 2, rng)
        gamma = master(np.array([[1.0, 1.0, 0.0]]), tensor)
        assert np.array_equal(gamma, [1.0])

    def test_symmetric_pair_fixpoint(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((3, 3))
        mat = base @ base.T + np.eye(3)
        mats = np.stack([mat, mat])[None, :, :, :].transpose(1, 0, 2, 3)
        tensor = fim.FimTensor(matrices=mats.reshape(2, 1, 3, 3),
                               gramian=np.eye(3))
        vertices = np.array([[1.0, 0.0], [0.0, 1.0]])
        gamma = master(vertices, tensor, gamma0=np.array([0.5, 0.5]))
        assert np.allclose(gamma, [0.5, 0.5])

    def test_three_vertices_match_grid(self):
        rng = np.random.default_rng(7)
        tensor = synthetic_tensor(1, 3, 2, rng, rank=2)
        vertices = np.eye(3)
        gamma = master(vertices, tensor, tol=1e-10, max_iter=20000)
        w = gamma @ vertices
        phi = phi_of(w, tensor)

        step = 1e-3
        a = np.arange(0.0, 1.0 + step / 2, step)
        g1, g2 = np.meshgrid(a, a, indexing="ij")
        g3 = 1.0 - g1 - g2
        mask = g3 >= -1e-12
        flat = tensor.flat()
        ups = (g1[..., None, None] * flat[0] + g2[..., None, None] * flat[1]
               + g3[..., None, None] * flat[2])
        det = ups[..., 0, 0] * ups[..., 1, 1] - ups[..., 0, 1] * ups[..., 1, 0]
        b = tensor.gramian
        tr = (b[0, 0] * ups[..., 1, 1] - b[0, 1] * ups[..., 1, 0]
              - b[1, 0] * ups[..., 0, 1] + b[1, 1] * ups[..., 0, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            phis = np.where(mask & (det > 0.0), tr / det, np.inf)
        assert phi <= phis.min() * (1.0 + 1e-4)

    def test_monotone_under_rejection(self):
        rng = np.random.default_rng(8)
        tensor = synthetic_tensor(2, 2, 3, rng)
        vertices = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
        ])
        gamma0 = np.array([0.8, 0.1, 0.1])
        phi0 = phi_of(gamma0 @ vertices, tensor)
        gamma = master(vertices, tensor, gamma0=gamma0)
        assert phi_of(gamma @ vertices, tensor) <= phi0 * (1.0 + 1e-12)


class TestOptimalityResidual:
    def test_hand_built_example(self):
        # derivative vector (-3, -2, -1) with weights (1, 0.5, 0) satisfies
        # the optimality bands exactly at xi = 2
        class FakeTensor:
            pass

        neg = np.array([3.0, 2.0, 1.0])
        w = np.array([1.0, 0.5, 0.0])
        frac = (w > oed.WEIGHT_ZERO_TOL) & (w < 1 - oed.WEIGHT_ZERO_TOL)
        xi = neg[frac].mean()
        assert xi == 2.0
        ones = w >= 1 - oed.WEIGHT_ZERO_TOL
        zeros = w <= oed.WEIGHT_ZERO_TOL
        viol = np.zeros(3)
        viol[ones] = np.maximum(0.0, xi - neg[ones])
        viol[frac] = np.abs(neg[frac] - xi)
        viol[zeros] = np.maximum(0.0, neg[zeros] - xi)
        assert np.all(viol == 0.0)

    def test_equal_gradients_zero_violation(self):
        mats = np.broadcast_to(np.eye(3), (1, 4, 3, 3)).copy()
        tensor = fim.FimTensor(matrices=mats, gramian=np.eye(3))
        w = np.full(4, 0.5)
        xi, viol = oed.ReducedProblem(tensor).residual(w, 2)
        assert viol.max() <= 1e-12
        assert xi > 0.0

    def test_interior_mean_rule(self):
        rng = np.random.default_rng(9)
        tensor = synthetic_tensor(1, 4, 3, rng)
        w = np.array([1.0, 0.4, 0.3, 0.0])
        neg = -oed.ReducedProblem(tensor).gradient(w)
        xi, _ = oed.ReducedProblem(tensor).residual(w, 2)
        assert abs(xi - neg[1:3].mean()) <= 1e-12


class TestRoundDesign:
    def test_rounding_cannot_beat_relaxed(self):
        rng = np.random.default_rng(10)
        tensor = synthetic_tensor(2, 3, 2, rng)
        result = oed.simplicial_decomposition(tensor, budget=2, tol_outer=1e-6)
        # binary design: ones at the budget's worth of largest weights
        order = np.argsort(-result.design.weights, kind="stable")
        rounded = np.zeros_like(result.design.weights)
        rounded[order[:2]] = 1.0
        assert phi_of(rounded, tensor) >= result.phi * (1.0 - 1e-10)


class TestSimplicialDecomposition:
    def test_dominant_matrix_selected(self):
        rng = np.random.default_rng(11)
        n_basis = 3
        mats = np.empty((1, 4, n_basis, n_basis))
        dom = 3.0 * np.eye(n_basis)
        mats[0, 0] = dom
        for li in range(1, 4):
            a = rng.standard_normal((n_basis, n_basis))
            small = a @ a.T
            mats[0, li] = 0.5 * small / np.linalg.norm(small, 2)
        tensor = fim.FimTensor(matrices=mats, gramian=np.eye(n_basis))
        result = oed.simplicial_decomposition(tensor, budget=1, tol_outer=1e-5)
        assert result.design.weights[0] >= 1.0 - 1e-5
        assert result.design.weights[1:].max() <= 1e-5

    def test_budget_active(self):
        rng = np.random.default_rng(12)
        tensor = synthetic_tensor(2, 4, 3, rng)
        result = oed.simplicial_decomposition(tensor, budget=3)
        assert abs(result.design.weights.sum() - 3.0) <= 1e-8

    def test_history_nonincreasing(self):
        rng = np.random.default_rng(13)
        tensor = synthetic_tensor(3, 4, 3, rng)
        result = oed.simplicial_decomposition(tensor, budget=4)
        diffs = np.diff(result.phi_history)
        assert diffs.max() <= 1e-9 * abs(result.phi_history[0])
        assert result.phi_history[-1] < result.phi_history[0]

    def test_certificate_on_convergence(self):
        rng = np.random.default_rng(14)
        tensor = synthetic_tensor(2, 5, 3, rng)
        result = oed.simplicial_decomposition(tensor, budget=3, tol_outer=1e-4)
        assert result.converged
        assert result.violations.max() <= 1e-4 * result.xi

    def test_eigen_identity(self):
        rng = np.random.default_rng(15)
        tensor = synthetic_tensor(2, 4, 3, rng)
        result = oed.simplicial_decomposition(tensor, budget=2)
        assert abs(np.sum(1.0 / result.eigenvalues) - result.phi) \
            <= 1e-8 * abs(result.phi)

    def test_mirror_symmetric_problem(self):
        rng = np.random.default_rng(16)
        n_basis, n_time = 3, 3
        perm = np.array([1, 0, 2])
        p = np.eye(n_basis)[perm]
        mats = np.empty((2, n_time, n_basis, n_basis))
        for li in range(n_time):
            a = rng.standard_normal((n_basis, n_basis))
            mats[0, li] = a @ a.T
            mats[1, li] = p @ mats[0, li] @ p.T
        gram = np.array([[2.0, 0.3, 0.4], [0.3, 2.0, 0.4], [0.4, 0.4, 3.0]])
        assert np.array_equal(p @ gram @ p.T, gram)
        tensor = fim.FimTensor(matrices=mats, gramian=gram)
        result = oed.simplicial_decomposition(tensor, budget=2, tol_outer=1e-6)
        w = result.design.weights.reshape(2, n_time)
        mirrored = w[::-1].reshape(-1)
        assert abs(phi_of(mirrored, tensor) - result.phi) <= 1e-6 * abs(result.phi)

    def test_infeasible(self):
        rng = np.random.default_rng(17)
        tensor = synthetic_tensor(1, 3, 4, rng, rank=1)
        # rank-1 matrices cannot fill a 4-dimensional basis with 3 indices
        with pytest.raises(Infeasible):
            oed.simplicial_decomposition(tensor, budget=2)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(18)
        tensor = synthetic_tensor(2, 3, 3, rng)
        n = tensor.n_weights
        for _ in range(5):
            w1 = 0.2 + 0.7 * rng.random(n)
            w2 = 0.2 + 0.7 * rng.random(n)
            for lam in (0.25, 0.5, 0.75):
                mix = phi_of(lam * w1 + (1 - lam) * w2, tensor)
                bound = lam * phi_of(w1, tensor) + (1 - lam) * phi_of(w2, tensor)
                assert mix <= bound + 1e-9

    def test_gradient_sign(self):
        rng = np.random.default_rng(19)
        tensor = synthetic_tensor(2, 3, 3, rng)
        for _ in range(5):
            w = 0.1 + 0.8 * rng.random(tensor.n_weights)
            assert np.all(oed.ReducedProblem(tensor).gradient(w) <= 0.0)


class TestSolveSpatial:
    def test_single_instant_identical(self):
        rng = np.random.default_rng(20)
        tensor = synthetic_tensor(5, 1, 3, rng)
        st = oed.simplicial_decomposition(tensor, budget=2)
        sp = oed.solve_spatial(tensor, budget=2)
        assert np.abs(st.design.weights - sp.design.weights).max() <= 1e-10
        assert abs(st.phi - sp.phi) <= 1e-12 * abs(st.phi)

    def test_budget_activity_near_full(self):
        rng = np.random.default_rng(21)
        tensor = synthetic_tensor(5, 3, 3, rng)
        result = oed.solve_spatial(tensor, budget=4)
        assert abs(result.design.weights.sum() - 4.0) <= 1e-8

    def test_spatial_never_beats_space_time(self):
        rng = np.random.default_rng(22)
        tensor = synthetic_tensor(4, 3, 3, rng)
        spatial = oed.solve_spatial(tensor, budget=1, tol_outer=1e-6)
        free = oed.simplicial_decomposition(tensor, budget=3, tol_outer=1e-6)
        assert free.phi <= spatial.phi * (1.0 + 1e-9)


#: (seed, solver, budget, repr(phi), sha256 of the weight bytes, n_outer,
#: n_vertices). The uniform start is still a generator at the end of the
#: seed-600 and seed-605 spatial runs and of seed 605 at budget 5 (n_outer 1:
#: the uniform row plus one vertex); every seed-601 run pruned it.
OPTIMIZER_PATHS = [
    (600, "simplicial_decomposition", 2, "1.7551960253688748",
     "e0500dae32157d3eee6987aefbc3d09637ec69a76423e5be08dbb3ebdd1989e0", 4, 4),
    (600, "simplicial_decomposition", 5, "0.7537450809952432",
     "46ae19265b8e4107c665455f855ef16b2aa751fc3c9522678953250bb794acf3", 2, 2),
    (600, "solve_spatial", 1, "1.4169273275019756",
     "d0c39811f86db4548425f5246dd0b837b9ceb227a19dcd1a2dafa5b66a7841bd", 1, 1),
    (600, "solve_spatial", 2, "0.7361850027170936",
     "1fcf53f6b681bf97b04cda12ecb0f7ad620cc71c8bea5a1d78782ad49e51abd1", 2, 2),
    (601, "simplicial_decomposition", 2, "2.243183412450274",
     "5ab698696a929ef9f5a3e28dbf2e9b509780726381c278a68b1a39948d41a810", 6, 5),
    (601, "simplicial_decomposition", 5, "0.9398439507993475",
     "a0e9b59d5d34e395a9568e36a5e449738a09bdbb220a08caf86835bde07da181", 2, 2),
    (601, "solve_spatial", 1, "1.864078402313583",
     "af2734a8541fa3c627e2aa8597e4fd8b2e3396a3181a506f9000946460a3a92c", 3, 3),
    (601, "solve_spatial", 2, "0.9523330871498554",
     "cc236159e13eceb4edc159f2c5f3fa0cad6b0862c1c1975fe54a9768673fd3c3", 2, 2),
    (605, "simplicial_decomposition", 2, "2.7285859975730564",
     "308d25ace01b8a18ece44bb9d71ecc332a4c43ceff27debca4e3bb41c55eb8e2", 6, 5),
    (605, "simplicial_decomposition", 5, "1.1848568282387286",
     "dab97bf34827966586369339f7090f08723595681e691811879601fd68279177", 1, 1),
    (605, "solve_spatial", 1, "2.623050536713662",
     "2cebed9f810d97ac17d2cb95b77a112144779d9be267f7d6817b5c68493d2526", 2, 2),
    (605, "solve_spatial", 2, "1.3301254634591744",
     "1e4df6ce289fb3a75f2d09969fecc56997732c0901c996db1c1b810680e4ca67", 2, 2),
]


class TestOptimizerPath:
    @pytest.mark.parametrize(
        "seed, solver, budget, phi, digest, n_outer, n_vertices", OPTIMIZER_PATHS,
        ids=[f"{seed}-{solver}-{budget}" for seed, solver, budget, *_ in OPTIMIZER_PATHS])
    def test_pinned_path(self, seed, solver, budget, phi, digest, n_outer, n_vertices):
        # bitwise pins (numpy 2.4 with OpenBLAS on x86-64): a refactor of the
        # outer loop must reproduce the criterion, the weights and the counts
        tensor = synthetic_tensor(4, 3, 3, np.random.default_rng(seed))
        result = getattr(oed, solver)(tensor, budget)
        assert repr(result.phi) == phi
        assert hashlib.sha256(result.design.weights.tobytes()).hexdigest() == digest
        assert (result.n_outer, result.n_vertices) == (n_outer, n_vertices)


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(5))
    def test_scaled_information_same_design(self, seed):
        # 4 Y_kl is a power-of-two scaling, exact in floating point: the
        # optimizer takes the same path, so the weights agree bit for bit and
        # the criterion is exactly a quarter
        rng = np.random.default_rng(400 + seed)
        tensor = synthetic_tensor(2, 4, 3, rng)
        scaled = dataclasses.replace(tensor, matrices=4.0 * tensor.matrices)
        for budget in (2, 5):
            base = oed.simplicial_decomposition(tensor, budget)
            other = oed.simplicial_decomposition(scaled, budget)
            assert np.array_equal(other.design.weights, base.design.weights)
            assert other.phi == base.phi / 4.0

    @pytest.mark.parametrize("seed", range(500, 508))
    def test_permuted_sensors_permute_weights(self, seed):
        # the sensor order is a labelling: permuting the sensor axis of the
        # tensor permutes the optimal weights; the optimizer's path changes,
        # so agreement is to round-off (measured 8.3e-15 in the weights and
        # 2.3e-16 relative in phi)
        rng = np.random.default_rng(seed)
        tensor = synthetic_tensor(4, 3, 3, rng)
        perm = [2, 0, 3, 1]
        permuted = dataclasses.replace(tensor, matrices=tensor.matrices[perm])
        for budget in (2, 5):
            base = oed.simplicial_decomposition(tensor, budget)
            other = oed.simplicial_decomposition(permuted, budget)
            expected = base.design.weights.reshape(4, 3)[perm].ravel()
            assert np.abs(other.design.weights - expected).max() <= 1e-12
            assert abs(other.phi - base.phi) <= 1e-12 * abs(base.phi)
