import dataclasses
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


#: (seed, solver, budget, phi, n_outer, n_vertices, weights), taken with
#: numpy 2.4.6 / scipy 1.17.1 / OpenBLAS 0.3.31 on its AVX-512 kernels. The
#: uniform start is still a generator at the end of the seed-600 and seed-605
#: spatial runs and of seed 605 at budget 5 (n_outer 1: the uniform row plus
#: one vertex); every seed-601 run pruned it.
OPTIMIZER_PATHS = [
    (600, "simplicial_decomposition", 2, 1.7551960253688748, 4, 4,
     [0.0, 0.0, 0.9999999995733377, 0.04067867275254553, 0.6948225186624266, 0.0,
      0.0, 0.2644988085850279, 0.0, 0.0, 0.0, 4.266623556833321e-10]),
    (600, "simplicial_decomposition", 5, 0.7537450809952432, 2, 2,
     [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.06847188103412322, 1.0, 0.0, 0.0, 0.0,
      0.9315281189658767]),
    (600, "solve_spatial", 1, 1.4169273275019756, 1, 1,
     [2.3483737770115707e-09, 0.9999999929548787, 2.3483737770115707e-09,
      2.3483737770115707e-09]),
    (600, "solve_spatial", 2, 0.7361850027170936, 2, 2,
     [0.5305041367781269, 0.9999999951833715, 0.4694958632218731,
      4.816628535106688e-09]),
    (601, "simplicial_decomposition", 2, 2.243183412450274, 6, 5,
     [0.0, 0.5775548638954623, 0.0, 0.0, 0.4802518811666916, 9.832573486942938e-09,
      0.7937499211570895, 0.0, 0.14844332394818313, 0.0, 0.0, 0.0]),
    (601, "simplicial_decomposition", 5, 0.9398439507993475, 2, 2,
     [0.0, 1.0, 0.0, 0.35883655247478274, 1.0, 1.0, 1.0, 0.0, 0.6411634475252174,
      0.0, 0.0, 0.0]),
    (601, "solve_spatial", 1, 1.864078402313583, 3, 3,
     [0.04038614301216127, 0.7791035675443401, 0.1805102894434986, 0.0]),
    (601, "solve_spatial", 2, 0.9523330871498554, 2, 2,
     [0.3350476576629698, 1.0, 0.6649523423370302, 0.0]),
    (605, "simplicial_decomposition", 2, 2.7285859975730564, 6, 5,
     [0.0, 0.0, 0.0, 0.0, 0.0, 0.1826043479128973, 0.0, 9.993813477038029e-09,
      0.43471112911431337, 0.4715100163918619, 0.9111744965871138, 0.0]),
    (605, "simplicial_decomposition", 5, 1.1848568282387286, 1, 1,
     [2.8241906366843668e-09, 2.8241906366843668e-09, 0.9999999960461331,
      2.8241906366843668e-09, 2.8241906366843668e-09, 0.9999999960461331,
      2.8241906366843668e-09, 2.8241906366843668e-09, 0.9999999960461331,
      0.9999999960461331, 0.9999999960461331, 2.8241906366843668e-09]),
    (605, "solve_spatial", 1, 2.623050536713662, 2, 2,
     [2.4564108286067077e-09, 2.4564108286067077e-09, 0.27870316660011657,
      0.7212968284870618]),
    (605, "solve_spatial", 2, 1.3301254634591744, 2, 2,
     [0.5442683377603603, 4.836571920242186e-09, 0.4557316622396397,
      0.9999999951634281]),
]

#: what the BLAS kernel leaves undetermined in phi (relative) and in the
#: weights (absolute): the largest spread measured over 16 OpenBLAS kernels
#: (5.6e-16 / 8.3e-16) and over one-ulp perturbations of the tensor
#: (5.6e-16 / 3.1e-15), rounded up to a power of ten
PATH_TOL = 1e-14


class TestOptimizerPath:
    @pytest.mark.parametrize(
        "seed, solver, budget, phi, n_outer, n_vertices, weights", OPTIMIZER_PATHS,
        ids=[f"{seed}-{solver}-{budget}" for seed, solver, budget, *_ in OPTIMIZER_PATHS])
    def test_pinned_path(self, seed, solver, budget, phi, n_outer, n_vertices, weights):
        # a refactor of the outer loop must take the same path: the counts,
        # the support and the weights at exactly 0 or 1 are bitwise, phi and
        # the fractional weights equal up to what the BLAS kernel rounds
        tensor = synthetic_tensor(4, 3, 3, np.random.default_rng(seed))
        result = getattr(oed, solver)(tensor, budget)
        w, ref = result.design.weights, np.array(weights)
        assert (result.n_outer, result.n_vertices) == (n_outer, n_vertices)
        binary = np.isin(ref, (0.0, 1.0))
        assert np.array_equal(np.isin(w, (0.0, 1.0)), binary)
        assert np.array_equal(w[binary], ref[binary])
        assert np.abs(w - ref).max() <= PATH_TOL
        assert abs(result.phi - phi) <= PATH_TOL * phi


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
