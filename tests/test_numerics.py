import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from diffdesign import numerics
from diffdesign.errors import NoConvergence, NotPositiveDefinite


def random_spd(n, rng, shift=1.0):
    a = rng.standard_normal((n, n))
    return a.T @ a + shift * np.eye(n)


class TestCholesky:
    def test_identity(self):
        lower = numerics.cholesky(np.eye(3))
        assert np.allclose(lower, np.eye(3))

    def test_diagonal(self):
        lower = numerics.cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(lower, np.diag([2.0, 3.0]))

    def test_reconstruction_6x6(self):
        rng = np.random.default_rng(0)
        a = random_spd(6, rng)
        lower = numerics.cholesky(a)
        assert np.linalg.norm(lower @ lower.T - a) < 1e-10 * np.linalg.norm(a)
        assert np.allclose(np.triu(lower, 1), 0.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            numerics.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_psd_rejected(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefinite):
            numerics.cholesky(np.outer(v, v))

    def test_roundtrip_up_to_50(self):
        rng = np.random.default_rng(1)
        for n in (2, 7, 20, 50):
            a = random_spd(n, rng)
            lower = numerics.cholesky(a)
            assert np.linalg.norm(lower @ lower.T - a) <= 1e-10 * np.linalg.norm(a)


class TestLapackBits:
    """The direct potrf/trtrs calls give bitwise the results of the scipy
    wrappers they replace."""

    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    def test_cholesky_matches_scipy(self, n):
        a = random_spd(n, np.random.default_rng(10 + n))
        reference = scipy.linalg.cholesky(numerics.symmetric_part(a), lower=True)
        assert np.array_equal(numerics.cholesky(a), reference)

    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    @pytest.mark.parametrize("n_rhs", [None, 1, 4])
    def test_solves_match_solve_triangular(self, n, n_rhs):
        rng = np.random.default_rng(20 + n)
        lower = numerics.cholesky(random_spd(n, rng))
        b = rng.standard_normal(n if n_rhs is None else (n, n_rhs))
        forward = scipy.linalg.solve_triangular(lower, b, lower=True)
        backward = scipy.linalg.solve_triangular(lower.T, forward, lower=False)
        assert np.array_equal(numerics.solve_lower(lower, b), forward)
        assert np.array_equal(numerics.cholesky_solve(lower, b), backward)

    @pytest.mark.parametrize("n", [2, 9, 30])
    def test_cholesky_reads_only_the_lower_triangle(self, n):
        rng = np.random.default_rng(40 + n)
        a = random_spd(n, rng)
        lower = np.tril(a)
        completion = lower + np.tril(a, -1).T
        garbage = lower + np.triu(rng.standard_normal((n, n)) * 1e3, 1)
        assert np.array_equal(numerics.cholesky(garbage),
                              numerics.cholesky(completion))

    def test_indefinite_fails_in_the_factorization(self):
        with pytest.raises(NotPositiveDefinite, match="2-th leading minor"):
            numerics.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rank_deficient_psd_fails_at_the_pivot_floor(self):
        # rank 2 of 3: round-off leaves potrf a last pivot of ~6e-17 > 0, so
        # only the pivot floor rejects the matrix
        b = np.random.default_rng(0).standard_normal((3, 2))
        a = numerics.symmetric_part(b @ b.T)
        _, info = scipy.linalg.lapack.dpotrf(a, lower=1)
        assert info == 0
        with pytest.raises(NotPositiveDefinite, match="pivot .* at column"):
            numerics.cholesky(a)


class TestSolveSpdDense:
    """Dense SPD solves through a Cholesky factor and two triangular solves."""

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(numerics.cholesky_solve(numerics.cholesky(np.eye(3)), b), b)

    def test_diagonal(self):
        lower = numerics.cholesky(np.diag([2.0, 4.0]))
        x = numerics.cholesky_solve(lower, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_known_solution_8x8(self):
        rng = np.random.default_rng(2)
        a = random_spd(8, rng)
        x0 = rng.standard_normal(8)
        x = numerics.cholesky_solve(numerics.cholesky(a), a @ x0)
        assert np.linalg.norm(x - x0) < 1e-9 * np.linalg.norm(x0)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = random_spd(10, rng)
        rhs = rng.standard_normal(10)
        x = numerics.cholesky_solve(numerics.cholesky(a), rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(4)
        a = random_spd(5, rng)
        b = rng.standard_normal((5, 3))
        x = numerics.cholesky_solve(numerics.cholesky(a), b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def standard_eig(a):
    """Standard symmetric eigenproblem as the pencil (A, I)."""
    return numerics.generalized_eig(a, np.eye(len(a)))


class TestJacobiEigensym:
    """Standard symmetric eigenproblems: the pencil with an identity metric,
    checked against np.linalg.eigh."""

    def test_already_diagonal(self):
        eig = standard_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])

    def test_swap_matrix(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        eig = standard_eig(a)
        assert np.allclose(eig.values, [-1.0, 1.0])
        assert np.allclose(eig.values, np.linalg.eigh(a)[0])

    def test_trace_identity_7x7(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        a = 0.5 * (a + a.T)
        eig = standard_eig(a)
        assert abs(np.trace(a) - eig.values.sum()) < 1e-10
        assert np.allclose(eig.values, np.linalg.eigh(a)[0], rtol=1e-10, atol=1e-12)

    def test_eigenpairs(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 9))
        a = 0.5 * (a + a.T)
        eig = standard_eig(a)
        resid = a @ eig.vectors - eig.vectors * eig.values
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(a)
        assert np.all(np.diff(eig.values) >= 0.0)
        assert np.allclose(eig.values, np.linalg.eigh(a)[0], rtol=1e-10, atol=1e-12)


class TestGeneralizedEig:
    def test_identity_metric_matches_jacobi(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        a = a.T @ a
        ref, _ = np.linalg.eigh(a)
        gen = numerics.generalized_eig(a, np.eye(5))
        assert np.allclose(gen.values, ref, rtol=1e-10, atol=1e-12)

    def test_proportional_pencil(self):
        rng = np.random.default_rng(8)
        b = random_spd(6, rng)
        gen = numerics.generalized_eig(2.0 * b, b)
        assert np.allclose(gen.values, 2.0, rtol=1e-10)

    def test_random_pencil_residual(self):
        rng = np.random.default_rng(9)
        a = random_spd(4, rng, shift=0.0)
        b = random_spd(4, rng)
        gen = numerics.generalized_eig(a, b)
        resid = a @ gen.vectors - b @ gen.vectors * gen.values
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(a)

    def test_b_orthonormal(self):
        rng = np.random.default_rng(10)
        a = random_spd(7, rng, shift=0.0)
        b = random_spd(7, rng)
        gen = numerics.generalized_eig(a, b)
        gram = gen.vectors.T @ b @ gen.vectors
        assert np.linalg.norm(gram - np.eye(7)) < 1e-8

    def test_rejects_indefinite_metric(self):
        with pytest.raises(NotPositiveDefinite):
            numerics.generalized_eig(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(11)
        a = random_spd(6, rng, shift=0.0)
        b = random_spd(6, rng)
        t = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        ref = numerics.generalized_eig(a, b)
        tra = numerics.generalized_eig(t.T @ a @ t, t.T @ b @ t)
        assert np.allclose(ref.values, tra.values, rtol=1e-7, atol=1e-10)

    def test_reciprocal_sum_equals_weighted_trace(self):
        # sum of 1/Lambda_i for the pencil (A, B) equals trace(B A^-1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_spd(5, rng)
            b = random_spd(5, rng)
            gen = numerics.generalized_eig(a, b)
            trace = np.trace(numerics.cholesky_solve(numerics.cholesky(a), b))
            assert abs(np.sum(1.0 / gen.values) - trace) < 1e-8 * abs(trace)


def scipy_cg(a, b, tol, x0=None, max_iter=None):
    """The reference `cg_solve` must reproduce bit for bit, row by row:
    scipy's CG with the Jacobi preconditioner; returns (x, info, iterations)."""
    inv_diag = 1.0 / a.diagonal()
    jacobi = spla.LinearOperator(a.shape, matvec=lambda r: inv_diag * r)
    iterations = []
    x, info = spla.cg(a, b, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter,
                      M=jacobi, callback=lambda _: iterations.append(1))
    return x, info, len(iterations)


@pytest.fixture(scope="module")
def block_system():
    """Sparse SPD matrix (n = 300) and a block of right-hand sides whose
    rows converge at different iterations: random rows at magnitudes 1e-6
    to 1e6, a unit vector, a smooth row, and a zero row."""
    rng = np.random.default_rng(21)
    n = 300
    r = sp.random(n, n, density=0.02, random_state=22, format="csr")
    a = sp.csr_matrix(r + r.T + sp.diags(rng.uniform(2.0, 8.0, n)))
    b = rng.standard_normal((7, n)) * np.logspace(-6, 6, 7)[:, None]
    b[1] = 0.0
    b[1, 17] = 1.0
    b[2] = np.sin(np.linspace(0.0, np.pi, n))
    b[4] = 0.0
    return a, b


class TestCgSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0, 3.0]])
        x = numerics.cg_solve(sp.identity(3, format="csr"), b)
        assert np.allclose(x, b)

    def test_1d_laplacian_against_dense(self):
        a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(5, 5), format="csr")
        rhs = np.ones(5)
        (x,) = numerics.cg_solve(a, rhs[None])
        expected = np.linalg.solve(a.toarray(), rhs)
        assert np.allclose(x, expected, atol=1e-9)

    def test_known_solution(self):
        rng = np.random.default_rng(13)
        dense = random_spd(40, rng, shift=5.0)
        dense[np.abs(dense) < 1.0] = 0.0
        dense = 0.5 * (dense + dense.T) + 50.0 * np.eye(40)
        a = sp.csr_matrix(dense)
        x0 = rng.standard_normal(40)
        (x,) = numerics.cg_solve(a, (a @ x0)[None], tol=1e-12)
        assert np.linalg.norm(x - x0) < 1e-8 * np.linalg.norm(x0)

    def test_p1_system_known_solution(self):
        # stiffness + mass of a coarse triangulation, solved from a
        # manufactured solution
        from diffdesign import mesh
        from test_mesh import delaunay, triangle_array
        tr = delaunay([(0, 0), (1, 0), (1, 1), (0, 1)])
        mesh.refine(tr, h=0.2)
        tris = triangle_array(tr)
        used = np.unique(tris)
        remap = np.full(len(tr.points), -1, dtype=int)
        remap[used] = np.arange(len(used))
        nodes = tr.point_array()[used]
        tris = remap[tris]
        g, area = mesh.p1_gradients(nodes, tris)
        n = len(nodes)
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        stiff_vals = np.einsum("e,eia,eja->eij", area, g, g).reshape(-1)
        local_mass = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
        mass_vals = (area[:, None, None] * local_mass).reshape(-1)
        a = sp.coo_matrix((stiff_vals + mass_vals, (rows, cols)), shape=(n, n)).tocsr()
        rng = np.random.default_rng(15)
        x0 = rng.standard_normal(n)
        (x,) = numerics.cg_solve(a, (a @ x0)[None], tol=1e-12)
        assert np.linalg.norm(a @ x - a @ x0) <= 1e-12 * np.linalg.norm(a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-7 * np.linalg.norm(x0)

    def test_zero_rhs(self):
        a = sp.identity(4, format="csr")
        assert np.array_equal(numerics.cg_solve(a, np.zeros((1, 4))), np.zeros((1, 4)))

    def test_no_convergence(self):
        a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(30, 30), format="csr")
        with pytest.raises(NoConvergence):
            numerics.cg_solve(a, np.ones((1, 30)), tol=1e-10, max_iter=2)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        a = sp.csr_matrix(random_spd(20, rng, shift=10.0))
        rhs = rng.standard_normal((2, 20))
        x1 = numerics.cg_solve(a, rhs)
        x2 = numerics.cg_solve(a, rhs)
        assert np.array_equal(x1, x2)

    def assert_rows_match_scipy(self, a, b, tol, x0=None):
        got = numerics.cg_solve(a, b, tol=tol, x0=x0)
        assert got.shape == b.shape
        counts = set()
        for i in range(len(b)):
            want, info, its = scipy_cg(a, b[i], tol, None if x0 is None else x0[i])
            assert info == 0
            assert np.array_equal(got[i], want), i
            counts.add(its)
        return counts

    def test_block_rows_bitwise_scipy_cold(self, block_system):
        a, b = block_system
        counts = self.assert_rows_match_scipy(a, b, 1e-10)
        # zero row (no iterations) plus rows stopping at different iterations
        assert len(counts) >= 3

    def test_block_rows_bitwise_scipy_warm(self, block_system):
        a, b = block_system
        rng = np.random.default_rng(23)
        x0 = rng.standard_normal(b.shape)
        # one row starts next to its solution and stops early
        x0[2] = scipy_cg(a, b[2], 1e-6)[0]
        counts = self.assert_rows_match_scipy(a, b, 1e-10, x0=x0)
        assert len(counts) >= 3

    def test_zero_row_with_warm_start_returns_zeros(self, block_system):
        a, b = block_system
        x0 = np.ones(b.shape)
        got = numerics.cg_solve(a, b, x0=x0)
        assert np.array_equal(got[4], np.zeros(b.shape[1]))
        assert np.array_equal(got[4], scipy_cg(a, b[4], 1e-10, x0[4])[0])

    def test_block_no_convergence_when_any_row_hits_max_iter(self, block_system):
        a, b = block_system
        # scipy tests the residual before each update, so a row that stops
        # after k updates needs max_iter > k
        counts = [scipy_cg(a, row, 1e-10)[2] for row in b]
        cap = max(counts)
        infos = [scipy_cg(a, row, 1e-10, max_iter=cap)[1] for row in b]
        assert 0 in infos and max(infos) == cap
        with pytest.raises(NoConvergence):
            numerics.cg_solve(a, b, tol=1e-10, max_iter=cap)
        got = numerics.cg_solve(a, b, tol=1e-10, max_iter=cap + 1)
        assert np.array_equal(got, numerics.cg_solve(a, b, tol=1e-10))
