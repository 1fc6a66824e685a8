"""A-optimal sensor activation on the restricted simplex.

The relaxed design problem minimizes trace(B * Upsilon(w)^-1) over weights
0 <= w <= 1 with total budget C_w. Simplicial decomposition alternates a
vertex oracle (the budget's worth of most negative partial derivatives) with
Torsney's multiplicative master update over the convex hull of the active
vertices. The initial uniform design participates as an extra generator so
the first master problem is strictly feasible; it is pruned as soon as its
barycentric weight vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Infeasible,
    MaxIterations,
    NonIntegerBudget,
    NotPositiveDefinite,
    SingularInformation,
)
from .fim import FimTensor, combine, spatial_tensor, weighted_sum
from .numerics import cholesky, cholesky_solve, generalized_eig, solve_lower

#: reporting thresholds: weights below/above count as exactly zero/one
WEIGHT_ZERO_TOL = 1e-6

TOL_OUTER_DEFAULT = 1e-3
MAX_OUTER_DEFAULT = 200
MASTER_TOL_DEFAULT = 1e-4
#: per-visit cap; the outer loop re-enters the master with a warm gamma, so
#: slowly decaying vertices accumulate iterations across rounds while the
#: index-level certificate decides termination
MASTER_MAX_ITER_DEFAULT = 2000
#: barycentric weights below this are treated as having left the active set
SUPPORT_EPS = 1e-8
PRUNE_TOL = 1e-10


@dataclass
class Design:
    """Weight vector on the restricted simplex, fixed row-major enumeration."""

    weights: np.ndarray
    budget: float
    n_obs: int
    n_time: int
    provenance: str = "uniform"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.n_obs * self.n_time,):
            raise ValueError("weight vector length must be n_obs * n_time")
        if self.weights.min() < -1e-12 or self.weights.max() > 1.0 + 1e-12:
            raise ValueError("weights must lie in [0, 1]")
        if self.weights.sum() > self.budget + 1e-10:
            raise ValueError("weights exceed the budget")
        if self.budget >= len(self.weights):
            raise ValueError("budget must be smaller than the number of weights")

    def counts(self):
        w = self.weights
        zero = int(np.sum(w < WEIGHT_ZERO_TOL))
        one = int(np.sum(w > 1.0 - WEIGHT_ZERO_TOL))
        return {"zero": zero, "one": one,
                "fractional": len(w) - zero - one}


def uniform_design(tensor: FimTensor, budget) -> Design:
    n = tensor.n_weights
    return Design(weights=np.full(n, budget / n), budget=budget,
                  n_obs=tensor.n_obs, n_time=tensor.n_time, provenance="uniform")


@dataclass
class OEDResult:
    """Converged design with its certification and eigen-analysis."""

    design: Design
    phi: float
    phi_history: np.ndarray
    dw_history: np.ndarray
    xi: float
    violations: np.ndarray
    eigenvalues: np.ndarray          # ascending generalized eigenvalues
    eigenvectors: np.ndarray         # B-orthonormal columns
    counts: dict
    converged: bool | None           # None: the weights were not optimized
    n_outer: int
    n_vertices: int


class ReducedProblem:
    """Design problem in the metric's Cholesky coordinates.

    With B = L L^T and C_k = L^-1 Y_k L^-T, the criterion becomes
    trace(C(w)^-1) and its partial derivatives -trace(C(w)^-2 C_k). The
    overlapping-bump basis makes Y(w) and B nearly singular along the same
    directions; working on the reduced pencil keeps every evaluation at the
    (mild) conditioning of the generalized eigenvalues instead of the
    (possibly extreme) conditioning of Y(w) itself.
    """

    def __init__(self, tensor: FimTensor):
        self.tensor = tensor
        self.metric_factor = cholesky(tensor.gramian)
        self.reduced = np.stack([self.reduce(y) for y in tensor.flat()])

    def reduce(self, mat):
        low = self.metric_factor
        c = solve_lower(low, solve_lower(low, mat).T)
        return 0.5 * (c + c.T)

    def combine(self, weights):
        return weighted_sum(weights, self.reduced)

    @staticmethod
    def phi_of(reduced_matrix):
        """trace(C^-1); +inf when C is singular."""
        try:
            return ReducedProblem.state_of(reduced_matrix)[1]
        except SingularInformation:
            return math.inf

    @staticmethod
    def state_of(reduced_matrix):
        """(kernel C^-2, phi); raises SingularInformation when singular."""
        try:
            low = cholesky(reduced_matrix)
        except NotPositiveDefinite as err:
            raise SingularInformation(str(err)) from err
        inv = cholesky_solve(low, np.eye(len(reduced_matrix)))
        inv = 0.5 * (inv + inv.T)
        return inv @ inv, float(np.trace(inv))

    def phi(self, weights):
        return self.phi_of(self.combine(weights))

    def gradient(self, weights):
        """Partial derivatives of the A-criterion, -trace(G Y_kl), all <= 0."""
        kernel, _ = self.state_of(self.combine(weights))
        return -np.einsum("kij,ij->k", self.reduced, kernel)

    def residual(self, weights, budget):
        """Equilibration residuals (xi, violations) of the optimality condition.

        xi is the mean negative derivative over fractional weights (falling
        back to the budget-th largest when none are fractional); the
        violation vector measures each index's deviation from its band.
        """
        w = np.asarray(weights, dtype=float)
        neg = -self.gradient(w)
        frac = (w > WEIGHT_ZERO_TOL) & (w < 1.0 - WEIGHT_ZERO_TOL)
        if frac.any():
            xi = float(neg[frac].mean())
        else:
            xi = float(np.sort(neg)[::-1][_integer_budget(budget) - 1])
        violations = np.zeros_like(w)
        ones = w >= 1.0 - WEIGHT_ZERO_TOL
        zeros = w <= WEIGHT_ZERO_TOL
        violations[ones] = np.maximum(0.0, xi - neg[ones])
        violations[frac] = np.abs(neg[frac] - xi)
        violations[zeros] = np.maximum(0.0, neg[zeros] - xi)
        return xi, violations


def vertex_oracle(grad, budget):
    """Binary design activating the `budget` most negative derivatives.

    Ties break to the lowest enumeration index. Raises NonIntegerBudget for
    fractional budgets (simplex vertices need an integer number of ones).
    """
    c = _integer_budget(budget)
    grad = np.asarray(grad, dtype=float)
    if not 0 < c <= len(grad):
        raise ValueError(f"budget {c} outside 1..{len(grad)}")
    order = np.argsort(grad, kind="stable")
    v = np.zeros(len(grad))
    v[order[:c]] = 1.0
    return v


def _integer_budget(budget):
    c = round(float(budget))
    if abs(budget - c) > 1e-9:
        raise NonIntegerBudget(f"budget must be an integer, got {budget}")
    return int(c)


def torsney_master(gen_reduced, gamma, tol, max_iter):
    """Barycentric weights solving the restricted master problem.

    Torsney's monotone multiplicative update on the reduced generator
    matrices `gen_reduced`, started from the barycentric weights `gamma`.

    Returns (gamma, converged). Convergence: slopes equilibrate within
    `tol` over the significant support (gamma > SUPPORT_EPS) while every
    faded vertex is no better than the common slope. Vertices leaving the
    active set decay geometrically and must not be held to the equality
    band, or the iteration can never certify. Each accepted step is the
    dyadic-line-search minimum along the multiplicative direction; the raw
    step oscillates around sharply curved valleys otherwise.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gen_reduced.shape[-1]
    flat = gen_reduced.reshape(len(gen_reduced), n * n)

    def combine(g):
        # bitwise the product np.tensordot(g, gen_reduced, axes=1) forms,
        # without its per-call reshaping
        return np.dot(g.reshape(1, -1), flat).reshape(n, n)

    try:
        kernel, phi = ReducedProblem.state_of(combine(gamma))
    except SingularInformation as err:
        raise SingularInformation(
            "no strictly feasible start for the master problem") from err

    for _ in range(max_iter):
        slopes = -np.einsum("jab,ab->j", gen_reduced, kernel)  # d phi / d gamma_j
        mean_slope = float(gamma @ slopes)                     # < 0
        significant = gamma > SUPPORT_EPS
        spread = np.abs(slopes[significant] - mean_slope) / abs(mean_slope)
        faded_fine = np.all(-slopes[~significant]
                            <= -mean_slope * (1.0 + tol))
        if spread.max() < tol and faded_fine:
            return gamma, True

        proposal = gamma * (slopes / mean_slope)
        proposal /= proposal.sum()
        direction = proposal - gamma
        best = None
        prev_phi = math.inf
        alpha = 1.0
        for _ in range(60):
            cand = gamma + alpha * direction
            try:
                kern_new, phi_new = ReducedProblem.state_of(combine(cand))
            except SingularInformation:
                kern_new, phi_new = None, math.inf
            if phi_new > prev_phi:
                break
            if phi_new <= phi * (1.0 + 1e-14):
                best = (cand, kern_new, phi_new)
            prev_phi = phi_new
            alpha *= 0.5
        if best is None or best[2] >= phi * (1.0 - 1e-14):
            return gamma, True                                 # numerically stalled
        gamma, kernel, phi = best
    return gamma, False


def _result(problem: ReducedProblem, design: Design, certificate, w, phi_history,
            dw_history=(), converged=None, n_outer=0, n_vertices=0) -> OEDResult:
    """Attach `certificate`, the (xi, violations) `problem.residual` gave for
    `design`, and run the eigen-analysis of the information matrix at the
    weights `w`; phi is the last entry of `phi_history`."""
    xi, violations = certificate
    eig = generalized_eig(combine(w, problem.tensor), problem.tensor.gramian)
    return OEDResult(
        design=design, phi=phi_history[-1],
        phi_history=np.asarray(phi_history), dw_history=np.asarray(dw_history),
        xi=xi, violations=violations,
        eigenvalues=eig.values, eigenvectors=eig.vectors,
        counts=design.counts(), converged=converged,
        n_outer=n_outer, n_vertices=n_vertices,
    )


def evaluate_design(design: Design, tensor: FimTensor) -> OEDResult:
    """Non-optimized evaluation (criterion, residuals, eigenpairs) of a design."""
    problem = ReducedProblem(tensor)
    certificate = problem.residual(design.weights, design.budget)
    return _result(problem, design, certificate, design.weights,
                   [problem.phi(design.weights)])


def simplicial_decomposition(tensor: FimTensor, budget,
                             tol_outer=TOL_OUTER_DEFAULT) -> OEDResult:
    """Solve the relaxed design problem by simplicial decomposition.

    Raises Infeasible when no feasible design yields an SPD information
    matrix and MaxIterations when the outer loop exhausts its budget without
    certifying optimality.
    """
    c = _integer_budget(budget)
    n_idx = tensor.n_weights
    if not 0 < c < n_idx:
        raise ValueError(f"budget must lie strictly between 0 and {n_idx}")

    problem = ReducedProblem(tensor)
    # the index-level certificate cannot be tighter than the master's
    # slope-equilibration band
    master_tol = min(MASTER_TOL_DEFAULT, 0.1 * tol_outer)
    w = np.full(n_idx, c / n_idx)
    phi = problem.phi(w)
    if not math.isfinite(phi):
        raise Infeasible("uniform design has a singular information matrix")

    # generator rows and their reduced matrices; the uniform start rides along
    # as the only row that is not binary (0 < c / n_idx < 1)
    gens = w[None]
    mats = problem.combine(w)[None]
    gamma = np.array([1.0])

    phi_history = [phi]
    dw_history = []
    converged = False

    for n_outer in range(1, MAX_OUTER_DEFAULT + 1):
        vertex = vertex_oracle(problem.gradient(w), c)
        is_new = not (gens == vertex).all(axis=1).any()
        if is_new:
            vertex_mat = problem.combine(vertex)
            current_mat = problem.combine(w)
            # backtracking seed toward the new vertex keeps phi monotone
            delta = next((d for d in (0.5, 0.25, 0.1, 0.05, 0.01, 0.001)
                          if ReducedProblem.phi_of((1.0 - d) * current_mat
                                                   + d * vertex_mat) < phi), 0.0)
            gens = np.vstack([gens, vertex])
            mats = np.concatenate([mats, vertex_mat[None]])
            gamma = np.append((1.0 - delta) * gamma, delta)

        gamma, master_done = torsney_master(mats, gamma, master_tol,
                                            MASTER_MAX_ITER_DEFAULT)

        # drop generators whose barycentric weight has vanished; gamma sums
        # to one, so some generator always stays
        keep = gamma > PRUNE_TOL
        if not keep.all():
            gens, mats = gens[keep], mats[keep]
            gamma = gamma[keep] / gamma[keep].sum()

        w_new = np.einsum("j,jk->k", gamma, gens)
        phi_new = problem.phi(w_new)
        dw_history.append(float(np.abs(w_new - w).sum()))
        phi_history.append(phi_new)
        w, phi = w_new, phi_new

        weights = np.clip(w, 0.0, 1.0)
        xi, violations = problem.residual(weights, c)
        if violations.max() <= tol_outer * xi:
            converged = True
            break
        if not is_new and master_done:
            break
    else:
        raise MaxIterations(f"no certificate after {MAX_OUTER_DEFAULT} outer iterations")

    design = Design(weights=weights, budget=float(c),
                    n_obs=tensor.n_obs, n_time=tensor.n_time, provenance="optimized")
    n_vertices = int(np.isin(gens, (0.0, 1.0)).all(axis=1).sum())
    # the eigen-analysis sees the unclipped weights
    return _result(problem, design, (xi, violations), w, phi_history, dw_history,
                   converged, n_outer, n_vertices)


def solve_spatial(tensor: FimTensor, budget, **kwargs) -> OEDResult:
    """Spatial-only variant: sensors are on for the whole horizon.

    Identical algorithm applied to the time-aggregated tensor; the result's
    design has one weight per sensor.
    """
    result = simplicial_decomposition(spatial_tensor(tensor), budget, **kwargs)
    result.design.provenance = "optimized-spatial"
    return result
