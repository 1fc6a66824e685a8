"""P1 finite elements for the diffusion forward problem and its shape
sensitivities.

Time stepping is backward Euler on a uniform grid. The sensitivity equation
shares the forward left-hand operator with homogeneous Dirichlet data; its
right side discretizes the time derivative with the same backward difference
the stepper induces, which keeps the scheme the exact derivative of the
discrete forward problem under node displacement. That exactness is what the
test suite's finite-difference oracle checks. The sensitivities of the k
basis fields are one block: their element data are formed once, the
field-independent terms of each step's load once per step, and the block
marches with one CG solve per time step, each (k, n_nodes) step handed to
an observer, not stored. The fields are independent, so the block is split
into one contiguous group of rows per usable CPU (the process's affinity
mask): the calling process marches the first group and one worker of a
fork-context `concurrent.futures` process pool per other group writes its
rows into a shared ring of `RING_STEPS` step blocks. Each row is bitwise
that of its field marched alone, so the split never changes a bit of it.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np
import scipy.sparse as sp

from .errors import MissingTag
from .mesh import Mesh, assemble_p1, p1_gradients, p1_stiffness
from .numerics import cg_solve, dirichlet_blocks
from .shape import VelocityField, velocity_gradients

KAPPA_BULK_DEFAULT = 1e-1
KAPPA_INC_DEFAULT = 1e-3
U_DIRICHLET_DEFAULT = 1.0
T_DEFAULT = 10.0
N_STEPS_DEFAULT = 21


@dataclass
class HeatOperators:
    """Assembled operators of the parabolic problem on a tagged mesh."""

    mesh: Mesh
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    robin: sp.csr_matrix
    kappa: np.ndarray               # diffusion coefficient per element
    dirichlet_nodes: np.ndarray
    dirichlet_value: float
    source: object = None           # optional callable t -> nodal values
    _cache: dict = field(default_factory=dict, repr=False)

    def reduced_system(self, tau):
        """Free-node backward-Euler matrix and coupling block, cached per tau."""
        if tau not in self._cache:
            free = np.setdiff1d(np.arange(len(self.mesh.nodes)), self.dirichlet_nodes)
            self._cache[tau] = (free, *dirichlet_blocks(
                self.mass + tau * (self.stiffness + self.robin), free, self.dirichlet_nodes))
        return self._cache[tau]


@dataclass
class Trajectory:
    """Nodal coefficients on a uniform time grid; values[..., m, :] is
    t = times[m], (n_steps + 1, n) for the forward state."""

    times: np.ndarray
    values: np.ndarray

    @property
    def tau(self):
        return float(self.times[1] - self.times[0])


def assemble_heat(mesh: Mesh, kappa_bulk=KAPPA_BULK_DEFAULT,
                  kappa_inc=KAPPA_INC_DEFAULT,
                  u_d=U_DIRICHLET_DEFAULT, source=None) -> HeatOperators:
    """Assemble mass, stiffness, and Robin matrices for the tagged mesh.

    The Robin coefficients are the per-segment values stored in the mesh.
    Raises MissingTag when the mesh has no Dirichlet segment.
    """
    if kappa_bulk <= 0.0 or kappa_inc <= 0.0:
        raise ValueError("diffusion coefficients must be positive")
    nodes, tris = mesh.nodes, mesh.triangles
    n = len(nodes)
    g, area = p1_gradients(nodes, tris)
    kappa = np.where(mesh.regions == 1, kappa_inc, kappa_bulk)

    local_mass = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    mass = assemble_p1(tris, area[:, None, None] * local_mass[None, :, :], n)
    stiffness = p1_stiffness(tris, g, kappa * area, n)

    on_robin = mesh.seg_kind == "robin"
    segs = mesh.seg_nodes[on_robin]
    lengths = np.linalg.norm(nodes[segs[:, 1]] - nodes[segs[:, 0]], axis=1)
    w = mesh.seg_beta[on_robin] * lengths / 6.0
    robin = assemble_p1(segs, w[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]]), n)

    dirichlet = np.unique(mesh.seg_nodes[mesh.seg_kind == "dirichlet"])
    if len(dirichlet) == 0:
        raise MissingTag("mesh has no dirichlet segments")
    return HeatOperators(mesh=mesh, mass=mass, stiffness=stiffness, robin=robin,
                         kappa=kappa, dirichlet_nodes=dirichlet,
                         dirichlet_value=float(u_d), source=source)


def _march(ops: HeatOperators, tau, load, dirichlet_value, tol, n_steps, slot,
           done=lambda m: None):
    """Backward-Euler march of k independent states from zero: step m = 1,
    ..., n_steps solves A_ff X = (M U_{m-1}^T)^T[:, free] + load(m) for all k
    rows in one `cg_solve` call, warm-started from the previous step, with
    U_{m-1} read from slot(m - 1), the (k, n) array of step m - 1 (slot(0)
    holds zeros), writes X and the Dirichlet value `dirichlet_value` into
    slot(m) and calls done(m).
    """
    free, a_ff, _ = ops.reduced_system(tau)
    guess = None
    for m in range(1, n_steps + 1):
        rhs = (ops.mass @ slot(m - 1).T).T[:, free] + load(m)
        guess = cg_solve(a_ff, rhs, tol=tol, x0=guess)
        step = slot(m)
        step[:, free] = guess
        step[:, ops.dirichlet_nodes] = dirichlet_value
        done(m)


def solve_forward(ops: HeatOperators, horizon=T_DEFAULT,
                  n_steps=N_STEPS_DEFAULT, tol=1e-10) -> Trajectory:
    """Backward-Euler solve of the forward problem from a zero initial state.

    Dirichlet values are imposed from the first step; the t = 0 snapshot
    keeps the (incompatible) zeros of the initial condition.
    """
    tau = horizon / n_steps
    free, _, a_fc = ops.reduced_system(tau)
    times = np.linspace(0.0, horizon, n_steps + 1)
    neg_lift = -(a_fc @ np.full(len(ops.dirichlet_nodes), ops.dirichlet_value))

    def load(m):
        if ops.source is None:
            return neg_lift
        return neg_lift + tau * (ops.mass @ np.asarray(ops.source(times[m])))[free]

    values = np.zeros((n_steps + 1, len(ops.mesh.nodes)))
    _march(ops, tau, load, ops.dirichlet_value, tol, n_steps, lambda m: values[None, m])
    return Trajectory(times=times, values=values)


def _sensitivity_element_data(ops, vfields):
    """Element data of the sensitivity load for the whole block: the support
    triangles, their P1 gradients and areas, and per field the symmetrized
    Jacobian A_V (k, e, 2, 2) and the divergence div V (k, e)."""
    tris = ops.mesh.triangles[vfields.support]
    jac, g, area = velocity_gradients(vfields)     # DV
    div = jac[..., 0, 0] + jac[..., 1, 1]
    a_v = jac + np.swapaxes(jac, -1, -2)
    a_v[..., 0, 0] -= div
    a_v[..., 1, 1] -= div
    kappa = ops.kappa[vfields.support]
    return tris, g, area, a_v, div, kappa


def _sensitivity_rhs(u_now, u_prev, tau, tris, g, area, a_v, div, kappa, n):
    """Nodal loads (k, n) of the material-derivative equation at one time
    level; the terms that do not depend on the field are formed once."""
    udot = (u_now[tris] - u_prev[tris]) / tau      # (e, 3)
    grad_u = np.einsum("ei,eia->ea", u_now[tris], g)
    kappa_area = (kappa * area)[:, None]
    mass_udot = (area / 12.0)[:, None] * (udot + udot.sum(axis=1, keepdims=True))
    rhs = np.zeros((len(a_v), n))
    # per field: einsum over a k axis runs ~4x slower than k 2-D einsums
    for row, a_vi, div_i in zip(rhs, a_v, div):
        flux = np.einsum("eba,eb->ea", a_vi, grad_u)   # A_V^T grad u
        term_flux = kappa_area * np.einsum("ea,eia->ei", flux, g)
        term_div = -div_i[:, None] * mass_udot
        np.add.at(row, tris, term_flux + term_div)
    return rhs


def _usable_cpus():
    """CPUs this process may run on (its affinity mask); 1 where the
    platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _shared_zeros(shape):
    """Zeroed float array in an anonymous shared mapping: what a forked
    worker writes into it is what the parent reads."""
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * count), dtype=float,
                         count=count).reshape(shape)


#: step blocks in the shared ring of a sensitivity march
RING_STEPS = 4
#: seconds between the checks a waiting process makes on the other groups
_POLL_S = 0.1

_worker = None                  # (run, alive), set in each pool worker only


def _start_worker(run, stop, parent):
    """Pool initializer: the worker runs its group with an `alive` check, at
    each time step and wait, that ends it when its parent is gone and raises
    once the parent has set the shared `stop` flag. On Linux the kernel also
    kills an idle worker with its parent, so a killed parent leaves no orphan."""
    global _worker

    def alive():
        if os.getppid() != parent:
            os._exit(1)
        if stop[0]:
            raise RuntimeError("sensitivity march stopped by an error in another group")

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl:
        prctl(1, signal.SIGKILL)    # PR_SET_PDEATHSIG
    alive()                         # the parent may have died before prctl
    _worker = (run, alive)


def _run_group(w):
    """Pool task: march the group of worker w in this worker."""
    run, alive = _worker
    run(w, alive)


def _march_groups(k, n_steps, march, observe):
    """Run march(rows, wait, done) over min(k, usable CPUs) contiguous row
    groups of range(k) and call observe(m), m = 0, ..., n_steps in order,
    once every group has written step m (step 0 is the ring's zeros). This
    process marches the first group; its done(m) observes what all groups
    have written, waiting for step m - RING_STEPS + 1, whose slot it writes
    next. A fork-context pool runs each other group in one worker, which
    posts "written" after each step and takes a "free" post, made per
    observed step, before each. Waits are timed: a worker runs its `alive`
    check, this process checks the futures. One group makes no pool and no
    semaphore. Raises the first error of a group or of `observe` with its
    type and message (a dead worker's as `BrokenProcessPool`); on any error
    the workers stop within one time step and all are reaped before this
    returns. The pool flushes stdio before it forks and its workers leave
    through os._exit, so no buffered output is written twice."""
    groups = [slice(g[0], g[-1] + 1)
              for g in np.array_split(np.arange(k), min(k, _usable_cpus()))]
    workers = range(len(groups) - 1)
    written = [get_context("fork").Semaphore(1) for _ in workers]     # step 0 is written
    free = [get_context("fork").Semaphore(RING_STEPS - 1) for _ in workers]
    got = [0 for _ in workers]          # "written" posts taken per worker
    seen = [0]                          # steps observed
    stop = _shared_zeros(1)
    futures = []

    def run(w, alive):
        def wait(m):
            while not free[w].acquire(timeout=_POLL_S):
                alive()
            alive()

        march(groups[w + 1], wait, lambda m: written[w].release())

    def observe_through(last, wait_through):
        while seen[0] <= last:
            block = seen[0] <= wait_through
            for w in workers:
                while got[w] <= seen[0]:
                    if written[w].acquire(block, _POLL_S):
                        got[w] += 1
                    elif not block:
                        return
                    elif futures[w].done():
                        futures[w].result()
            observe(seen[0])
            seen[0] += 1
            for sem in free:
                sem.release()

    with ExitStack() as stack:
        if workers:
            # fork passes initargs unpickled: no operator, trajectory, closure
            # or semaphore is pickled
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=len(workers), mp_context=get_context("fork"),
                initializer=_start_worker, initargs=(run, stop, os.getpid())))
            futures += [pool.submit(_run_group, w) for w in workers]
        try:
            observe_through(0, 0)
            march(groups[0], lambda m: None,
                  lambda m: observe_through(m, m - RING_STEPS + 1))
            observe_through(n_steps, n_steps)
            for future in futures:
                future.result()
        except BaseException:
            stop[0] = 1
            raise


def solve_sensitivity(ops: HeatOperators, forward: Trajectory,
                      vfields: VelocityField, observe, tol=1e-10):
    """March the material derivatives of the forward trajectory along each
    of the k velocity fields and call observe(m, block) for m = 0, ...,
    n_steps in order, `block` the (k, n) sensitivities at forward.times[m]:
    a read-only view of a ring slot that later steps overwrite.

    Same left-hand operator as the forward solve with homogeneous Dirichlet
    data; starts from zero. The fields march in contiguous groups, one per
    usable CPU: this process marches the first and a process-pool worker
    each other group, every group one block solve per step. Each row is
    bitwise that of its field marched alone, whatever the number of groups.
    A worker's error is raised here with its type and message.
    """
    tau = forward.tau
    n = len(ops.mesh.nodes)
    free, _, _ = ops.reduced_system(tau)
    tris, g, area, a_v, div, kappa = _sensitivity_element_data(ops, vfields)
    n_steps = len(forward.times) - 1
    ring = _shared_zeros((RING_STEPS, len(a_v), n))
    view = np.lib.stride_tricks.as_strided(ring, writeable=False)

    def march(rows, wait, done):
        def load(m):
            wait(m)
            return tau * _sensitivity_rhs(
                forward.values[m], forward.values[m - 1], tau, tris, g, area,
                a_v[rows], div[rows], kappa, n)[:, free]

        _march(ops, tau, load, 0.0, tol, n_steps, lambda m: ring[m % RING_STEPS, rows], done)

    _march_groups(len(a_v), n_steps, march, lambda m: observe(m, view[m % RING_STEPS]))
