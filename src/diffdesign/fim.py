"""Measurement operators, correlated-noise covariance, and Fisher
information assembly.

Each sensor patch carries the discrete second-order operator
``a0 * K + a1 * M`` (natural boundary conditions, lumped patch mass) whose
square is the inverse covariance of the distributed measurement. The
elementary information matrix of sensor k at instant l is the Gram matrix of
the whitened sensitivity restrictions: as the sensitivity march hands over
the step of a design instant, it is restricted to each patch and whitened
for all basis fields at once, with one sparse product per (sensor, instant)
pair; no step is kept. The combined matrix is the weighted sum of the
elementary matrices in a fixed (sensor, instant) row-major enumeration.

The tensor cache is a numpy ``.npz`` archive keyed by `config.tensor_hash`; a
file that is not a complete, intact cache for that key raises CacheMismatch.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CacheMismatch, DimensionMismatch, InstantOutOfRange, MissingTag
from .mesh import Mesh, p1_gradients, p1_stiffness

ALPHA0_DEFAULT = 0.01
ALPHA1_DEFAULT = 1.0


@dataclass
class SensorModel:
    """Discrete noise operator of one measurement patch."""

    elements: np.ndarray         # the sensor's mesh elements
    nodes: np.ndarray            # their global node ids, ascending; local id = position
    alpha0: float
    alpha1: float
    stiffness: sp.csr_matrix     # patch Laplacian, natural BCs, local numbering
    lumped_mass: np.ndarray      # diagonal patch mass


def build_sensor_model(mesh: Mesh, sensor_id: int,
                       alpha0=ALPHA0_DEFAULT, alpha1=ALPHA1_DEFAULT) -> SensorModel:
    if alpha0 <= 0.0 or alpha1 <= 0.0:
        raise ValueError("covariance parameters must be positive")
    elements = mesh.sensor_elements[sensor_id]
    if len(elements) == 0:
        raise MissingTag(f"sensor {sensor_id} covers no mesh element")
    global_tris = mesh.triangles[elements]
    nodes = np.unique(global_tris)
    tris = np.searchsorted(nodes, global_tris)
    g, area = p1_gradients(mesh.nodes[nodes], tris)
    n = len(nodes)
    stiffness = p1_stiffness(tris, g, area, n)
    lumped = np.zeros(n)
    np.add.at(lumped, tris.ravel(), np.repeat(area / 3.0, 3))
    return SensorModel(elements=elements, nodes=nodes, alpha0=alpha0, alpha1=alpha1,
                       stiffness=stiffness, lumped_mass=lumped)


def build_sensor_models(mesh: Mesh, alpha0=ALPHA0_DEFAULT,
                        alpha1=ALPHA1_DEFAULT):
    return [build_sensor_model(mesh, k, alpha0, alpha1)
            for k in range(len(mesh.sensor_elements))]


def apply_precision_root(model: SensorModel, local_fields):
    """Apply the discrete covariance-root inverse M^-1 (a0 K + a1 M) to a
    block of patch-local fields, one field per column."""
    mass = model.lumped_mass[:, None]
    out = model.alpha0 * (model.stiffness @ local_fields) \
        + model.alpha1 * (mass * local_fields)
    return out / mass


@dataclass
class FimTensor:
    """Elementary information matrices for every (sensor, instant) pair."""

    matrices: np.ndarray         # (n_obs, n_time, n_basis, n_basis)
    gramian: np.ndarray          # shape-metric Gramian of the basis

    @property
    def n_obs(self):
        return self.matrices.shape[0]

    @property
    def n_time(self):
        return self.matrices.shape[1]

    @property
    def n_basis(self):
        return self.matrices.shape[2]

    @property
    def n_weights(self):
        return self.n_obs * self.n_time

    def flat(self):
        """Matrices in the fixed (sensor, instant) row-major enumeration."""
        return self.matrices.reshape(self.n_weights, self.n_basis, self.n_basis)


def elementary_fims(march, sensors, instants, gramian) -> FimTensor:
    """Assemble the elementary FIM of every sensor/instant pair while the
    sensitivities of the basis block are marched.

    march(observe) calls observe(m, block) for each time step m = 0, ...,
    n_steps in order, `block` the (n_basis, n_nodes) sensitivities at step
    m; `instants` are step indices.
    """
    gramian = np.asarray(gramian, dtype=float)
    instants = np.asarray(instants, dtype=int)
    mats = np.zeros((len(sensors), len(instants)) + gramian.shape)
    steps = []

    def observe(step, block):
        steps.append(step)
        for li in np.flatnonzero(instants == step):
            for k, sensor in enumerate(sensors):
                local = block[:, sensor.nodes].T
                whitened = apply_precision_root(sensor, local) * np.sqrt(sensor.lumped_mass)[:, None]
                upper = np.triu(whitened.T @ whitened)
                mats[k, li] = upper + np.triu(upper, 1).T

    march(observe)
    n_steps = len(steps) - 1
    if len(instants) and (instants.min() < 0 or instants.max() > n_steps):
        raise InstantOutOfRange(
            f"instants must lie in [0, {n_steps}], got {instants.min()}..{instants.max()}")
    return FimTensor(matrices=mats, gramian=gramian)


def weighted_sum(weights, mats):
    """sum_i weights[i] * mats[i] over the nonzero weights (+0.0 zeros when
    there are none: tensordot over an empty contraction).

    Summation order is the fixed enumeration, so the result is bitwise
    reproducible.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mats),):
        raise DimensionMismatch(f"got {w.shape[0]} weights for {len(mats)} matrices")
    nz = np.flatnonzero(w)
    return np.tensordot(w[nz], mats[nz], axes=1)


def combine(weights, tensor: FimTensor):
    """Combined FIM: the weighted sum of the elementary matrices."""
    return weighted_sum(weights, tensor.flat())


def spatial_tensor(tensor: FimTensor) -> FimTensor:
    """Tensor of the spatial-only problem: each sensor's information summed
    over all instants, as one synthetic instant."""
    mats = tensor.matrices.sum(axis=1)[:, None, :, :]
    return FimTensor(matrices=mats, gramian=tensor.gramian)


# -- tensor cache -------------------------------------------------------------

def save_tensor(tensor: FimTensor, path, config_hash):
    """Write the tensor cache as an uncompressed ``.npz`` archive holding
    ``matrices``, ``gramian`` and the tensor hash as ``key``.

    The bytes go to a process-private temporary file in the same directory,
    which then replaces `path` in one step; readers see the old file or the
    complete new one, never a partial write. Members carry a fixed date, so
    equal tensors give equal files.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, matrices=np.ascontiguousarray(tensor.matrices, dtype="<f8"),
                     gramian=np.ascontiguousarray(tensor.gramian, dtype="<f8"),
                     key=np.array(config_hash))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_tensor(path, expect_hash) -> FimTensor:
    """Read a tensor cache; raises CacheMismatch when the file is not a complete,
    intact tensor cache (each member's CRC-32 is checked on read), its stored key
    differs from `expect_hash`, or its arrays do not form a tensor."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            mats, gram, key = npz["matrices"], npz["gramian"], str(npz["key"])
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as err:
        raise CacheMismatch(f"{path} is not a FIM tensor cache ({err})") from err
    if key != expect_hash:
        raise CacheMismatch("tensor cache was built from a different config or code")
    if mats.ndim != 4 or mats.shape[2:] != gram.shape:
        raise CacheMismatch(f"tensor cache shapes {mats.shape} and {gram.shape} disagree")
    return FimTensor(matrices=mats, gramian=gram)
