"""Pipeline orchestration: mesh -> forward -> sensitivities -> FIM ->
optimize -> eigen-analysis, with a content-addressed tensor cache and
deterministic CSV/JSON outputs.

Stage timings (self and inclusive) are printed to stderr and kept on the
in-memory report only; serialized outputs carry no volatile data, so two runs
of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fem, fim, mesh_io, oed, shape
from .config import (Config, canonical_dict, check_sensitivity_size, config_hash,
                     tensor_hash)
from .errors import CacheMismatch, ConfigError
from .mesh import build_mesh
from .mesh_io import _fmt


@dataclass
class RunReport:
    case: str
    config_hash: str
    fim_cache: str                      # "hit", "miss", or "off"
    timings: dict = field(default_factory=dict)   # stage -> {"self", "total"} s
    outputs: list = field(default_factory=list)
    oed_summary: dict = field(default_factory=dict)


class Pipeline:
    """Lazy stage evaluator for one configuration."""

    def __init__(self, config: Config, out_dir, cache_dir=None, log=True):
        self.config = config
        self.out_dir = Path(out_dir)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.report = RunReport(case=config.case, config_hash=config_hash(config),
                                fim_cache="off" if cache_dir is None else "miss")
        self._log = log
        self._stages = {}
        self._nested = []               # per open stage: time of its nested stages

    def _info(self, message):
        if self._log:
            print(message, file=sys.stderr)

    def _stage(self, name, builder):
        """Build a stage once. Its self time excludes the stages its builder
        pulls in; its total (inclusive) time does not."""
        if name not in self._stages:
            self._nested.append(0.0)
            start = time.perf_counter()
            try:
                self._stages[name] = builder()
            finally:
                total = time.perf_counter() - start
                nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += total
            own = total - nested
            self.report.timings[name] = {"self": own, "total": total}
            line = f"[{self.config.case}] {name}: {own:.2f}s"
            if nested > 0.0:
                line += f" ({total:.2f}s with nested stages)"
            self._info(line)
        return self._stages[name]

    # -- stages ----------------------------------------------------------

    def mesh(self):
        return self._stage("mesh", lambda: build_mesh(self.config.geometry))

    def heat_operators(self):
        phys = self.config.physics
        return self._stage("assemble", lambda: fem.assemble_heat(
            self.mesh(), kappa_bulk=phys.kappa_bulk, kappa_inc=phys.kappa_inc))

    def forward(self):
        def build():
            # the sensitivities pull this stage in first: one check guards both
            phys = self.config.physics
            check_sensitivity_size(self.config, len(self.mesh().nodes))
            return fem.solve_forward(self.heat_operators(), horizon=phys.horizon,
                                     n_steps=phys.n_steps)
        return self._stage("forward", build)

    def curve(self):
        return self._stage("interface", lambda: shape.interface_from_mesh(self.mesh()))

    def basis_fields(self):
        def build():
            cfg = self.config.basis
            curve = self.curve()
            centers = None
            if cfg.center_mode == "farthest-point" and cfg.n_basis > 1:
                n_vertices = len(curve.vertices)
                if cfg.n_basis - 1 > n_vertices:
                    raise ConfigError(
                        f"$.basis.n_basis: {cfg.n_basis - 1} farthest-point centers "
                        f"need as many interface vertices; the mesh has {n_vertices}")
                dist = shape.graph_geodesics(curve)
                picks = shape.farthest_point_centers(dist, cfg.n_basis - 1, seed=0)
                centers = sorted(float(curve.arc[i]) for i in picks)
            amplitudes = shape.gaussian_bump_basis(curve, cfg.n_basis,
                                                   slope=cfg.slope, centers=centers)
            return shape.extend_velocity(self.mesh(), curve, amplitudes,
                                         lam=cfg.lame_lambda, mu=cfg.lame_mu)
        return self._stage("extend", build)

    def gramian(self):
        return self._stage("gramian", lambda: shape.gramian(self.basis_fields()))

    def sensitivities(self):
        return self._stage("sensitivities", lambda: fem.solve_sensitivity(
            self.heat_operators(), self.forward(), self.basis_fields()))

    def tensor(self):
        def build():
            key = tensor_hash(self.config)
            cache_path = None
            if self.cache_dir is not None:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                cache_path = self.cache_dir / f"fim-{key}.tensor"
                if cache_path.exists():
                    try:
                        tensor = fim.load_tensor(cache_path, expect_hash=key)
                        self.report.fim_cache = "hit"
                        self._info(f"[{self.config.case}] fim: cache hit ({cache_path.name})")
                        return tensor
                    except CacheMismatch as err:
                        self._info(f"[{self.config.case}] fim: cache rejected ({err})")
            sensors = fim.build_sensor_models(self.mesh(),
                                              alpha0=self.config.noise.alpha0,
                                              alpha1=self.config.noise.alpha1)
            tensor = fim.elementary_fims(self.sensitivities(), sensors,
                                         self.config.instants(), self.gramian())
            if cache_path is not None:
                fim.save_tensor(tensor, cache_path, config_hash=key)
            return tensor
        return self._stage("fim", build)

    def result(self):
        def build():
            cfg = self.config.design
            tensor = self.tensor()
            if cfg.optimize:
                solve = (oed.solve_spatial if cfg.mode == "spatial"
                         else oed.simplicial_decomposition)
                return solve(tensor, cfg.budget, tol_outer=cfg.tol_outer)
            if cfg.mode == "spatial":
                tensor = fim.spatial_tensor(tensor)
            return oed.evaluate_design(oed.uniform_design(tensor, cfg.budget), tensor)
        return self._stage("optimize", build)

    # -- outputs ----------------------------------------------------------

    def _write(self, rel_path, writer):
        path = self.out_dir / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path)
        self.report.outputs.append(str(rel_path))

    def write_mesh_files(self, grid):
        """Write mesh.vtk (the grid alone) and mesh.msh."""
        self._write("mesh.vtk", lambda p: mesh_io.write_vtk(grid, {}, p))
        self._write("mesh.msh", lambda p: mesh_io.write_msh(self.mesh(), p))

    def write_forward_fields(self, directory, grid):
        """Write one VTK file per forward snapshot, titled with its time, under
        `directory` (relative to the output directory)."""
        forward = self.forward()
        for step, (t, u) in enumerate(zip(forward.times, forward.values)):
            self._write(Path(directory) / f"forward_{step:04d}.vtk",
                        lambda p: mesh_io.write_vtk(grid, {"u": u}, p, title=f"t={_fmt(t)}"))

    def write_basis_fields(self, directory, grid):
        """Write one VTK file per extended basis velocity field under `directory`."""
        for i, v in enumerate(self.basis_fields().values):
            self._write(Path(directory) / f"basis_{i:02d}.vtk",
                        lambda p: mesh_io.write_vtk(grid, {"velocity": v}, p))

    def write_sensitivity_fields(self, directory, grid):
        """Write the final-time sensitivity of each basis field under `directory`."""
        for i, du in enumerate(self.sensitivities().values[:, -1]):
            self._write(Path(directory) / f"sensitivity_{i:02d}_final.vtk",
                        lambda p: mesh_io.write_vtk(grid, {"du": du}, p))

    def write_outputs(self):
        result = self.result()
        grid = mesh_io.vtk_grid(self.mesh())
        self.write_mesh_files(grid)
        # a spatial design's one column of weights stands at instant 0
        instants = self.config.instants() if self.config.design.mode == "space-time" else [0]
        self._write("weights.csv", lambda p: _write_weights_csv(p, result, instants))
        self._write("eigenvalues.csv", lambda p: _write_eigenvalues_csv(p, result))
        self._write("history.csv", lambda p: _write_history_csv(p, result))
        self._write("oed_result.json", lambda p: _write_result_json(p, result))
        self._write("report.json", lambda p: _write_report_json(
            p, self.config, self.report, result))
        if self.config.write_fields:
            self.write_forward_fields("fields", grid)
            self.write_basis_fields("fields", grid)
            # eigen-fields: basis combinations by descending eigenvalue
            basis = self.basis_fields().values
            order = np.argsort(result.eigenvalues)[::-1]
            for rank, idx in enumerate(order):
                values = np.tensordot(result.eigenvectors[:, idx], basis, axes=1)
                self._write(f"fields/eigenfield_{rank:02d}.vtk",
                            lambda p: mesh_io.write_vtk(grid, {"velocity": values}, p))

    def run(self) -> RunReport:
        result = self.result()
        self.write_outputs()
        self.report.oed_summary = result_summary(result)
        if self.config.design.optimize and not result.converged:
            self._info(f"warning: case {self.config.case}: the optimizer stopped at "
                       f"n_outer = {result.n_outer} without its optimality "
                       "certificate (converged: false)")
        return self.report


def result_summary(result: oed.OEDResult):
    recip = np.sort(1.0 / result.eigenvalues)
    return {
        "phi": result.phi,
        "xi": result.xi,
        "max_violation": float(result.violations.max()),
        "converged": result.converged,
        "n_outer": result.n_outer,
        "n_vertices": result.n_vertices,
        "counts": result.counts,
        "budget": result.design.budget,
        "weight_sum": float(result.design.weights.sum()),
        "reciprocal_eigenvalues": [float(x) for x in recip],
        "provenance": result.design.provenance,
    }


def _write_lines(path, lines):
    """Write `lines` as an ASCII text file, each line newline-terminated."""
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_json(path, payload):
    """Write `payload` as ASCII JSON: indent 2, sorted keys, trailing newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")


def _write_weights_csv(path, result, instants):
    """One row per (sensor, time step) weight; `instants` names the step of
    each column of the design."""
    design = result.design
    w = design.weights.reshape(design.n_obs, design.n_time)
    lines = ["sensor,instant,weight"]
    for k in range(design.n_obs):
        for li in range(design.n_time):
            lines.append(f"{k},{instants[li]},{_fmt(w[k, li])}")
    _write_lines(path, lines)


def _write_eigenvalues_csv(path, result):
    order = np.argsort(result.eigenvalues)[::-1]    # ascending 1/Lambda
    lines = ["rank,lambda,lambda_inv"]
    for rank, idx in enumerate(order, start=1):
        lam = result.eigenvalues[idx]
        lines.append(f"{rank},{_fmt(lam)},{_fmt(1.0 / lam)}")
    _write_lines(path, lines)


def _write_history_csv(path, result):
    lines = ["iteration,phi,weight_change_l1"]
    for i, phi in enumerate(result.phi_history):
        # dw_history[i - 1] is the weight change that led to phi_history[i]
        dw_text = _fmt(result.dw_history[i - 1]) if i else ""
        lines.append(f"{i},{_fmt(phi)},{dw_text}")
    _write_lines(path, lines)


def _write_result_json(path, result):
    payload = result_summary(result)
    payload["weights"] = [float(x) for x in result.design.weights]
    payload["violations"] = [float(x) for x in result.violations]
    payload["eigenvalues"] = [float(x) for x in result.eigenvalues]
    payload["eigenvectors"] = [[float(x) for x in row] for row in result.eigenvectors]
    payload["phi_history"] = [float(x) for x in result.phi_history]
    payload["dw_history"] = [float(x) for x in result.dw_history]
    _write_json(path, payload)


def _write_report_json(path, config, report, result):
    # cache status and stage timings stay off the serialized report so two
    # runs of one config produce byte-identical files
    payload = {
        "case": report.case,
        "config_hash": report.config_hash,
        "config": canonical_dict(config),
        "oed": result_summary(result),
    }
    _write_json(path, payload)


def run_pipeline(config: Config, out_dir, cache_dir=None, log=True) -> RunReport:
    """Execute every stage and write all outputs under `out_dir`."""
    return Pipeline(config, out_dir, cache_dir=cache_dir, log=log).run()


def check_cases(configs):
    """Raise ConfigError unless the cases can be compared: at least one, with
    distinct labels that are single path components (each case writes to the
    subdirectory named by its label) and one basis dimension."""
    if not configs:
        raise ConfigError("$: no cases to compare")
    names = [cfg.case for cfg in configs]
    for name in names:
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"$.case: {name!r} is not a single path component")
        if names.count(name) > 1:
            raise ConfigError(f"$.case: {names.count(name)} cases are named {name!r}")
    if len({cfg.basis.n_basis for cfg in configs}) > 1:
        dims = ", ".join(f"{cfg.case} has {cfg.basis.n_basis}" for cfg in configs)
        raise ConfigError(f"$.basis.n_basis: cases disagree on the basis dimension ({dims})")


def compare_cases(configs, out_dir, cache_dir=None, log=True):
    """Run several cases and tabulate criterion values and spectra.

    The cases must pass `check_cases`; uniform-weight cases evaluate the
    criterion at equal weights of total budget mass without optimizing.
    Returns the table rows and writes compare.csv.
    """
    check_cases(configs)
    out_dir = Path(out_dir)
    rows = []
    for cfg in configs:
        pipe = Pipeline(cfg, out_dir / cfg.case, cache_dir=cache_dir, log=log)
        pipe.run()
        result = pipe.result()
        recip = np.sort(1.0 / result.eigenvalues)
        rows.append((cfg.case, result.phi, recip))

    n_basis = configs[0].basis.n_basis
    header = "case,phi" + "".join(f",lambda_inv_{i + 1}" for i in range(n_basis))
    lines = [header]
    for case, phi, recip in rows:
        lines.append(case + "," + _fmt(phi) + "".join("," + _fmt(x) for x in recip))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "compare.csv", lines)
    return rows
