"""Run configuration: JSON schema, defaults, and content hashing.

A single JSON document drives the whole pipeline. `SCHEMA` is standard JSON
Schema (Draft 2020-12, shipped as docs/config.schema.json); a small built-in
walker checks the keywords it uses, so validation imports no third-party
package, and reports the offending JSON path. Hashing covers every field
that influences numerics so cached tensors are invalidated by any
meaningful change. The tensor hash is the subset of fields the elementary
FIMs depend on (geometry, physics, basis, noise, measurement instants) and
the package source; optimizer tolerances only enter the full config hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import fem, fim, oed, shape
from .errors import ConfigError
from .mesh import DEFAULT_INCLUSION_CONTROL, SIDES, GeometrySpec, RobinSpan

#: largest sensitivity block (8 bytes x n_basis x (n_steps + 1) x nodes) a
#: config may ask for; see check_sensitivity_size
MAX_SENSITIVITY_BYTES = 2 * 1024 ** 3
#: every mesh measured had at least MIN_NODES_H2 / h^2 nodes (2.65-12.1 / h^2
#: for h = 0.01-0.2, with and without sensors), so a config whose floor
#: exceeds node_cap cannot finish
MIN_NODES_H2 = 2.0

_BOX = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}
_POINTS = {"type": "array", "items": {"type": "array", "items": {"type": "number"},
                                      "minItems": 2, "maxItems": 2}, "minItems": 3}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "case": {"type": "string"},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "holdall": _BOX,
                "inclusion_polygon": _POINTS,
                "spline_control": _POINTS,
                "spline_samples": {"type": "integer", "minimum": 8, "maximum": 1024},
                "sensors": {"type": "array", "items": _BOX},
                "dirichlet_side": {"enum": [*SIDES, "all"]},
                "robin_spans": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["side", "lo", "hi", "beta"],
                        "properties": {
                            "side": {"enum": list(SIDES)},
                            "lo": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                            "hi": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                            "beta": {"type": "number", "minimum": 0.0},
                        },
                    },
                },
                "h": {"type": "number", "exclusiveMinimum": 0.0},
                "node_cap": {"type": "integer", "minimum": 100},
            },
        },
        "physics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kappa_bulk": {"type": "number", "exclusiveMinimum": 0.0},
                "kappa_inc": {"type": "number", "exclusiveMinimum": 0.0},
                "horizon": {"type": "number", "exclusiveMinimum": 0.0},
                "n_steps": {"type": "integer", "minimum": 1},
            },
        },
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_basis": {"type": "integer", "minimum": 1},
                "slope": {"type": "number", "exclusiveMinimum": 0.0},
                "center_mode": {"enum": ["equidistant", "farthest-point"]},
                "lame_lambda": {"type": "number"},
                "lame_mu": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha0": {"type": "number", "exclusiveMinimum": 0.0},
                "alpha1": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "design": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "budget": {"type": "integer", "minimum": 1},
                "mode": {"enum": ["space-time", "spatial"]},
                "optimize": {"type": "boolean"},
                "instants": {"type": ["array", "null"],
                             "items": {"type": "integer", "minimum": 0}, "minItems": 1},
                "tol_outer": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "write_fields": {"type": "boolean"},
            },
        },
    },
}


def _is_double(x, kind):
    # abs(x) <= the largest double rules out NaN, the infinities (which
    # Python's json module still parses) and integers no float can hold
    return isinstance(x, kind) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


#: JSON Schema type name -> test. Numbers must fit a double. JSON Schema
#: counts 3.0 as an integer, but the pipeline needs Python ints (grid sizes,
#: counts, indices), so "integer" admits only those
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: _is_double(x, numbers.Real),
    "integer": lambda x: _is_double(x, int),
}
#: bound keyword -> (type it applies to, violated(value, bound), message)
_BOUNDS = {
    "minimum": ("number", operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum of"),
    "maximum": ("number", operator.gt, "is greater than the maximum of"),
    "minItems": ("array", lambda x, n: len(x) < n, "is too short, minimum length"),
    "maxItems": ("array", lambda x, n: len(x) > n, "is too long, maximum length"),
}
#: every keyword _schema_errors interprets ("$schema" is read and ignored)
_KEYWORDS = frozenset({"$schema", "type", "enum", "properties", "additionalProperties",
                       "required", "items", *_BOUNDS})


def _schema_errors(value, schema, path="$"):
    """Every (JSON path, message) by which `value` violates `schema`, in the
    order of the schema's keywords: the Draft 2020-12 subset in _KEYWORDS,
    with `additionalProperties` only ever false. Value errors carry the
    value's path, `required` and `additionalProperties` errors the object's."""
    errors = []
    for key, arg in schema.items():
        if key == "type":
            kinds = arg if isinstance(arg, list) else [arg]
            if not any(_TYPES[kind](value) for kind in kinds):
                errors.append((path, f"{value!r} is not of type "
                                     f"{', '.join(map(repr, kinds))}"))
        elif key == "enum":
            if value not in arg:
                errors.append((path, f"{value!r} is not one of {arg!r}"))
        elif key in _BOUNDS:
            kind, violated, text = _BOUNDS[key]
            if _TYPES[kind](value) and violated(value, arg):
                errors.append((path, f"{value!r} {text} {arg!r}"))
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                errors += _schema_errors(item, arg, f"{path}[{i}]")
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    errors += _schema_errors(value[name], sub, f"{path}.{name}")
        elif key == "required" and isinstance(value, dict):
            errors += [(path, f"{name!r} is a required property")
                       for name in arg if name not in value]
        elif key == "additionalProperties" and isinstance(value, dict):
            extras = sorted(set(value) - set(schema.get("properties", ())), key=str)
            if extras:
                errors.append((path, "additional properties are not allowed "
                                     f"({', '.join(map(repr, extras))} unexpected)"))
    return errors


@dataclass
class PhysicsConfig:
    kappa_bulk: float = fem.KAPPA_BULK_DEFAULT
    kappa_inc: float = fem.KAPPA_INC_DEFAULT
    horizon: float = fem.T_DEFAULT
    n_steps: int = fem.N_STEPS_DEFAULT


@dataclass
class BasisConfig:
    n_basis: int = 9
    slope: float = shape.SLOPE_DEFAULT
    center_mode: str = "equidistant"
    lame_lambda: float = shape.LAME_LAMBDA_DEFAULT
    lame_mu: float = shape.LAME_MU_DEFAULT


@dataclass
class NoiseConfig:
    alpha0: float = fim.ALPHA0_DEFAULT
    alpha1: float = fim.ALPHA1_DEFAULT


@dataclass
class DesignConfig:
    budget: int = 10
    mode: str = "space-time"
    optimize: bool = True
    instants: list | None = None
    tol_outer: float = oed.TOL_OUTER_DEFAULT


@dataclass
class Config:
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    design: DesignConfig = field(default_factory=DesignConfig)
    case: str = "run"
    write_fields: bool = True

    def instants(self):
        if self.design.instants is not None:
            return list(self.design.instants)
        return list(range(self.physics.n_steps + 1))


def check_sensitivity_size(cfg: Config, n_nodes):
    """Raise ConfigError when the sensitivity block on `n_nodes` nodes, 8 bytes
    x n_basis x (n_steps + 1) x n_nodes, exceeds MAX_SENSITIVITY_BYTES; the
    forward trajectory is one field of it."""
    block = 8 * cfg.basis.n_basis * (cfg.physics.n_steps + 1) * n_nodes
    if block > MAX_SENSITIVITY_BYTES:
        raise ConfigError(f"$.physics.n_steps: the sensitivity block on {n_nodes:.0f} "
                          f"nodes would take {block / 1024 ** 3:.1f} GiB, above "
                          f"{MAX_SENSITIVITY_BYTES / 1024 ** 3:.0f} GiB")


def _typed(value, schema):
    """Fresh copy of `value`, which `schema` has accepted, with every
    "number" a float, so 10 and 10.0 give one config."""
    if isinstance(value, dict):
        return {key: _typed(item, schema["properties"][key]) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item, schema["items"]) for item in value]
    return float(value) if schema.get("type") == "number" else value


def _read_json(source):
    """JSON document of a file object, or of the file at a path."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from err
    except OSError as err:
        # load_config puts a path in front, so the message does not repeat it
        raise ConfigError(f"cannot read config: {err.strerror or err}") from err


def load_config(source) -> Config:
    """Build a validated Config from a dict, a file object (anything with
    `read`) or a `str`/`os.PathLike` path.

    Any other source, and every schema violation, raises ConfigError
    carrying the JSON path of the offending element, after the file's path
    when the source is one.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            return _config_of(_read_json(source))
        except ConfigError as err:
            raise ConfigError(f"{os.fspath(source)}: {err}") from err
    if hasattr(source, "read"):
        return _config_of(_read_json(source))
    if isinstance(source, dict):
        return _config_of(source)
    raise ConfigError(f"$: expected a dict, a file object or a path, "
                      f"not {type(source).__name__}")


def _config_of(raw) -> Config:
    """The validated Config of a JSON document."""
    errors = sorted(_schema_errors(raw, SCHEMA), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(f"{path}: {message}")

    doc = _typed(raw, SCHEMA)
    geometry = doc.get("geometry", {})
    if "inclusion_polygon" in geometry:
        geometry["spline_control"] = None
    elif "spline_control" not in geometry:
        geometry["spline_control"] = DEFAULT_INCLUSION_CONTROL.copy()
    geometry["robin_spans"] = [RobinSpan(**span) for span in geometry.get("robin_spans", [])]
    cfg = Config(geometry=GeometrySpec(**geometry),
                 physics=PhysicsConfig(**doc.get("physics", {})),
                 basis=BasisConfig(**doc.get("basis", {})),
                 noise=NoiseConfig(**doc.get("noise", {})),
                 design=DesignConfig(**doc.get("design", {})))
    cfg.case = doc.get("case", cfg.case)
    cfg.write_fields = doc.get("output", {}).get("write_fields", cfg.write_fields)

    try:
        cfg.geometry.validate()
    except ValueError as err:
        raise ConfigError(f"$.geometry: {err}") from err
    geo = cfg.geometry
    min_nodes = MIN_NODES_H2 / geo.h / geo.h
    if min_nodes > geo.node_cap:
        raise ConfigError(f"$.geometry.h: h = {geo.h} meshes to at least "
                          f"{min_nodes:.0f} nodes, above node_cap {geo.node_cap}")
    # on the floor here; Pipeline.forward repeats it on the real mesh
    check_sensitivity_size(cfg, min_nodes)
    instants = cfg.instants()
    if min(instants) < 0 or max(instants) > cfg.physics.n_steps:
        raise ConfigError("$.design.instants: instants outside the time grid")
    if len(set(instants)) < len(instants):
        raise ConfigError("$.design.instants: an instant is listed twice")
    n_weights = len(cfg.geometry.sensors) * len(instants)
    if cfg.design.mode == "space-time" and cfg.design.budget >= max(n_weights, 1):
        raise ConfigError("$.design.budget: must be smaller than n_obs * n_time")
    if cfg.design.mode == "spatial" and cfg.design.budget >= max(len(cfg.geometry.sensors), 1):
        raise ConfigError("$.design.budget: must be smaller than n_obs in spatial mode")
    return cfg


def canonical_dict(cfg: Config):
    """Normalized, defaults-filled dict of every numerics-relevant field."""
    geo = cfg.geometry
    poly = geo.inclusion_polygon
    return {
        "geometry": {
            "holdall": list(geo.holdall),
            "inclusion_polygon": None if poly is None else np.asarray(poly).tolist(),
            "spline_control": None if geo.spline_control is None
                              else np.asarray(geo.spline_control).tolist(),
            "spline_samples": geo.spline_samples,
            "sensors": [list(b) for b in geo.sensors],
            "dirichlet_side": geo.dirichlet_side,
            "robin_spans": [[r.side, r.lo, r.hi, r.beta] for r in geo.robin_spans],
            "h": geo.h,
        },
        "physics": vars(cfg.physics).copy(),
        "basis": vars(cfg.basis).copy(),
        "noise": vars(cfg.noise).copy(),
        "design": vars(cfg.design).copy(),
        "instants": cfg.instants(),
    }


def _sha(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def config_hash(cfg: Config) -> str:
    return _sha(canonical_dict(cfg))


@functools.cache
def _code_digest():
    """Hash of this package's modules, by name, and of the numpy and scipy versions."""
    modules = Path(__file__).parent.glob("*.py")
    return _sha({"numpy": np.__version__, "scipy": scipy.__version__,
                 **{p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in modules}})


def tensor_hash(cfg: Config) -> str:
    """Hash of the fields the elementary FIM tensor depends on and of the code that builds it."""
    full = canonical_dict(cfg)
    return _sha({"code": _code_digest(),
                 **{k: full[k] for k in ("geometry", "physics", "basis", "noise", "instants")}})


def comparison_case_dicts():
    """The five benchmark configurations of the 2D experiment: optimized vs
    uniform weights under three Robin boundary layouts."""
    def base(case, robin, optimize):
        return {
            "case": case,
            "geometry": {"robin_spans": robin},
            "design": {"optimize": optimize},
            "output": {"write_fields": False},
        }

    lower_left = [{"side": "bottom", "lo": 0.0, "hi": 0.5, "beta": 10.0}]
    lower_right = [{"side": "bottom", "lo": 0.5, "hi": 1.0, "beta": 10.0}]
    return {
        "case1": base("case1", lower_left, True),
        "case2": base("case2", lower_right, True),
        "case3": base("case3", lower_left, False),
        "case4": base("case4", [], True),
        "case5": base("case5", [], False),
    }
