import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffdesign import cli, config, fem, fim, mesh, oed, pipeline
from diffdesign.errors import ConfigError

from test_fem import assert_no_child_left, fail_cg_in
from test_fim import CORRUPTIONS, corrupt, set_cache_key
from test_oed import synthetic_tensor

# small, fast problem: coarse mesh, 2 sensors, few steps, tiny basis
FAST_CONFIG = {
    "case": "fast",
    "geometry": {
        "inclusion_polygon": [
            [0.5 + 0.1 * np.cos(a), 0.5 + 0.1 * np.sin(a)]
            for a in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        ],
        "sensors": [[0.05, 0.05, 0.35, 0.35], [0.65, 0.35, 0.95, 0.65]],
        "robin_spans": [{"side": "bottom", "lo": 0.0, "hi": 0.5, "beta": 10.0}],
        "h": 0.1,
    },
    "physics": {"n_steps": 6},
    "basis": {"n_basis": 4},
    "design": {"budget": 3},
    "output": {"write_fields": False},
}


def write_config(tmp_path, payload=None, **overrides):
    payload = json.loads(json.dumps(payload if payload is not None else FAST_CONFIG))
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        if leaf:
            payload.setdefault(section, {})[leaf] = value
        else:
            payload[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# config fuzzing. In half of the draws every value has its schema type:
# numbers in (0, 1], integers from one below the schema minimum, lists mostly
# of valid length and sometimes one item short or long, so most draws pass the
# schema and reach the checks after it. In the other half any value may be a
# leaf of another type (negative, huge and non-finite numbers included; NaN
# and the infinities on their own, since st.floats() seldom draws them inside
# a config) and any object may carry an unknown key. Integers stay small, so
# no draw asks for a huge time grid or spline sampling
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=3))


def _typed(spec, junk):
    """Values of the schema node's own type, or None for an untyped node."""
    kind = spec.get("type")
    if "enum" in spec:
        return st.sampled_from(spec["enum"])
    if "properties" in spec:
        children = {k: _values(v, junk) for k, v in spec["properties"].items()}
        if junk:
            children["unknown"] = _LEAVES
        return st.fixed_dictionaries({}, optional=children)
    if "items" in spec:
        item = _values(spec["items"], junk)
        lo = spec.get("minItems", 0)
        hi = spec.get("maxItems", lo + 5)
        exact = st.lists(item, min_size=lo, max_size=hi)
        return st.one_of(exact, exact, exact, st.lists(item, min_size=max(lo - 1, 0),
                                                       max_size=hi + 1))
    if kind == "number":
        return st.floats(0.0, 1.0, exclude_min=True)
    if kind == "integer":
        lo = spec.get("minimum", 0)
        return st.integers(lo - 1, lo + 150)
    if kind == "boolean":
        return st.booleans()
    if kind == "string":
        return st.text(max_size=4)
    return None


def _values(spec, junk):
    own = _typed(spec, junk)
    if own is None:
        return _LEAVES
    return st.one_of(*[own] * 7, _LEAVES) if junk else own


_CONFIG_DICTS = _typed(config.SCHEMA, False) | _typed(config.SCHEMA, True)

# reference validator for config._schema_errors: jsonschema's Draft 2020-12
# with the same two type redefinitions. Numbers must fit a double: that
# excludes NaN and Infinity, which Python's json module still parses, and
# integers too large for a float. JSON Schema counts 3.0 as an integer, but
# the pipeline needs Python ints (grid sizes, counts, indices), so "integer"
# admits only those
_BASE_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
_REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_BASE_TYPES.redefine_many({
        "number": lambda checker, x: (_BASE_TYPES.is_type(x, "number")
                                      and abs(x) <= sys.float_info.max),
        "integer": lambda checker, x: (isinstance(x, int) and not isinstance(x, bool)
                                       and abs(x) <= sys.float_info.max),
    }),
)(config.SCHEMA)


_TENSOR_KEYS_SCRIPT = """
import sys
for tree in sys.argv[1:]:
    for name in [m for m in sys.modules if m.partition(".")[0] == "diffdesign"]:
        del sys.modules[name]
    sys.path[0] = tree
    from diffdesign import config
    print(config.tensor_hash(config.load_config({})))
"""


def tensor_keys_of(trees):
    """tensor_hash of the default config for each directory in `trees`, in
    one new process that imports diffdesign afresh from each."""
    proc = subprocess.run([sys.executable, "-c", _TENSOR_KEYS_SCRIPT, *map(str, trees)],
                          capture_output=True, text=True, timeout=120, cwd=trees[0])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def error_paths(raw):
    """The sorted JSON paths of every schema error, from the walker and from
    the reference validator; load_config reports the first."""
    walker = sorted(path for path, _ in config._schema_errors(raw, config.SCHEMA))
    reference = sorted(err.json_path for err in _REFERENCE.iter_errors(raw))
    return walker, reference


def schema_nodes(schema):
    """`schema` and every subschema below it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


class TestConfig:
    def test_defaults_paper_shaped(self):
        cfg = config.load_config({})
        assert cfg.physics.n_steps == 21
        assert cfg.physics.horizon == 10.0
        assert cfg.physics.kappa_inc == 1e-3
        assert cfg.physics.kappa_bulk == 0.1
        assert fem.U_DIRICHLET_DEFAULT == 1.0
        assert cfg.basis.n_basis == 9
        assert cfg.basis.slope == 100.0
        assert cfg.basis.lame_lambda == 0.01
        assert cfg.basis.lame_mu == 0.495
        assert cfg.noise.alpha0 == 0.01
        assert cfg.noise.alpha1 == 1.0
        assert cfg.design.budget == 10
        assert len(cfg.geometry.sensors) == 8
        assert len(cfg.instants()) == 22

    def test_error_path_reported(self):
        with pytest.raises(ConfigError) as err:
            config.load_config({"physics": {"kappa_bulk": -1.0}})
        assert "kappa_bulk" in str(err.value)

    def test_budget_bound(self):
        with pytest.raises(ConfigError) as err:
            config.load_config({"design": {"budget": 500}})
        assert "budget" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config.load_config({"physics": {"kappa": 1.0}})

    def test_hash_sensitivity(self):
        base = config.load_config({})
        changed = config.load_config({"physics": {"kappa_bulk": 0.2}})
        assert config.config_hash(base) != config.config_hash(changed)
        assert config.tensor_hash(base) != config.tensor_hash(changed)

    def test_tensor_hash_covers_package_source(self, tmp_path):
        # copies of the package: a fresh process on an unchanged copy
        # computes this process's key, and one byte appended to any module
        # gives a new key
        package = Path(config.__file__).parent
        modules = sorted(p.name for p in package.glob("*.py"))
        trees = {}
        for name in ["same", *modules]:
            trees[name] = tmp_path / name
            shutil.copytree(package, trees[name] / "diffdesign",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if name != "same":
                with open(trees[name] / "diffdesign" / name, "ab") as fh:
                    fh.write(b"\n")
        key = config.tensor_hash(config.load_config({}))
        assert tensor_keys_of([trees["same"]]) == [key]
        with ThreadPoolExecutor(2) as pool:
            again, changed = pool.map(tensor_keys_of, [[trees["same"]],
                                                       [trees[name] for name in modules]])
        assert again == [key]
        assert key not in changed
        assert len(set(changed)) == len(modules)

    def test_tensor_hash_ignores_optimizer_fields(self):
        base = config.load_config({})
        changed = config.load_config({"design": {"tol_outer": 1e-5}})
        assert config.tensor_hash(base) == config.tensor_hash(changed)
        assert config.config_hash(base) != config.config_hash(changed)

    @pytest.mark.parametrize("integral, decimal", [
        ({"physics": {"horizon": 10}}, {}),
        ({"basis": {"slope": 100}}, {"basis": {"slope": 100.0}}),
        ({"geometry": {"robin_spans": [{"side": "bottom", "lo": 0, "hi": 1, "beta": 10}]}},
         {"geometry": {"robin_spans": [{"side": "bottom", "lo": 0.0, "hi": 1.0,
                                        "beta": 10.0}]}}),
    ])
    def test_integral_numbers_hash_as_floats(self, integral, decimal):
        # a "number" field holds a float, so 10 and 10.0 give one config and
        # share one tensor cache entry
        a, b = config.load_config(integral), config.load_config(decimal)
        assert config.config_hash(a) == config.config_hash(b)
        assert config.tensor_hash(a) == config.tensor_hash(b)

    def test_keeps_no_reference_to_its_input(self):
        raw = {"geometry": {"spline_control": mesh.DEFAULT_INCLUSION_CONTROL.tolist(),
                            "robin_spans": [{"side": "bottom", "lo": 0.0, "hi": 0.5,
                                             "beta": 10.0}]},
               "design": {"instants": [0, 5, 20]}}
        cfg = config.load_config(raw)
        before = config.config_hash(cfg), config.tensor_hash(cfg)
        raw["design"]["instants"].append(99)
        raw["geometry"]["spline_control"][0][0] = 0.5
        raw["geometry"]["robin_spans"][0]["beta"] = 1.0
        assert cfg.instants() == [0, 5, 20]
        assert (config.config_hash(cfg), config.tensor_hash(cfg)) == before

    def test_shipped_schema_in_sync(self):
        import pathlib
        doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "config.schema.json"
        assert json.loads(doc.read_text()) == config.SCHEMA

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_CONFIG_DICTS)
    def test_fuzzed_config_loads_or_raises_config_error(self, raw):
        # a dict that is not a valid config fails with the JSON path of the
        # bad field, never with another exception
        try:
            assert isinstance(config.load_config(raw), config.Config)
        except ConfigError as err:
            assert str(err).startswith("$")

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(_CONFIG_DICTS)
    def test_walker_agrees_with_reference_validator(self, raw):
        # every error, not only the first: a bad value behind an earlier
        # sorted error (an unknown key of its object) must still be seen
        walker, reference = error_paths(raw)
        assert walker == reference

    @pytest.mark.parametrize("raw, path", [
        ([], "$"),
        ("{}", "$"),
        ({"physics": {"n_steps": 3.0}}, "$.physics.n_steps"),
        ({"physics": {"n_steps": True}}, "$.physics.n_steps"),
        ({"physics": {"kappa_bulk": False}}, "$.physics.kappa_bulk"),
        ({"physics": {"kappa_bulk": float("nan")}}, "$.physics.kappa_bulk"),
        ({"noise": {"alpha0": -math.inf}}, "$.noise.alpha0"),
        ({"design": {"master_max_iter": 10}}, "$.design"),
        ({"geometry": {"robin_spans": [{"side": "top", "lo": 0.0, "hi": 1.0}]}},
         "$.geometry.robin_spans[0]"),
        ({"geometry": {"sensors": [[0.1, 0.2, 0.3, 0.4], [0.1, math.inf, 0.3, 0.4]]}},
         "$.geometry.sensors[1][1]"),
        ({"geometry": {"spline_control": [[0.1, 0.2], [0.3], [0.5, 0.6]]}},
         "$.geometry.spline_control[1]"),
        ({"design": {"instants": [0, 3, -1]}}, "$.design.instants[2]"),
        ({"design": {"instants": None, "mode": "time"}}, "$.design.mode"),
        ({"design": {"instants": None}}, None),
        ({"geometry": {"h": 10 ** 400}}, "$.geometry.h"),
        ({"physics": {"horizon": 10 ** 400}}, "$.physics.horizon"),
        ({"physics": {"n_steps": 10 ** 400}}, "$.physics.n_steps"),
    ])
    def test_walker_error_path(self, raw, path):
        # value errors carry the value's path; additionalProperties, required
        # and a non-object top level the object's
        walker, reference = error_paths(raw)
        assert walker[:1] == reference[:1] == ([path] if path else [])

    @pytest.mark.parametrize("source", [[], None, 2.5])
    def test_source_neither_dict_file_nor_path(self, source):
        with pytest.raises(ConfigError, match=r"^\$: expected a dict"):
            config.load_config(source)

    def test_descriptor_is_not_a_path(self, tmp_path):
        # an int would open as a file descriptor: load_config must neither
        # read the caller's file nor close it
        path = tmp_path / "config.json"
        path.write_text("{}")

        def is_open(fd):
            try:
                os.fstat(fd)
            except OSError:
                return False
            return True

        with open(path, encoding="utf-8") as fh:
            for fd in (3, fh.fileno()):
                was_open = is_open(fd)
                with pytest.raises(ConfigError, match=r"^\$: expected a dict"):
                    config.load_config(fd)
                assert is_open(fd) == was_open
            assert fh.read() == "{}"

    def test_file_object(self, tmp_path):
        path = write_config(tmp_path, {"physics": {"n_steps": 5}})
        with open(path, encoding="utf-8") as fh:
            assert config.load_config(fh).physics.n_steps == 5
        assert config.load_config(io.StringIO('{"physics": {"n_steps": 4}}')) \
            .physics.n_steps == 4
        with pytest.raises(ConfigError, match="invalid JSON"):
            config.load_config(io.StringIO("{"))

    def test_shipped_schema_is_valid_json_schema(self):
        jsonschema.Draft202012Validator.check_schema(config.SCHEMA)

    def test_schema_uses_only_walker_keywords(self):
        # the walker ignores keywords it does not know, so a schema keyword
        # it does not implement would be an unchecked constraint
        for node in schema_nodes(config.SCHEMA):
            assert set(node) <= config._KEYWORDS, node
            assert node.get("additionalProperties", False) is False, node
            kinds = node.get("type", [])
            assert set(kinds if isinstance(kinds, list) else [kinds]) <= set(config._TYPES)

    def test_validation_imports_no_jsonschema(self):
        script = ("import json, sys\nimport diffdesign.cli\n"
                  "from diffdesign.config import load_config\nload_config({})\n"
                  "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        packages = set(json.loads(proc.stdout))
        assert "diffdesign" in packages
        assert not packages & {"jsonschema", "referencing", "rpds"}

    def test_paper_cases(self):
        cases = config.comparison_case_dicts()
        assert set(cases) == {"case1", "case2", "case3", "case4", "case5"}
        c1 = config.load_config(cases["case1"])
        assert c1.design.optimize
        assert c1.geometry.robin_spans[0].beta == 10.0
        c5 = config.load_config(cases["case5"])
        assert not c5.design.optimize
        assert c5.geometry.robin_spans == []


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = config.load_config(FAST_CONFIG)
    report = pipeline.run_pipeline(cfg, out, cache_dir=out / "cache", log=False)
    return out, cfg, report


class TestPipeline:
    def test_outputs_exist(self, fast_run):
        out, _, report = fast_run
        for name in ("mesh.vtk", "mesh.msh", "weights.csv", "eigenvalues.csv",
                     "history.csv", "oed_result.json", "report.json"):
            assert (out / name).exists()
            assert name in report.outputs

    def test_summary_consistent(self, fast_run):
        out, _, report = fast_run
        summary = report.oed_summary
        assert summary["converged"]
        assert abs(summary["weight_sum"] - 3.0) <= 1e-8
        recip = summary["reciprocal_eigenvalues"]
        assert abs(sum(recip) - summary["phi"]) <= 1e-8 * abs(summary["phi"])

    def test_uniform_design_not_certified(self, tmp_path):
        # uniform weights are never optimized, so neither output claims a
        # certificate or its failure
        cfg = config.load_config({**FAST_CONFIG, "design": {"budget": 3, "optimize": False}})
        pipeline.run_pipeline(cfg, tmp_path, log=False)
        result = json.loads((tmp_path / "oed_result.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert result["converged"] is None and report["oed"]["converged"] is None

    def test_rapid_initial_decrease(self, fast_run):
        # the big criterion drops happen in the first outer iterations
        out, _, _ = fast_run
        history = json.loads((out / "oed_result.json").read_text())["phi_history"]
        drops = -np.diff(history)
        assert drops.min() >= -1e-8 * history[0]
        assert int(np.argmax(drops)) < 3

    def test_cache_hit_on_rerun(self, fast_run, tmp_path):
        out, cfg, report = fast_run
        assert report.fim_cache == "miss"
        rerun = pipeline.run_pipeline(cfg, tmp_path / "rerun",
                                      cache_dir=out / "cache", log=False)
        assert rerun.fim_cache == "hit"

    def test_stale_cache_version_rebuilt_and_logged(self, fast_run, tmp_path, capsys):
        out, cfg, _ = fast_run
        cache = tmp_path / "cache"
        cache.mkdir()
        (stored,) = (out / "cache").glob("fim-*.tensor")
        stale = cache / stored.name
        stale.write_bytes(stored.read_bytes())
        set_cache_key(stale, "written by other code")
        pipe = pipeline.Pipeline(cfg, tmp_path / "out", cache_dir=cache)
        pipe.tensor()
        assert pipe.report.fim_cache == "miss"
        assert ("fim: cache rejected (tensor cache was built from a different config "
                "or code)") in capsys.readouterr().err
        assert (fim.load_tensor(stale, config.tensor_hash(cfg)).matrices.shape
                == pipe.tensor().matrices.shape)

    @pytest.mark.parametrize("how", CORRUPTIONS)
    def test_damaged_cache_rebuilt_and_logged(self, fast_run, tmp_path, capsys, how):
        out, cfg, _ = fast_run
        cache = tmp_path / "cache"
        cache.mkdir()
        (stored,) = (out / "cache").glob("fim-*.tensor")
        damaged = cache / stored.name
        damaged.write_bytes(corrupt(stored.read_bytes(), how))
        pipe = pipeline.Pipeline(cfg, tmp_path / "out", cache_dir=cache)
        tensor = pipe.tensor()
        assert pipe.report.fim_cache == "miss"
        assert "fim: cache rejected" in capsys.readouterr().err
        assert damaged.read_bytes() == stored.read_bytes()
        assert np.array_equal(tensor.matrices,
                              fim.load_tensor(stored, config.tensor_hash(cfg)).matrices)

    def test_deterministic_outputs(self, fast_run, tmp_path):
        out, cfg, _ = fast_run
        other = tmp_path / "second"
        pipeline.run_pipeline(cfg, other, cache_dir=None, log=False)
        for name in ("weights.csv", "eigenvalues.csv", "history.csv",
                     "oed_result.json", "report.json", "mesh.vtk", "mesh.msh"):
            assert (out / name).read_bytes() == (other / name).read_bytes(), name

    def test_deterministic_field_files(self, tmp_path):
        cfg = config.load_config({**FAST_CONFIG, "output": {"write_fields": True}})
        for run in ("a", "b"):
            pipeline.run_pipeline(cfg, tmp_path / run, log=False)
        fields = sorted(p.name for p in (tmp_path / "a" / "fields").glob("*.vtk"))
        assert fields == sorted(p.name for p in (tmp_path / "b" / "fields").glob("*.vtk"))
        assert len(fields) == cfg.physics.n_steps + 1 + 2 * cfg.basis.n_basis
        for name in fields:
            first = (tmp_path / "a" / "fields" / name).read_bytes()
            assert first == (tmp_path / "b" / "fields" / name).read_bytes(), name

    def test_weights_name_the_time_step(self, tmp_path):
        # space-time columns are the design's instants; a spatial design has
        # one column, at instant 0
        raw = {**FAST_CONFIG, "physics": {"n_steps": 16}, "design": {"instants": [4, 9, 15]}}
        for mode, budget, instants in (("space-time", 3, ["4", "9", "15"]),
                                       ("spatial", 1, ["0"])):
            raw["design"].update(mode=mode, budget=budget)
            pipeline.run_pipeline(config.load_config(raw), tmp_path / mode,
                                  cache_dir=tmp_path / "cache", log=False)
            rows = (tmp_path / mode / "weights.csv").read_text().splitlines()[1:]
            assert [row.split(",")[:2] for row in rows] == \
                [[str(k), step] for k in range(2) for step in instants]

    def test_report_has_no_volatile_fields(self, fast_run):
        out, _, _ = fast_run
        payload = json.loads((out / "report.json").read_text())
        assert "timings" not in payload
        assert payload["config_hash"]

    def test_stage_self_times(self, tmp_path):
        cfg = config.load_config(FAST_CONFIG)
        start = time.perf_counter()
        report = pipeline.run_pipeline(cfg, tmp_path, cache_dir=None, log=False)
        wall = time.perf_counter() - start
        timings = report.timings
        assert sum(t["self"] for t in timings.values()) <= wall
        for t in timings.values():
            assert 0.0 <= t["self"] <= t["total"] <= wall
        # optimize pulls in the tensor, and with it the whole PDE chain
        assert timings["optimize"]["self"] < timings["optimize"]["total"]
        assert timings["optimize"]["total"] > timings["fim"]["total"]
        # the mesh is built inside another stage and counted once
        assert timings["mesh"]["self"] == timings["mesh"]["total"]

    def test_field_outputs_when_enabled(self, tmp_path):
        cfg = config.load_config({**FAST_CONFIG, "output": {"write_fields": True}})
        pipeline.run_pipeline(cfg, tmp_path, log=False)
        forwards = sorted((tmp_path / "fields").glob("forward_*.vtk"))
        assert len(forwards) == cfg.physics.n_steps + 1
        assert len(sorted((tmp_path / "fields").glob("basis_*.vtk"))) == 4
        assert len(sorted((tmp_path / "fields").glob("eigenfield_*.vtk"))) == 4


class TestCompare:
    def test_optimized_beats_uniform(self, tmp_path):
        base = json.loads(json.dumps(FAST_CONFIG))
        uniform = json.loads(json.dumps(FAST_CONFIG))
        base["case"] = "opt"
        uniform["case"] = "uni"
        uniform["design"]["optimize"] = False
        rows = pipeline.compare_cases(
            [config.load_config(base), config.load_config(uniform)],
            tmp_path, cache_dir=tmp_path / "cache", log=False)
        phis = {case: phi for case, phi, _ in rows}
        assert phis["opt"] < phis["uni"]
        text = (tmp_path / "compare.csv").read_text().splitlines()
        assert text[0].startswith("case,phi,lambda_inv_1")
        assert len(text) == 3

    def test_dimension_mismatch_rejected(self, tmp_path):
        a = config.load_config(FAST_CONFIG)
        b = config.load_config({**FAST_CONFIG, "basis": {"n_basis": 3}})
        with pytest.raises(ConfigError):
            pipeline.compare_cases([a, b], tmp_path, log=False)

    def test_shared_or_path_like_case_names_rejected(self, tmp_path):
        # each case writes to out_dir / case: a shared name would let the
        # second case overwrite the first, a path-like one escape out_dir
        uniform = json.loads(json.dumps(FAST_CONFIG))
        uniform["design"]["optimize"] = False
        cases = [config.load_config(FAST_CONFIG), config.load_config(uniform)]
        with pytest.raises(ConfigError, match=r"\$\.case: 2 cases are named 'fast'"):
            pipeline.compare_cases(cases, tmp_path, log=False)
        for name in ("", ".", "..", "a/b", "a\\b"):
            with pytest.raises(ConfigError, match=r"\$\.case: .* single path component"):
                pipeline.compare_cases([config.load_config({**FAST_CONFIG, "case": name})],
                                       tmp_path, log=False)
        assert list(tmp_path.iterdir()) == []

    def test_no_cases_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^\$: no cases to compare"):
            pipeline.compare_cases([], tmp_path, log=False)
        assert list(tmp_path.iterdir()) == []

    def test_identical_configs_identical_rows(self, tmp_path):
        a = json.loads(json.dumps(FAST_CONFIG))
        b = json.loads(json.dumps(FAST_CONFIG))
        a["case"] = "x"
        b["case"] = "y"
        rows = pipeline.compare_cases(
            [config.load_config(a), config.load_config(b)],
            tmp_path, cache_dir=tmp_path / "cache", log=False)
        assert rows[0][1] == rows[1][1]
        assert np.array_equal(rows[0][2], rows[1][2])


class TestCli:
    def test_pipeline_smoke(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = cli.main(["pipeline", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert "phi" in captured.out
        assert (tmp_path / "out" / "report.json").exists()

    def test_pipeline_output_written_once(self, tmp_path):
        # three sensitivity groups, so two forked children; stdout is a
        # block-buffered pipe, so the line printed first still sits in its
        # buffer when they fork. The uniform design skips the optimizer
        script = ("import sys\nfrom diffdesign import cli, fem\n"
                  "fem._usable_cpus = lambda: 3\nprint('started')\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, "pipeline", "--config",
             str(write_config(tmp_path, **{"design.optimize": False})),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        stages = [line.split(":")[0] for line in proc.stderr.splitlines()
                  if line.startswith("[fast] ")]
        assert "[fast] fim" in stages
        assert len(stages) == len(set(stages))
        assert proc.stdout.count("started") == 1
        assert proc.stdout.count("phi = ") == 1

    def test_sensitivity_worker_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fem, "_usable_cpus", lambda: 2)
        fail_cg_in(monkeypatch, "child")
        code = cli.main(["sensitivities", "--config", str(write_config(tmp_path)),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert "NoConvergence: CG stalled in the child" in capsys.readouterr().err
        assert_no_child_left()

    def test_generate_mesh(self, tmp_path):
        cfg_path = write_config(tmp_path)
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "mesh.msh").exists()
        stats = json.loads((tmp_path / "out" / "mesh_stats.json").read_text())
        assert stats["nodes"] > 100

    def test_generate_mesh_counts_every_element_set(self, tmp_path):
        cfg_path = write_config(tmp_path, {"geometry": {"h": 0.1}})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        stats = json.loads((tmp_path / "out" / "mesh_stats.json").read_text())
        m = mesh.build_mesh(config.load_config(cfg_path).geometry)
        assert len(m.sensor_elements) == 8
        expected = {"holdall": len(m.holdall_annulus),
                    "holdall-closure": len(m.holdall_closure)}
        expected.update((f"sensor:{k}", len(e)) for k, e in enumerate(m.sensor_elements))
        assert stats["sensors"] == expected

    def test_assemble_fim_reports_cache(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["assemble-fim", "--config", str(cfg_path), "--out", out]) == 0
        assert "(miss)" in capsys.readouterr().out
        assert cli.main(["assemble-fim", "--config", str(cfg_path), "--out", out]) == 0
        assert "(hit)" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"physics": {"kappa_bulk": -1}}))
        code = cli.main(["pipeline", "--config", str(bad), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_non_finite_number_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for token in ("NaN", "Infinity", "1" + "0" * 400):
            bad.write_text('{"physics": {"kappa_bulk": %s}}' % token)
            code = cli.main(["generate-mesh", "--config", str(bad),
                             "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_CONFIG
            assert "$.physics.kappa_bulk" in capsys.readouterr().err

    def test_inverted_robin_span_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, **{"geometry.robin_spans": [
            {"side": "bottom", "lo": 0.8, "hi": 0.2, "beta": 10.0}]})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.geometry: robin_spans[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("spans, reason", [
        ([{"side": "bottom", "lo": 0.0, "hi": 0.6, "beta": 10.0},
          {"side": "bottom", "lo": 0.4, "hi": 1.0, "beta": 5.0}],
         "robin_spans[1]: overlaps robin_spans[0] on side 'bottom'"),
        ([{"side": "bottom", "lo": 0.5, "hi": 0.5, "beta": 10.0}],
         "robin_spans[0]: needs 0 <= lo < hi <= 1"),
    ], ids=["overlapping", "zero-length"])
    def test_robin_span_without_effect_exit_code(self, tmp_path, capsys, spans, reason):
        # both meshed and exited 0: the first span took the shared edges, and
        # the zero-length span got none
        cfg_path = write_config(tmp_path, **{"geometry.robin_spans": spans})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert f"$.geometry: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--out", "--stage-cache"])
    def test_unusable_output_path_exit_code(self, tmp_path, capsys, monkeypatch, option):
        # a file where the directory should be: exit 2 before any stage runs,
        # not a FileExistsError traceback (for the cache, after three stages)
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"--out": str(tmp_path / "out"), "--stage-cache": str(tmp_path / "cache"),
                 option: str(blocker)}

        def stage(self, name, builder):
            raise AssertionError(f"stage {name} ran")
        monkeypatch.setattr(pipeline.Pipeline, "_stage", stage)
        code = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                         *(arg for item in paths.items() for arg in item)])
        assert code == cli.EXIT_CONFIG
        assert (f"{option} {str(blocker)!r}: cannot create the directory"
                in capsys.readouterr().err)

    def test_float_valued_integer_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, **{"physics.n_steps": 3.0})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.physics.n_steps" in capsys.readouterr().err

    def test_unknown_design_field_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"design": {"master_max_iter": 10}})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.design" in capsys.readouterr().err

    def test_robin_span_on_dirichlet_side_exit_code(self, tmp_path, capsys):
        span = {"side": "bottom", "lo": 0.0, "hi": 0.5, "beta": 10.0}
        for side in ("bottom", "all"):
            cfg_path = write_config(tmp_path, **{"geometry.dirichlet_side": side,
                                                 "geometry.robin_spans": [span]})
            code = cli.main(["generate-mesh", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_CONFIG
            assert "$.geometry: robin_spans[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("design, reason", [
        ({"instants": [3, 3], "budget": 3}, "listed twice"),
        ({"instants": [], "mode": "spatial", "budget": 1}, "too short"),
    ], ids=["repeated", "empty-spatial"])
    def test_bad_instants_exit_code(self, tmp_path, capsys, design, reason):
        # a repeated instant would weight one measurement twice; no instant
        # at all left an information matrix that is singular, not invalid
        cfg_path = write_config(tmp_path, {"geometry": {"h": 0.2}, "design": design})
        code = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "$.design.instants" in err and reason in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        code = cli.main(["pipeline", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: {path}: cannot read config: " in err
        assert err.count(str(path)) == 1

    def test_infeasible_exit_code(self, tmp_path):
        # measuring only at t = 0 yields zero information matrices
        cfg_path = write_config(
            tmp_path,
            **{"physics.n_steps": 1,
               "design.budget": 1,
               "design.instants": [0]},
        )
        code = cli.main(["pipeline", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INFEASIBLE

    def test_outer_iteration_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        # this tensor needs 4 outer iterations; with a budget of 1 the
        # optimizer gives up without a certificate
        tensor = synthetic_tensor(4, 3, 3, np.random.default_rng(600))
        assert oed.simplicial_decomposition(tensor, 2).n_outer == 4
        monkeypatch.setattr(pipeline.Pipeline, "tensor", lambda self: tensor)
        monkeypatch.setattr(oed, "MAX_OUTER_DEFAULT", 1)
        cfg_path = write_config(tmp_path, **{"design.budget": 2})
        code = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert "MaxIterations: no certificate after 1 outer iterations" in capsys.readouterr().err

    def test_make_configs(self, tmp_path):
        code = cli.main(["make-configs", "--out", str(tmp_path)])
        assert code == 0
        for name in ("case1", "case2", "case3", "case4", "case5"):
            assert (tmp_path / f"{name}.json").exists()

    def test_compare_command(self, tmp_path):
        a = write_config(tmp_path, case="opt")
        b_payload = json.loads(json.dumps(FAST_CONFIG))
        b_payload["case"] = "uni"
        b_payload["design"]["optimize"] = False
        b = tmp_path / "uni.json"
        b.write_text(json.dumps(b_payload))
        code = cli.main(["compare", str(a), str(b), "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert (tmp_path / "cmp" / "compare.csv").exists()

    @pytest.mark.parametrize("certified", [True, False])
    def test_uncertified_optimum_warns(self, tmp_path, monkeypatch, capsys, certified):
        # one warning per optimized case without its certificate; the uniform
        # case is never optimized and its result is never certified
        real = pipeline.Pipeline.result
        if not certified:
            monkeypatch.setattr(pipeline.Pipeline, "result",
                                lambda self: dataclasses.replace(real(self), converged=False))
        opt, uni = tmp_path / "opt.json", tmp_path / "uni.json"
        opt.write_text(write_config(tmp_path, case="opt").read_text())
        uni.write_text(write_config(tmp_path, case="uni", **{"design.optimize": False})
                       .read_text())
        assert cli.main(["pipeline", "--config", str(opt), "--out",
                         str(tmp_path / "one")]) == 0
        assert cli.main(["compare", str(opt), str(uni), "--out", str(tmp_path / "cmp")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        n_outer = json.loads((tmp_path / "one" / "oed_result.json").read_text())["n_outer"]
        expected = (f"warning: case opt: the optimizer stopped at n_outer = {n_outer} "
                    "without its optimality certificate (converged: false)")
        assert warnings == ([] if certified else [expected, expected])

    def test_compare_same_config_twice_exit_code(self, tmp_path, capsys):
        a = write_config(tmp_path)
        code = cli.main(["compare", str(a), str(a), "--out", str(tmp_path / "cmp")])
        assert code == cli.EXIT_CONFIG
        assert "$.case: 2 cases are named 'fast'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"geometry": {"h": -1}}),
         "$.geometry.h: -1 is less than or equal to the minimum of 0.0"),
        ("{", "invalid JSON: "),
    ], ids=["bad-value", "bad-json"])
    def test_compare_names_the_invalid_file(self, tmp_path, capsys, text, message):
        # without the file's path, the message did not say which case is bad
        good = write_config(tmp_path)
        bad = tmp_path / "case3.json"
        bad.write_text(text)
        code = cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp")])
        assert code == cli.EXIT_CONFIG
        assert f"configuration error: {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate-mesh", "solve-forward", "sensitivities"])
    def test_stage_cache_only_where_used(self, tmp_path, capsys, command):
        # these commands never touch the tensor cache, and took the option
        # only to ignore it
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(write_config(tmp_path)),
                      "--out", str(tmp_path / "out"), "--stage-cache", str(tmp_path / "X")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--stage-cache" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("poly, reason", [
        ([[0.45, 0.45], [0.55, 0.55], [0.55, 0.45], [0.45, 0.55]], "crossing edges"),
        ([[0.5, 0.5], [0.55, 0.5], [0.6, 0.5]], "zero area"),
        ([[0.45, 0.45], [0.55, 0.45], [0.5, 0.5], [0.55, 0.55], [0.45, 0.55], [0.5, 0.5]],
         "a repeated vertex"),
        ([[0.42, 0.42], [0.58, 0.42], [0.58, 0.58], [0.5, 0.42]],
         "a vertex on a non-adjacent edge"),
    ], ids=["bowtie", "collinear", "self-touching", "vertex-on-edge"])
    def test_invalid_inclusion_polygon_exit_code(self, tmp_path, capsys, poly, reason):
        cfg_path = write_config(tmp_path, **{"geometry.inclusion_polygon": poly})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert f"$.geometry: inclusion polygon has {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, command, path", [
        # 2/h^2 = 80,000 nodes at least, against a cap of 5,000
        ({"geometry.h": 0.005, "geometry.node_cap": 5000}, "generate-mesh", "$.geometry.h"),
        # 8 bytes x 4 fields x 10^6 steps x 200 nodes at least: 6.4 GB
        ({"physics.n_steps": 10 ** 6}, "generate-mesh", "$.physics.n_steps"),
        # loads (2/h^2 = 2 nodes: 16 MB), but the mesh has 298 nodes, so the
        # trajectory would take 8 bytes x 1 x (10^6 + 1) x 298 = 2.22 GiB
        ({"geometry": {"h": 1.0}, "basis": {"n_basis": 1}, "physics": {"n_steps": 10 ** 6}},
         "solve-forward", "$.physics.n_steps"),
    ], ids=["h-against-node-cap", "n-steps", "n-steps-on-coarse-mesh"])
    def test_size_that_cannot_finish_exit_code(self, tmp_path, capsys, overrides, command,
                                               path):
        cfg_path = write_config(tmp_path, **overrides)
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert path in capsys.readouterr().err

    def test_spline_samples_bound_exit_code(self, tmp_path, capsys):
        # the polygon checks build n x n arrays: 1024 samples take 8 MB each
        cfg = config.load_config({"geometry": {"spline_samples": 1024}})
        assert cfg.geometry.spline_samples == 1024
        cfg_path = write_config(tmp_path, {"geometry": {"spline_samples": 1025}})
        code = cli.main(["generate-mesh", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.geometry.spline_samples" in capsys.readouterr().err

    def test_compare_dimension_mismatch_exit_code(self, tmp_path, capsys):
        a = write_config(tmp_path, case="four")
        b_payload = json.loads(json.dumps(FAST_CONFIG))
        b_payload["case"] = "three"
        b_payload["basis"]["n_basis"] = 3
        b = tmp_path / "three.json"
        b.write_text(json.dumps(b_payload))
        code = cli.main(["compare", str(a), str(b), "--out", str(tmp_path / "cmp")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "$.basis.n_basis" in err
        assert "four has 4" in err and "three has 3" in err

    def test_farthest_point_centers_overflow_exit_code(self, tmp_path, capsys):
        # an 8-vertex interface cannot host 39 farthest-point centers
        cfg_path = write_config(tmp_path, {
            "geometry": {"h": 0.09, "spline_samples": 8},
            "basis": {"n_basis": 40, "center_mode": "farthest-point"},
            "physics": {"n_steps": 2},
            "design": {"budget": 2},
        })
        code = cli.main(["sensitivities", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.basis.n_basis" in capsys.readouterr().err

    @pytest.mark.parametrize("center_mode", ["equidistant", "farthest-point"])
    def test_more_fields_than_interface_vertices_exit_code(self, tmp_path, capsys,
                                                           center_mode):
        # 9 fields on an 8-vertex interface leave the Gram matrix singular,
        # which would end the run later as a numerical failure (exit 3)
        cfg_path = write_config(tmp_path, {
            "geometry": {"h": 0.2, "spline_samples": 8},
            "basis": {"n_basis": 9, "center_mode": center_mode},
            "physics": {"n_steps": 2},
            "design": {"budget": 2},
        })
        code = cli.main(["pipeline", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.basis.n_basis" in capsys.readouterr().err

    def test_solve_forward_snapshots_match_pipeline(self, tmp_path):
        payload = {**FAST_CONFIG, "output": {"write_fields": True}}
        cfg_path = write_config(tmp_path, payload)
        assert cli.main(["solve-forward", "--config", str(cfg_path),
                         "--out", str(tmp_path / "cli")]) == 0
        pipeline.run_pipeline(config.load_config(payload), tmp_path / "pipe", log=False)
        snapshots = sorted((tmp_path / "cli").glob("forward_*.vtk"))
        assert len(snapshots) == FAST_CONFIG["physics"]["n_steps"] + 1
        for path in snapshots:
            assert path.read_bytes() == (tmp_path / "pipe" / "fields" / path.name).read_bytes()

    def test_mesh_and_basis_files_match_pipeline(self, tmp_path):
        payload = {**FAST_CONFIG, "output": {"write_fields": True}}
        cfg_path = write_config(tmp_path, payload)
        for command in ("generate-mesh", "sensitivities"):
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / command)]) == 0
        pipe = tmp_path / "pipe"
        pipeline.run_pipeline(config.load_config(payload), pipe, log=False)
        for name in ("mesh.vtk", "mesh.msh"):
            assert (tmp_path / "generate-mesh" / name).read_bytes() == (pipe / name).read_bytes()
        basis = sorted((tmp_path / "sensitivities").glob("basis_*.vtk"))
        assert len(basis) == FAST_CONFIG["basis"]["n_basis"]
        for path in basis:
            assert path.read_bytes() == (pipe / "fields" / path.name).read_bytes()
