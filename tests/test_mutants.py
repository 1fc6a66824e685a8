"""Mutation table: each row breaks one function under src/ and names an
existing oracle test that must then fail. A row failing here means the
oracle no longer catches that fault.

Each mutant is applied with monkeypatch after the oracle's fixtures are
built, so a row costs one run of its oracle. Flipped interface normals pass
criterion 2 (the oracle differentiates along the same flipped field) and
are caught only by test_shape, so their row names that test.
"""

import copy
import dataclasses

import numpy as np
import pytest

from diffdesign import config, fem, mesh, oed, shape
from diffdesign.errors import DegenerateInput

import test_acceptance
import test_cli
import test_mesh
import test_oed
import test_shape
from test_shape import circle_interface_mesh  # noqa: F401  (fixture)


def halved(original):
    return lambda *args: 0.5 * original(*args)


def flipped_normals(original):
    def interface_from_mesh(m):
        curve = original(m)
        return dataclasses.replace(curve, normals=-curve.normals)
    return interface_from_mesh


def returns_its_start(original):
    return lambda gen_reduced, gamma, tol, max_iter: (np.asarray(gamma, dtype=float), True)


def copied_untyped(original):
    return lambda value, schema: copy.deepcopy(value)


def inverted(original):
    return lambda *args: -original(*args)


def left_right_swapped(original):
    return {**original, "left": original["right"], "right": original["left"]}


def records_unsplit(original):
    # a segment missing from the triangulation is recorded as it is
    def enforce_segment(tr, u, v, source, ends):
        tr.constrained[mesh._edge_key(u, v)] = source
    return enforce_segment


def code_blind(original):
    # the key of the config fields alone, as when a hand-kept version
    # constant is not raised
    def tensor_hash(cfg):
        full = config.canonical_dict(cfg)
        return config._sha({k: full[k] for k in ("geometry", "physics", "basis", "noise",
                                                 "instants")})
    return tensor_hash


#: (module, attribute, mutant of the original, oracle, fixtures the oracle
#: takes, how the oracle fails)
MUTANTS = [
    pytest.param(fem, "_sensitivity_rhs", halved,
                 test_acceptance.test_criterion_2_material_derivative_oracle, (), AssertionError,
                 id="sensitivity-load-halved"),
    pytest.param(shape, "interface_from_mesh", flipped_normals,
                 test_shape.TestInterfaceCurve().test_normals_outward_and_unit,
                 ("circle_interface_mesh",), AssertionError, id="interface-normals-flipped"),
    pytest.param(oed, "torsney_master", returns_its_start,
                 test_oed.TestTorsneyMaster().test_three_vertices_match_grid, (), AssertionError,
                 id="master-returns-its-start"),
    pytest.param(config, "_typed", copied_untyped,
                 lambda: test_cli.TestConfig().test_integral_numbers_hash_as_floats(
                     {"physics": {"horizon": 10}}, {}), (), AssertionError,
                 id="numbers-not-floats"),
    pytest.param(config, "tensor_hash", code_blind,
                 test_cli.TestConfig().test_tensor_hash_covers_package_source, ("tmp_path",),
                 AssertionError, id="tensor-key-without-code"),
    pytest.param(mesh, "SIDES", left_right_swapped,
                 lambda: test_mesh.TestMeshStress().test_precedence_layout_mesh_bytes_pinned(
                     *test_mesh.ROBIN_THREE_SIDES), (), AssertionError,
                 id="sides-left-right-swapped"),
    pytest.param(mesh, "_enforce_segment", records_unsplit,
                 test_mesh.TestConstraints().test_forced_diagonal, (), AssertionError,
                 id="missing-segment-recorded-unsplit"),
    # the insertion walk loses the point before the oracle's check is reached
    pytest.param(mesh, "_in_circumcircle", inverted,
                 test_mesh.TestDelaunay().test_random_cloud_empty_circumcircle, (),
                 DegenerateInput, id="circumcircle-inverted"),
]


@pytest.mark.parametrize("module, attribute, mutate, oracle, fixtures, failure", MUTANTS)
def test_oracle_catches_mutant(module, attribute, mutate, oracle, fixtures, failure,
                               request, monkeypatch):
    args = [request.getfixturevalue(name) for name in fixtures]
    monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    with pytest.raises(failure):
        oracle(*args)
