"""Workload definitions and the seeded geometry jitter.

Each workload is a runner from ``diffdesign.pipeline`` (``run_pipeline`` for
one case, ``compare_cases`` for the paper's five-case comparison) and the
config dicts handed to ``diffdesign.config.load_config``. Seed 0 is the
paper geometry exactly. On a workload that takes the jitter, any other seed
scales the default inclusion's spline control polygon about its centroid by
a factor drawn from the seed, so a claim can be re-checked on geometry not
used while a change was written.

The optimizer-bound workloads keep the paper geometry for every seed: the
optimizer's work depends chaotically on the mesh a jittered geometry
yields. With a 1e-4 jitter, seeds 1-5 gave paper-default wall times of
3.4-5.1 s (11k-20k criterion evaluations) and robin-compare 28-60 s, a
spread no regression bound could absorb.
"""

from __future__ import annotations

import copy

import numpy as np

#: largest relative change of the inclusion's size a nonzero seed applies
JITTER_REL = 1e-4

#: name -> (runner, config dicts or None for the comparison cases, jittered)
WORKLOADS = {
    # the paper-shaped run: h = 0.04, 8 sensors x 22 instants x 9 fields,
    # every output written; optimizer ~50 %, sensitivities ~25 %, VTK ~15 %
    "paper-default": ("run_pipeline", [{}], False),
    # PDE-bound: ~6.6k nodes, spatial design with a 0.03 s optimizer, so a
    # solver or mesher change shows and an optimizer change should not
    "fine-spatial": ("run_pipeline", [{
        "geometry": {"h": 0.02},
        "design": {"mode": "spatial", "budget": 3},
        "output": {"write_fields": False},
    }], True),
    # the paper's headline comparison: five cases sharing one cold tensor
    # cache (3 writes, 2 hits); optimizer ~80 %. BENCHMARK.json does not list
    # it: a run needs two ~30 s samples, and the repeated runs of a
    # regression check cannot afford that next to 55 s runs of the others
    "robin-compare": ("compare_cases", None, False),
}


def jittered_control(seed):
    """Spline control polygon of the inclusion for ``seed``."""
    from diffdesign.mesh import DEFAULT_INCLUSION_CONTROL

    control = DEFAULT_INCLUSION_CONTROL.copy()
    if seed == 0:
        return control
    factor = 1.0 + JITTER_REL * np.random.default_rng(seed).uniform(-1.0, 1.0)
    centroid = control.mean(axis=0)
    return centroid + (control - centroid) * factor


def configs(workload, seed):
    """Runner name, config dicts of ``workload`` for ``seed``, and whether the
    seed changed them. ``load_config`` then validates the dicts, which
    rejects an inclusion leaving the hold-all."""
    if seed < 0:
        raise ValueError("the seed must be a non-negative integer")
    runner, dicts, jittered = WORKLOADS[workload]
    if dicts is None:
        from diffdesign.config import comparison_case_dicts
        dicts = list(comparison_case_dicts().values())
    dicts = copy.deepcopy(dicts)
    jittered = jittered and seed != 0
    if jittered:
        control = jittered_control(seed).tolist()
        for d in dicts:
            d.setdefault("geometry", {})["spline_control"] = control
    return runner, dicts, jittered
