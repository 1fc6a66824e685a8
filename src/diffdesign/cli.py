"""Command line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 infeasible design.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import mesh_io
from .config import load_config, comparison_case_dicts
from .errors import ConfigError, DiffDesignError, Infeasible
from .pipeline import Pipeline, _write_json, check_cases, compare_cases

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


#: the commands that read and write the FIM tensor cache
CACHE_COMMANDS = ("assemble-fim", "pipeline", "compare")


def _add_outputs(parser, command):
    parser.add_argument("--out", default="out", help="output directory")
    if command in CACHE_COMMANDS:
        parser.add_argument("--stage-cache", default=None,
                            help="directory for the FIM tensor cache")


def _cache_dir(args):
    return args.stage_cache if args.stage_cache else Path(args.out) / "cache"


def _make_dir(option, path):
    """Create the directory `option` names before any stage runs, so that an
    unusable path is a configuration error, not a late traceback."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{option} {str(path)!r}: cannot create the directory "
                          f"({err.strerror})") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffdesign",
        description="A-optimal sensor activation design for inclusion "
                    "identification in a 2D diffusion process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in [
        ("generate-mesh", "build and export the tagged mesh"),
        ("solve-forward", "run the forward diffusion solve"),
        ("sensitivities", "extend the basis fields and solve the sensitivity equations"),
        ("assemble-fim", "assemble (and cache) the elementary FIM tensor"),
        ("pipeline", "run every stage and write all outputs"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON configuration file")
        _add_outputs(p, name)

    p = sub.add_parser("compare", help="run several cases and tabulate the criteria")
    p.add_argument("configs", nargs="+", help="case configuration files")
    _add_outputs(p, "compare")

    p = sub.add_parser("make-configs",
                       help="write the five comparison case configurations")
    p.add_argument("--out", default="out", help="output directory")
    return parser


def _run(args):
    if args.command == "make-configs":
        out = Path(args.out)
        _make_dir("--out", out)
        for name, payload in comparison_case_dicts().items():
            _write_json(out / f"{name}.json", payload)
        print(f"wrote 5 case configs under {out}")
        return 0

    if args.command == "compare":
        configs = [load_config(path) for path in args.configs]
        check_cases(configs)
        _make_dir("--out", args.out)
        _make_dir("--stage-cache", _cache_dir(args))
        rows = compare_cases(configs, args.out, cache_dir=_cache_dir(args))
        for case, phi, recip in rows:
            print(f"{case}: phi = {phi:.6e}")
        print(f"table written to {Path(args.out) / 'compare.csv'}")
        return 0

    cache_dir = _cache_dir(args) if args.command in CACHE_COMMANDS else None
    pipe = Pipeline(load_config(args.config), args.out, cache_dir=cache_dir)
    out = Path(args.out)
    _make_dir("--out", out)
    if cache_dir is not None:
        _make_dir("--stage-cache", cache_dir)

    if args.command == "generate-mesh":
        m = pipe.mesh()
        pipe.write_mesh_files(mesh_io.vtk_grid(m))
        stats = {
            "nodes": len(m.nodes),
            "triangles": len(m.triangles),
            "inclusion_area": float(m.areas()[m.regions == 1].sum()),
            "sensors": {"holdall": len(m.holdall_annulus),
                        "holdall-closure": len(m.holdall_closure),
                        **{f"sensor:{k}": len(e) for k, e in enumerate(m.sensor_elements)}},
        }
        _write_json(out / "mesh_stats.json", stats)
        print(f"mesh: {stats['nodes']} nodes, {stats['triangles']} triangles")
        return 0

    if args.command == "solve-forward":
        n_snapshots = len(pipe.forward().times)
        pipe.write_forward_fields(".", mesh_io.vtk_grid(pipe.mesh()))
        print(f"forward trajectory: {n_snapshots} snapshots")
        return 0

    if args.command == "sensitivities":
        n_basis = len(pipe.sensitivities())
        grid = mesh_io.vtk_grid(pipe.mesh())
        pipe.write_basis_fields(".", grid)
        pipe.write_sensitivity_fields(".", grid)
        print(f"{n_basis} sensitivity trajectories")
        return 0

    if args.command == "assemble-fim":
        tensor = pipe.tensor()
        print(f"tensor: {tensor.n_obs} sensors x {tensor.n_time} instants "
              f"x {tensor.n_basis} basis fields ({pipe.report.fim_cache})")
        return 0

    if args.command == "pipeline":
        report = pipe.run()
        summary = report.oed_summary
        print(f"phi = {summary['phi']:.6e}  converged = {summary['converged']}  "
              f"outer = {summary['n_outer']}")
        print(f"weights: {summary['counts']['one']} at one, "
              f"{summary['counts']['fractional']} fractional, "
              f"{summary['counts']['zero']} at zero")
        print(f"outputs under {out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as err:
        print(f"infeasible design: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DiffDesignError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
