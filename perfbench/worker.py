"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, seed, source tree, output and cache
directories and whether to trace. The worker imports diffdesign from the
given source tree, builds and validates the workload's configs, prints
``ready`` (the parent times set-up up to that line), runs the workload
through the library's public entry points and prints one JSON line with
the wall time, peak RSS, per-case results, output digests and, when
traced, per-layer self times and counts. A job with ``setup_only`` exits
after ``ready``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _digests(out_dir):
    """sha256 of every CSV/JSON output, keyed by path relative to out_dir."""
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.suffix in (".csv", ".json")}


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = getattr(handle, symbol)()
                break
    return threads


def environment():
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _blas_threads()}


def _case_results(cfgs, out_dir, single):
    cases = []
    for cfg in cfgs:
        case_dir = Path(out_dir) if single else Path(out_dir) / cfg.case
        result = json.loads((case_dir / "oed_result.json").read_text())
        cases.append({
            "case": cfg.case,
            "optimized": cfg.design.optimize,
            "tol_outer": cfg.design.tol_outer,
            "phi": result["phi"],
            "xi": result["xi"],
            "max_violation": result["max_violation"],
            "converged": result["converged"],
        })
    return cases


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    import diffdesign
    from diffdesign import pipeline
    from diffdesign.config import load_config

    if Path(diffdesign.__file__).resolve().parent != src / "diffdesign":
        raise RuntimeError(f"diffdesign imported from {diffdesign.__file__}, not {src}")

    import tracer as tracing
    import workloads

    runner, dicts, jittered = workloads.configs(job["workload"], job["seed"])
    cfgs = [load_config(d) for d in dicts]
    print("ready", flush=True)
    if job["setup_only"]:
        if job["environment"]:
            print(json.dumps(environment()), flush=True)
        return

    tr = tracing.Tracer()
    tracing.instrument(tr, full=job["trace"])
    run = getattr(pipeline, runner)
    target = cfgs[0] if runner == "run_pipeline" else cfgs
    start = time.perf_counter()
    if job["trace"]:
        tr.open("pipeline")
    run(target, job["out"], cache_dir=job["cache"], log=False)
    if job["trace"]:
        tr.close()
    wall = time.perf_counter() - start

    record = {
        "jittered": jittered,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": _case_results(cfgs, job["out"], runner == "run_pipeline"),
        "digests": _digests(job["out"]),
        "counts": dict(tr.counts),
    }
    if job["trace"]:
        record["self_s"] = tr.self_times()
        Path(job["spans"]).write_text(json.dumps(tr.span_records()))
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
