"""diffdesign benchmark: end-to-end time, set-up, memory and failures of one
workload, or per-layer self times and counts from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 10 --trace 0

Every sample runs in a fresh interpreter (``perfbench/worker.py``) with BLAS
pinned to one thread and its own output and cache directories under
``.perfbench_work/``. An untraced run takes at least two samples and more
while another fits in ``--seconds``, and reports the mean ``wall_s`` and the
medians of ``setup_s`` and ``peak_rss_mb``. A traced run interleaves untraced and
traced samples (at least one and two, so that counts can be compared) and
reports every per-layer metric; the trace overhead is the traced median
wall time minus the untraced one.

A sample fails when the workload raises, an optimized case lacks its
optimality certificate, a case on the paper geometry misses its stored
criterion value, the robin-compare tensor cache is not written 3 times and
hit twice, or its CSV/JSON outputs differ from those of the run's first
passing sample. Every run therefore compares the outputs of two processes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: no optional sample starts once a run has lasted RUN_BUDGET_S (counting
#: the previous sample's duration), and a worker still running at
#: RUN_LIMIT_S is killed, so that the run ends within 180 s
RUN_BUDGET_S = 140.0
RUN_LIMIT_S = 170.0
#: set-up probes of an untraced run (a traced run reports no set-up time
#: and makes only the one that records the environment)
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: per-layer time metric -> span name recorded by perfbench/tracer.py
LAYER_TIMES = {
    "mesh.self_s": "mesh",
    "fem.assemble.self_s": "fem.assemble",
    "fem.forward.self_s": "fem.forward",
    "fem.sensitivity.self_s": "fem.sensitivity",
    "shape.extend.self_s": "shape.extend",
    "shape.gramian.self_s": "shape.gramian",
    "numerics.cg.self_s": "numerics.cg",
    "numerics.eig.self_s": "numerics.eig",
    "fim.sensors.self_s": "fim.sensors",
    "fim.assemble.self_s": "fim.assemble",
    "fim.cache.write_s": "fim.cache.write",
    "fim.cache.read_s": "fim.cache.read",
    "oed.solve.self_s": "oed.solve",
    "mesh_io.write.self_s": "mesh_io.write",
    "pipeline.other.self_s": "pipeline",
}
#: per-layer count metric -> unit
LAYER_COUNTS = {
    "mesh.nodes": "count", "mesh.triangles": "count",
    "fem.solves": "count", "shape.solves": "count", "numerics.cg.calls": "count",
    "fim.cache.hits": "count", "fim.cache.lookups": "count", "fim.cache.bytes": "bytes",
    "oed.outer_iters": "count", "oed.vertices": "count", "oed.state_evals": "count",
    "oed.phi_evals": "count", "oed.cholesky_failures": "count",
    "mesh_io.files": "count", "mesh_io.bytes": "bytes",
}


class Run:
    """Worker processes of one benchmark run, in a scratch directory of the
    checkout that is removed when the run ends."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.start = time.perf_counter()
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.env = dict(os.environ, **{name: "1" for name in BLAS_ENV})
        self.n_jobs = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, trace=False, setup_only=False, environment=False):
        """Run one worker. Returns (set-up seconds or None, the worker's JSON
        result or None, error text or None)."""
        self.n_jobs += 1
        tag = f"{self.n_jobs:03d}"
        job = {
            "workload": self.args.workload, "seed": self.args.seed,
            "src": str(self.root / "src"), "trace": trace,
            "setup_only": setup_only, "environment": environment,
            "out": str(self.work / f"out-{tag}"), "cache": str(self.work / f"cache-{tag}"),
            "spans": str(self.work / f"spans-{tag}.json"),
        }
        job_path = self.work / f"job-{tag}.json"
        job_path.write_text(json.dumps(job))
        err_path = self.work / f"stderr-{tag}.txt"
        with open(err_path, "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.root, text=True)
            try:
                setup, out = self._collect(proc, began)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        shutil.rmtree(job["out"], ignore_errors=True)
        shutil.rmtree(job["cache"], ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or setup is None or (lines == [] and not setup_only):
            tail = err_path.read_text(errors="replace").strip().splitlines()
            return setup, None, "worker failed: " + (
                tail[-1] if tail else f"exit code {proc.returncode}")
        return setup, json.loads(lines[-1]) if lines else None, None

    def _collect(self, proc, began):
        """Set-up seconds (time to the worker's ``ready`` line) and the rest
        of its output; a watchdog kills a worker that outlives the run limit."""
        watchdog = threading.Timer(max(RUN_LIMIT_S - self.elapsed(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            setup = time.perf_counter() - began if ready else None
            return setup, proc.stdout.read()
        finally:
            watchdog.cancel()


def check_sample(workload, record):
    """Reasons the sample fails its correctness checks (empty when it passes)."""
    problems = []
    reference = REFERENCE["phi_paper_geometry"][workload]
    for case in record["cases"]:
        name = case["case"]
        if case["optimized"]:
            if not case["converged"]:
                problems.append(f"{name}: not converged")
            if case["max_violation"] > case["tol_outer"] * case["xi"]:
                problems.append(f"{name}: max_violation {case['max_violation']!r} "
                                f"> tol_outer * xi")
        if not record["jittered"]:
            ref = reference[name]
            if abs(case["phi"] - ref) > REFERENCE["phi_rtol"] * abs(ref):
                problems.append(f"{name}: phi {case['phi']!r} != reference {ref!r}")
    if workload == "robin-compare":
        writes = record["counts"].get("fim.cache.writes", 0)
        hits = record["counts"].get("fim.cache.hits", 0)
        if (writes, hits) != (3, 2):
            problems.append(f"tensor cache: {writes} misses and {hits} hits, "
                            f"expected 3 and 2")
    return problems


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def describe(values):
    return (f"mean={statistics.fmean(values):.4f} median={statistics.median(values):.4f} "
            f"min={min(values):.4f} max={max(values):.4f} n={len(values)}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "diffdesign" / "__init__.py").is_file():
        print(f"error: no diffdesign sources under {root / 'src'}", file=sys.stderr)
        return 2

    run = Run(root, args)
    run.work.mkdir(parents=True)
    try:
        return measure(run, args)
    finally:
        spans = sorted(run.work.glob("spans-*.json"))
        if spans:
            trace_dir = root / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            for path in spans:
                path.rename(trace_dir / path.name)
        shutil.rmtree(run.work, ignore_errors=True)


def measure(run, args):
    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    setups = []
    for i in range(1 if args.trace else SETUP_PROBES):
        setup, env, error = run.spawn(setup_only=True, environment=i == 0)
        if error:
            print(f"error: set-up probe: {error}", file=sys.stderr)
            return 1
        setups.append(setup)
        if i == 0:
            env.update(nproc=os.cpu_count(), cpu=cpu_model())
            print("environment " + json.dumps(env, sort_keys=True))

    # every run takes two samples at least, so that its outputs are compared
    # between two processes; traced runs interleave untraced samples so drift
    # in machine speed falls on both sides of the overhead estimate
    if args.trace:
        schedule = itertools.chain([False, True, True], itertools.cycle([False, True]))
        minimum = 3
    else:
        schedule, minimum = itertools.repeat(False), 2
    plain, traced, failures = [], [], []
    first_digests = None
    measure_start = time.perf_counter()
    last_cost = 0.0
    for trace in schedule:
        # stop when another sample as long as the last would overrun
        # --seconds, so a run's length does not grow with a slow workload
        if len(failures) >= minimum and (
                time.perf_counter() - measure_start + last_cost > args.seconds
                or run.elapsed() + last_cost >= RUN_BUDGET_S
                or all(failures)):
            break
        began = time.perf_counter()
        setup, record, error = run.spawn(trace=trace)
        last_cost = time.perf_counter() - began
        if setup is not None:
            setups.append(setup)
        problems = [error] if error else check_sample(args.workload, record)
        if not problems:
            if first_digests is None:
                first_digests = record["digests"]
            changed = sorted(k for k in first_digests.keys() | record["digests"].keys()
                             if first_digests.get(k) != record["digests"].get(k))
            if changed:
                problems = ["CSV/JSON outputs differ from the first sample's: "
                            + ", ".join(changed[:5])]
        for problem in problems:
            print(f"FAIL {label} sample {len(failures) + 1}: {problem}")
        failures.append(bool(problems))
        if record is not None:
            (traced if trace else plain).append(record)

    attempted, failed = len(failures), sum(failures)
    correct = failed == 0
    print(f"{label} fail_rate [1] {failed / attempted:.4f} ({failed} of {attempted} failed)")
    metrics = {}
    if not args.trace and plain:
        walls = [r["wall_s"] for r in plain]
        rss = [r["peak_rss_mb"] for r in plain]
        print(f"{label} wall_s [s] {describe(walls)}")
        print(f"{label} setup_s [s] {describe(setups)}")
        print(f"{label} peak_rss_mb [MB] {describe(rss)}")
        # wall_s is a mean: on a shared host the machine's speed shifts in
        # steps that last about a minute, and a median jumps to whichever step
        # holds most of a run's samples, while a mean weighs them by count
        metrics = {"wall_s": metric(statistics.fmean(walls), "s"),
                   "setup_s": metric(statistics.median(setups), "s"),
                   "peak_rss_mb": metric(statistics.median(rss), "MB")}
    elif args.trace and plain and traced:
        counts = [r["counts"] for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print(f"ERROR {label}: traced samples of one seed report different counts")
        for name, span in LAYER_TIMES.items():
            metrics[name] = metric(statistics.median(r["self_s"].get(span, 0.0)
                                                     for r in traced), "s")
        metrics["trace_overhead_s"] = metric(
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s")
        for name, unit in LAYER_COUNTS.items():
            metrics[name] = metric(counts[0].get(name, 0), unit)
        print(f"{label} samples: {len(plain)} untraced, {len(traced)} traced")
        for name, m in metrics.items():
            print(f"{label} {name} [{m['unit']}] {m['value']:.6g}")
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
