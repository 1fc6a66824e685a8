"""In-memory spans and counts recorded around diffdesign's public functions.

For the rest of the worker process, the tracer replaces module attributes
that the pipeline looks up at call time (for example
``diffdesign.fem.solve_sensitivity``) with wrappers that record a span per
call: name, start, end and the index of the enclosing span. Nothing inside
``src/diffdesign`` is edited. Spans stay in memory until the sample ends;
self time is a span's duration minus the durations of its direct children
(calls nest strictly in this single-threaded program, so children never
overlap).
"""

from __future__ import annotations

import os
import time
from collections import Counter


class Tracer:
    """Span stack plus event counters for one pipeline sample."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def caller(self):
        """Name of the span enclosing the innermost open span."""
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 else ""

    def wrap(self, owner, attr, name=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span called
        ``name`` (none when ``name`` is None) and, once the call returns,
        runs ``after(tracer, args, result)`` inside that span."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if name is not None:
                self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                if name is not None:
                    self.close()

        setattr(owner, attr, wrapper)

    def count(self, owner, attr, name, on_error=()):
        """Count calls of ``owner.attr`` (a function or staticmethod)
        without a span; exceptions of type ``on_error`` are counted under
        ``name + '_failures'`` and re-raised."""
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except on_error:
                self.counts[name + "_failures"] += 1
                raise

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def self_times(self):
        """Summed self time per span name, in seconds."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        totals = Counter()
        for (name, start, end, _), covered in zip(self.spans, inner):
            totals[name] += (end - start) - covered
        return dict(totals)

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def _cache_written(tr, args, _result):
    tr.counts["fim.cache.writes"] += 1
    tr.counts["fim.cache.bytes"] += os.path.getsize(args[1])


def _cache_hit(tr, _args, _result):
    tr.counts["fim.cache.hits"] += 1


def _cache_lookup(tr, _args, _result):
    tr.counts["fim.cache.lookups"] += 1


def _mesh_built(tr, _args, mesh):
    tr.counts["mesh.nodes"] += len(mesh.nodes)
    tr.counts["mesh.triangles"] += len(mesh.triangles)


def _solved(tr, _args, result):
    tr.counts["oed.outer_iters"] += result.n_outer
    tr.counts["oed.vertices"] += result.n_vertices


def _linear_solve(tr, _args, _result):
    tr.counts[tr.caller().split(".")[0] + ".solves"] += 1
    tr.counts["numerics.cg.calls"] += 1


def _file_written(path_arg):
    def hook(tr, args, _result):
        tr.counts["mesh_io.files"] += 1
        tr.counts["mesh_io.bytes"] += os.path.getsize(args[path_arg])
    return hook


def instrument(tracer: Tracer, full: bool):
    """Install the wrappers. With ``full`` false only the tensor-cache
    counters go in, which the robin-compare correctness check needs, so an
    untraced sample records five counted calls and no spans."""
    from diffdesign import fem, fim, mesh_io, numerics, oed, pipeline, shape

    if not full:
        tracer.wrap(fim, "save_tensor", after=_cache_written)
        tracer.wrap(fim, "load_tensor", after=_cache_hit)
        return

    tracer.wrap(pipeline, "build_mesh", "mesh", after=_mesh_built)
    tracer.wrap(fem, "assemble_heat", "fem.assemble")
    tracer.wrap(fem, "solve_forward", "fem.forward")
    tracer.wrap(fem, "solve_sensitivity", "fem.sensitivity")
    tracer.wrap(fem, "cg_solve", "numerics.cg", after=_linear_solve)
    tracer.wrap(shape, "cg_solve", "numerics.cg", after=_linear_solve)
    tracer.wrap(shape, "extend_velocity", "shape.extend")
    tracer.wrap(shape, "gramian", "shape.gramian")
    tracer.wrap(fim, "build_sensor_models", "fim.sensors")
    tracer.wrap(fim, "elementary_fims", "fim.assemble")
    tracer.wrap(fim, "save_tensor", "fim.cache.write", after=_cache_written)
    tracer.wrap(fim, "load_tensor", "fim.cache.read", after=_cache_hit)
    # the key of every lookup is hashed, so the read path has a cost (and a
    # nonzero time) on workloads without hits too
    tracer.wrap(pipeline, "tensor_hash", "fim.cache.read", after=_cache_lookup)
    tracer.wrap(oed, "simplicial_decomposition", "oed.solve", after=_solved)
    tracer.wrap(oed, "solve_spatial", "oed.solve")
    tracer.wrap(oed, "evaluate_design", "oed.solve")
    tracer.wrap(oed, "generalized_eig", "numerics.eig")
    tracer.count(oed.ReducedProblem, "state_of", "oed.state_evals")
    tracer.count(oed.ReducedProblem, "phi_of", "oed.phi_evals")
    tracer.count(oed, "cholesky", "oed.cholesky", on_error=numerics.NotPositiveDefinite)
    tracer.wrap(mesh_io, "write_vtk", "mesh_io.write", after=_file_written(2))
    tracer.wrap(mesh_io, "write_msh", "mesh_io.write", after=_file_written(1))
