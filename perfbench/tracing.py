"""Spans and counters around the layer calls of ``enslat``, from outside.

The package is not edited: :func:`install` rebinds the names that
``enslat.cli``, ``enslat.dynamics`` and ``enslat.oracle`` import from the
other modules, so every call the pipeline makes through those names opens a
span.  Spans stay in memory until the run ends; :meth:`Tracer.report` turns
them into the per-layer metrics and the self time of each layer.
"""

from __future__ import annotations

import collections
import functools
import math
import time

# (module, bound name, span name, hook run on the call's arguments and result)
_SPANS = [
    ("cli", "run", "cli.run", None),
    ("cli", "recurrence_table", "measures.recurrence_table", None),
    ("cli", "build_linear", "lattice.build", "_on_build"),
    ("cli", "build_general", "lattice.build", "_on_build"),
    ("cli", "localized_initial", "states.initial", None),
    ("cli", "expanded_initial", "states.initial", None),
    ("cli", "auto_depth", "dynamics.auto_depth", None),
    ("cli", "propagate", "dynamics.propagate", "_on_propagate"),
    ("cli", "trajectory_from_states", "reduction.trace", None),
    ("cli", "mc_average", "oracle.mc", None),
    ("cli", "quad_average", "oracle.quad", None),
    ("cli", "analytic_qubit", "oracle.analytic", None),
    ("cli", "trajectory_csv", "cli.output", None),
    ("cli", "_leakage_csv", "cli.output", None),
    ("cli", "_compare_csv", "cli.output", None),
    ("cli", "_atomic_write", "cli.output", "_on_write"),
    ("dynamics", "recurrence_table", "measures.recurrence_table", None),
    ("dynamics", "build_linear", "lattice.build", "_on_build"),
    ("dynamics", "build_general", "lattice.build", "_on_build"),
    ("dynamics", "propagate", "dynamics.propagate", "_on_propagate"),
    ("dynamics", "partial_trace", "reduction.trace", None),
    ("dynamics", "_as_csr", "lattice.to_csr", "_on_csr"),
    ("oracle", "recurrence_table", "measures.recurrence_table", None),
    ("oracle", "quantile", "measures.quantile", None),
]


class _CountingMatrix:
    """The operator as the propagator sees it, counting products with vectors.

    The propagator reads ``shape`` and applies ``@``; nothing else.
    """

    def __init__(self, matrix, counts):
        self._matrix = matrix
        self._counts = counts
        self.shape = matrix.shape

    def __matmul__(self, vec):
        self._counts["dynamics.matvecs"] += 1
        return self._matrix @ vec


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = collections.Counter()

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            return getattr(self, hook)(args, out) if hook else out
        return traced

    def _on_build(self, args, op):
        self.counts["lattice.op_dim"] = op.dim          # the last operator built
        self.counts["lattice.op_nnz"] = op.nnz
        return op

    def _on_propagate(self, args, out):
        states = out[0]
        held = len(states) * states[0].basis.size * 16 if states else 0
        self.counts["dynamics.states_held_bytes"] = max(
            held, self.counts["dynamics.states_held_bytes"])
        return out

    def _on_write(self, args, out):
        self.counts["cli.output_bytes"] += len(args[1].encode())
        return out

    def _on_csr(self, args, matrix):
        return _CountingMatrix(matrix, self.counts)

    def _count_realizations(self, fn):
        @functools.wraps(fn)
        def counted(hb, *args, **kwargs):
            self.counts["oracle.realizations"] += hb.shape[0]
            self.counts["oracle.batches"] += 1
            return fn(hb, *args, **kwargs)
        return counted

    def overhead_s(self) -> float:
        """Time the tracing added to the run, measured apart from it.

        The cost per call of each kind of wrapper (a span, a counted product
        with a vector, a counted oracle batch) is timed around a function that
        does nothing, so that little else varies, and multiplied by the number
        of such calls the run made.
        """
        import numpy as np

        probe = Tracer()
        counted = _CountingMatrix(_Identity(), probe.counts)
        costs = [
            (len(self.spans), probe.wrap(_noop, "probe"), _noop, None),
            (self.counts["dynamics.matvecs"], counted.__matmul__, _Identity().__matmul__, None),
            (self.counts["oracle.batches"], probe._count_realizations(_noop), _noop,
             np.empty((1, 1))),
        ]
        return sum(n * (_per_call_s(wrapped, arg) - _per_call_s(bare, arg))
                   for n, wrapped, bare, arg in costs if n)

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def report(self, depth_chosen: int) -> dict:
        """Per-layer metrics plus the spans and the self time of each layer.

        A span's self time is its duration minus that of its child spans.
        """
        total = collections.defaultdict(float)
        calls = collections.Counter()
        covered = collections.defaultdict(float)
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                covered[parent] += t1 - t0
        self_s = collections.defaultdict(float)
        self_s_by_layer = collections.defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            self_s[name] += t1 - t0 - covered[i]
            self_s_by_layer[name.split(".")[0]] += t1 - t0 - covered[i]
        tried = sum(1 for i, s in enumerate(self.spans)
                    if s[0] == "dynamics.propagate" and self._under(i, "dynamics.auto_depth"))
        c = self.counts
        metrics = {
            "oracle.mc.s": total["oracle.mc"],
            "oracle.quad.s": total["oracle.quad"],
            "oracle.analytic.s": total["oracle.analytic"],
            "oracle.realizations": c["oracle.realizations"],
            "dynamics.propagate.s": total["dynamics.propagate"],
            "dynamics.propagate.calls": calls["dynamics.propagate"],
            "dynamics.matvecs": c["dynamics.matvecs"],
            "dynamics.states_held_mb": c["dynamics.states_held_bytes"] / 1e6,
            "dynamics.auto_depth.s": total["dynamics.auto_depth"],
            "dynamics.depths_tried": tried,
            "dynamics.depth_chosen": depth_chosen,
            "lattice.build.s": total["lattice.build"],
            "lattice.build.calls": calls["lattice.build"],
            "lattice.to_csr.s": total["lattice.to_csr"],
            "lattice.op_dim": c["lattice.op_dim"],
            "lattice.op_nnz": c["lattice.op_nnz"],
            "measures.recurrence_table.s": total["measures.recurrence_table"],
            "measures.quantile.s": total["measures.quantile"],
            "states.initial.s": total["states.initial"],
            "reduction.trace.s": total["reduction.trace"],
            "cli.output.s": total["cli.output"],
            "cli.output_bytes": c["cli.output_bytes"],
            "cli.self.s": self_s["cli.run"],
            "cli.run.s": total["cli.run"],
            "trace.overhead_s": self.overhead_s(),
        }
        return {"metrics": metrics, "self_s_by_layer": dict(self_s_by_layer),
                "spans": self.spans}


def _noop(arg):
    return arg


class _Identity:
    """A matrix whose product with a vector costs nothing."""

    shape = (1, 1)

    def __matmul__(self, vec):
        return vec


def _per_call_s(fn, arg, calls: int = 4000, repeats: int = 5) -> float:
    """Least time per call of ``fn(arg)`` over ``repeats`` loops of ``calls``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best / calls


def install(tracer: Tracer) -> None:
    """Rebind the traced names in the enslat modules (once per process)."""
    import enslat.cli
    import enslat.dynamics
    import enslat.oracle

    modules = {"cli": enslat.cli, "dynamics": enslat.dynamics, "oracle": enslat.oracle}
    for mod, attr, name, hook in _SPANS:
        module = modules[mod]
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, hook))
    enslat.oracle._evolve_batch = tracer._count_realizations(enslat.oracle._evolve_batch)
