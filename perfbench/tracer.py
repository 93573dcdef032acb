"""Outside-in span recorder for the egm modules.

While a :class:`Tracer` is active, every public function of the traced
egm modules is replaced, in each module namespace that binds it, by a
wrapper that records one span: the function, the namespace the call went
through, start, end, the enclosing span, the cycle, and a count read off
the result (sweeps of a ``ConstrainedFit``, iterations of a
``FitResult``, bytes of a dense operator, bytes of a CSV read).  Modules
look their globals up at call time, so ``egm.mest.constrain_scatter`` and
``egm.covsel.constrain_scatter`` are separate bindings and calls inside a
module are seen too.  Leaving the context restores every binding.

Spans stay in memory; :meth:`Tracer.write` stores them at the end of a
run.  Nothing under ``src/egm`` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import types

#: modules whose public functions are wrapped
DEFINING = ("egm.cli", "egm.graphs", "egm.linops", "egm.covsel", "egm.mest",
            "egm.inference", "egm.simulate")
#: namespaces whose bindings are replaced
BINDINGS = ("egm",) + DEFINING

DENSE = ("linops.duplication_matrix", "linops.selection_matrix",
         "linops.symmetrization_matrix", "linops.commutation_matrix", "linops.kron")
STUDIES = ("simulate.equivalence_study", "simulate.deviance_null_study")


def _short(modname: str) -> str:
    return modname.split(".", 1)[1] if "." in modname else modname


def public_functions() -> dict:
    """Map each public egm function object to its ``module.name`` key."""
    out = {}
    for modname in DEFINING:
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                out[obj] = f"{_short(modname)}.{name}"
    return out


def _nbytes(out, args, kwargs) -> int:
    arrays = out if isinstance(out, tuple) else (out,)
    return sum(int(a.nbytes) for a in arrays)


def _iterations(out, args, kwargs) -> int:
    return int(out.iterations)


def _bytes_in(out, args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _study_units(out, args, kwargs):
    groups = len(next(iter(out.metrics.values())))
    return (out.replicates * groups, out.failures)


EXTRACT = {
    "covsel.constrain_scatter": _iterations,
    "mest.m_estimate": _iterations,
    "mest.graphical_m_estimate": _iterations,
    "cli.read_data": _bytes_in,
    **{k: _nbytes for k in DENSE},
    **{k: _study_units for k in STUDIES},
}
#: solvers that raise after exhausting ``max_iter``: a failed call ran that many
BUDGETED = ("covsel.constrain_scatter", "mest.m_estimate", "mest.graphical_m_estimate")

# span record fields
KEY, BINDING, START, END, PARENT, CYCLE, EXTRA, ERROR = range(8)


class Tracer:
    """Context manager that wraps the egm bindings and records spans."""

    def __init__(self):
        self.spans = []
        self.cycle = 0
        self._stack = [-1]
        self._saved = []
        self._functions = public_functions()

    def _wrap(self, fn, key: str, binding: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = EXTRACT.get(key)
        budgeted = key in BUDGETED
        tracer = self

        def traced(*args, **kwargs):
            rec = [key, binding, 0.0, 0.0, stack[-1], tracer.cycle, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[END] = clock()
            except Exception as exc:
                rec[END] = clock()
                rec[ERROR] = type(exc).__name__
                if budgeted:
                    bound = inspect.signature(fn).bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec[EXTRA] = int(bound.arguments["max_iter"])
                raise
            finally:
                stack.pop()
            if extract is not None:
                rec[EXTRA] = extract(out, args, kwargs)
            return out

        return traced

    def __enter__(self):
        for modname in BINDINGS:
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._functions:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(obj, self._functions[obj], _short(modname)))
        return self

    def __exit__(self, *exc_info):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        """Store every span as one tab-separated line, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tkey\tbinding\tstart\tend\tparent\tcycle\textra\terror\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[KEY]}\t{s[BINDING]}\t{s[START]:.9f}\t{s[END]:.9f}\t"
                         f"{s[PARENT]}\t{s[CYCLE]}\t{s[EXTRA]}\t{s[ERROR]}\n")


def self_times(spans) -> list:
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def self_by_key(spans) -> dict:
    """Total self time of each wrapped function, over all its bindings."""
    out = {}
    for s, st in zip(spans, self_times(spans)):
        out[s[KEY]] = out.get(s[KEY], 0.0) + st
    return out


#: per-layer self-time metrics and the span keys each one sums
SELF_TIME = {
    "cli.read_data.self_s": ("cli.read_data",),
    "graphs.build_index.self_s": ("graphs.build_index",),
    "graphs.maximal_cliques.self_s": ("graphs.maximal_cliques",),
    "linops.dense.self_s": DENSE,
    "covsel.constrain_scatter.self_s": ("covsel.constrain_scatter",),
    "covsel.constrain_jacobian.self_s": ("covsel.constrain_jacobian",),
    "covsel.constrained_scatter_acov.self_s": ("covsel.constrained_scatter_acov",),
    "covsel.edge_basis_gram.self_s": ("covsel.edge_basis_gram",),
    "mest.m_estimate.self_s": ("mest.m_estimate",),
    "mest.graphical_m_estimate.self_s": ("mest.graphical_m_estimate",),
    "mest.m_scalars.self_s": ("mest.m_scalars",),
    "mest.make_spec.self_s": ("mest.make_spec",),
    "inference.deviance.self_s": ("inference.deviance",),
    "inference.backward_elimination.self_s": ("inference.backward_elimination",),
    "inference.asv_partial_correlation.self_s": ("inference.asv_partial_correlation",),
    "simulate.sample.self_s": ("simulate.sample",),
}
#: call counts: metric -> (span key, binding or None for every binding)
CALLS = {
    "graphs.build_index.calls": ("graphs.build_index", None),
    "covsel.constrain_scatter.calls": ("covsel.constrain_scatter", None),
    "mest.m_estimate.calls": ("mest.m_estimate", None),
    "mest.graphical_m_estimate.calls": ("mest.graphical_m_estimate", None),
    "inference.deviance.calls": ("inference.deviance", None),
    "simulate.sample.calls": ("simulate.sample", None),
    "mest.inner_completions": ("covsel.constrain_scatter", "mest"),
    "inference.candidate_graphs": ("graphs.build_index", "inference"),
}
#: sums of the count read off each span's result
COUNTS = {
    "cli.read_data.bytes_in": ("cli.read_data",),
    "linops.dense_bytes": DENSE,
    "covsel.constrain_scatter.sweeps": ("covsel.constrain_scatter",),
    "mest.m_estimate.iterations": ("mest.m_estimate",),
    "mest.graphical_m_estimate.iterations": ("mest.graphical_m_estimate",),
}


def layer_metrics(spans, cycles: int, traced_wall_s: float) -> dict:
    """Per-cycle means of the layer metrics over ``cycles`` traced cycles.

    ``trace.other_self_s`` is the self time of every span no named
    self-time metric covers, and ``trace.remainder_s`` the traced wall
    time no span covers (the benchmark's own work inside the timed
    region), so the named self times plus these two add up to
    ``traced_wall_s`` per cycle.
    """
    by_key = self_by_key(spans)
    calls, calls_via, counts = {}, {}, {}
    for s in spans:
        key = s[KEY]
        calls[key] = calls.get(key, 0) + 1
        calls_via[key, s[BINDING]] = calls_via.get((key, s[BINDING]), 0) + 1
        if isinstance(s[EXTRA], int):
            counts[key] = counts.get(key, 0) + s[EXTRA]
    out = {}
    named = set()
    for metric, keys in SELF_TIME.items():
        out[metric] = sum(by_key.get(k, 0.0) for k in keys) / cycles
        named.update(keys)
    for metric, (key, binding) in CALLS.items():
        total = calls.get(key, 0) if binding is None else calls_via.get((key, binding), 0)
        out[metric] = total / cycles
    for metric, keys in COUNTS.items():
        out[metric] = sum(counts.get(k, 0) for k in keys) / cycles
    n_cs = out["covsel.constrain_scatter.calls"]
    out["covsel.constrain_scatter.sweeps_per_call"] = (
        out["covsel.constrain_scatter.sweeps"] / n_cs if n_cs else 0.0)
    attempted = failed = 0
    for s in spans:
        if s[KEY] in STUDIES and isinstance(s[EXTRA], tuple):
            attempted += s[EXTRA][0]
            failed += s[EXTRA][1]
    # vacuously 1 on workloads that run no study
    out["simulate.replicate_success_ratio"] = (attempted - failed) / attempted if attempted else 1.0
    covered = sum(by_key.values())
    out["trace.other_self_s"] = sum(v for k, v in by_key.items() if k not in named) / cycles
    out["trace.remainder_s"] = traced_wall_s - covered / cycles
    return out
