"""Outside-in tracer for errbounds.

The tracer never edits the library. It replaces public functions in every
``errbounds`` module namespace that binds them (so ``norm_sq`` is wrapped in
``quadrature``, ``elliptic``, ``parabolic``, ``optimize``, ``manufactured``
and the package itself), and the ``value`` method of ``ScalarField`` and
``VectorField``. Calls made through module globals inside the library then
go through the wrappers too, which is what makes nested spans visible.

Each call becomes a span ``(name, start, end, parent, record)`` held in
memory; ``restore`` puts every original back. Self time is a span's
duration minus the durations of its direct children (calls are sequential,
so children never overlap).
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

FIELD_EVAL = "fields.eval"
NODE_FUNCS = ("space_nodes", "spacetime_nodes")
SYMBOLIC_FUNCS = ("scalar_field", "vector_field", "gradient_field")

# Estimators whose per-call metrics the benchmark reports: every estimator
# that one of its workloads runs. All estimators are wrapped regardless.
REPORTED_ESTIMATORS = (
    "elliptic.rd_equality", "elliptic.poisson_two_sided",
    "elliptic.rd_nonconforming_bounds", "parabolic.trd_equality",
    "parabolic.heat_two_sided", "parabolic.trd_isometry_check",
    "parabolic.heat_isometry_check",
)

# (metric name, unit, better) of the traced run, in print order.
PER_LAYER = (
    [("fields.eval.calls", "count", "lower"),
     ("fields.eval.points", "count", "lower"),
     ("fields.eval.s", "s", "lower"),
     ("fields.eval.repeat_frac", "frac", "lower"),
     ("quadrature.l2_inner.calls", "count", "lower"),
     ("quadrature.l2_inner.self_s", "s", "lower"),
     ("quadrature.norm_sq.calls", "count", "lower"),
     ("quadrature.norm_sq.self_s", "s", "lower"),
     ("quadrature.trace_norm_sq.calls", "count", "lower"),
     ("quadrature.trace_norm_sq.self_s", "s", "lower"),
     ("quadrature.nodes.calls", "count", "lower"),
     ("quadrature.nodes.s", "s", "lower"),
     ("quadrature.nodes.hit_ratio", "frac", "higher"),
     ("manufactured.make_case.calls", "count", "lower"),
     ("manufactured.make_case.self_s", "s", "lower"),
     ("symbolic.fields.calls", "count", "lower"),
     ("symbolic.fields.s", "s", "lower"),
     ("manufactured.perturb.calls", "count", "lower"),
     ("manufactured.perturb.self_s", "s", "lower"),
     ("manufactured.perturb.quad_s", "s", "lower"),
     ("elliptic.self_s", "s", "lower"),
     ("parabolic.self_s", "s", "lower")]
    + [(f"{est}.{what}", unit, "lower") for est in REPORTED_ESTIMATORS
       for what, unit in (("calls", "count"), ("s", "s"))]
    + [("optimize.minimize_flux_majorant.calls", "count", "lower"),
       ("optimize.minimize_flux_majorant.s", "s", "lower"),
       ("optimize.improve_bound.s", "s", "lower"),
       ("optimize.l2_inner.calls", "count", "lower"),
       ("optimize.self_s", "s", "lower"),
       ("runner.run.self_s", "s", "lower"),
       ("runner.emit.s", "s", "lower"),
       ("runner.emit.bytes", "B", "lower"),
       ("config.parse_config.s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower")])

COUNT_METRICS = tuple(n for n, unit, _ in PER_LAYER if unit in ("count", "B"))


class Tracer:
    """Span recorder installed around the public names of errbounds."""

    def __init__(self):
        self._patches = []          # (owner, attribute, original)
        self._node_funcs = []       # original lru_cache functions
        self.reset()

    # -- recording -------------------------------------------------------
    def reset(self):
        """Forget all spans and counters (the patches stay installed)."""
        self.names, self.vias, self.parents = [], [], []
        self.records, self.starts, self.ends = [], [], []
        self._stack = []
        self._record = -1
        self._n_records = 0
        self._seen = {}
        self.counters = defaultdict(int)
        self._cache0 = self._cache_totals()

    def _call(self, name, via, fn, args, kwargs, starts_record=False):
        idx = len(self.starts)
        opened = starts_record and self._record < 0
        if opened:
            self._record = self._n_records
            self._n_records += 1
            self._seen = {}
        self.names.append(name)
        self.vias.append(via)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.records.append(self._record)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
            if opened:
                self._record = -1

    def _eval(self, original, field, args):
        stack = self._stack
        if stack and self.names[stack[-1]] == FIELD_EVAL:
            return original(field, *args)
        self.counters["fields.eval.points"] += args[-1].shape[0]
        if self._record >= 0:
            self.counters["eval_in_record"] += 1
            key = (id(field),) + tuple(id(a) for a in args)
            if key in self._seen:
                self.counters["eval_repeat"] += 1
            else:
                # strong references keep the ids from being reused
                self._seen[key] = (field, args)
        return self._call(FIELD_EVAL, "", original, (field,) + args, {})

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap the public names of the imported errbounds package."""
        from errbounds import (cli, config, elliptic, fields, manufactured,
                               optimize, parabolic, quadrature, runner,
                               symbolic)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "errbounds" or name.startswith("errbounds.")]

        def everywhere(fn, name, **opts):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        via = mod.__name__.rpartition(".")[2]
                        self._patch(mod, attr, self._wrapper(fn, name, via, **opts))

        everywhere(quadrature.l2_inner, "quadrature.l2_inner")
        everywhere(quadrature.norm_sq, "quadrature.norm_sq")
        everywhere(quadrature.trace_norm_sq, "quadrature.trace_norm_sq")
        for fname in NODE_FUNCS:
            fn = getattr(quadrature, fname)
            self._node_funcs.append(fn)
            everywhere(fn, "quadrature.nodes")
        for fname in SYMBOLIC_FUNCS:
            everywhere(getattr(symbolic, fname), "symbolic.fields")
        everywhere(manufactured.make_case, "manufactured.make_case")
        everywhere(manufactured.perturb, "manufactured.perturb")
        for est in config.ESTIMATORS:
            for mod in (elliptic, parabolic):
                if hasattr(mod, est):
                    everywhere(getattr(mod, est), f"{mod.__name__.rpartition('.')[2]}.{est}",
                               starts_record=True)
        everywhere(optimize.minimize_flux_majorant,
                   "optimize.minimize_flux_majorant", starts_record=True)
        everywhere(optimize.improve_bound, "optimize.improve_bound",
                   starts_record=True)
        everywhere(runner.run, "runner.run")
        everywhere(runner.emit, "runner.emit", after=self._count_bytes)
        everywhere(config.parse_config, "config.parse_config")
        everywhere(cli.main, "cli.main")
        for cls in (fields.ScalarField, fields.VectorField):
            original = cls.value
            tracer = self

            def value(field, *args, _original=original):
                return tracer._eval(_original, field, args)

            self._patch(cls, "value", value)
        self.reset()

    def _wrapper(self, fn, name, via, starts_record=False, after=None):
        call = self._call

        def wrapper(*args, **kwargs):
            if after is None:
                return call(name, via, fn, args, kwargs, starts_record)
            result = call(name, via, fn, args, kwargs, starts_record)
            after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_bytes(self, paths):
        self.counters["runner.emit.bytes"] += sum(os.path.getsize(p) for p in paths)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _cache_totals(self):
        hits = misses = 0
        for fn in self._node_funcs:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- derived metrics -------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        names = np.array(self.names, dtype=object)
        vias = np.array(self.vias, dtype=object)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_t = dur - child
        parent_names = np.where(nested, names[np.maximum(parents, 0)], "")

        def is_(name):
            return names == name

        def total(values, mask):
            return float(math.fsum(values[mask].tolist()))

        def outermost(name):
            return is_(name) & (parent_names != name)

        def prefix(p):
            return np.array([n.startswith(p) for n in self.names], dtype=bool)

        c = self.counters
        hits0, misses0 = self._cache0
        hits1, misses1 = self._cache_totals()
        lookups = (hits1 - hits0) + (misses1 - misses0)
        perturb_child = (parent_names == "manufactured.perturb") & prefix("quadrature.")
        m = {
            "fields.eval.calls": int(is_(FIELD_EVAL).sum()),
            "fields.eval.points": int(c["fields.eval.points"]),
            "fields.eval.s": total(dur, is_(FIELD_EVAL)),
            "fields.eval.repeat_frac": (c["eval_repeat"] / c["eval_in_record"]
                                        if c["eval_in_record"] else 0.0),
            "quadrature.nodes.calls": int(is_("quadrature.nodes").sum()),
            "quadrature.nodes.s": total(dur, outermost("quadrature.nodes")),
            "quadrature.nodes.hit_ratio": ((hits1 - hits0) / lookups
                                           if lookups else 0.0),
            "symbolic.fields.calls": int(is_("symbolic.fields").sum()),
            "symbolic.fields.s": total(dur, outermost("symbolic.fields")),
            "manufactured.perturb.quad_s": total(dur, perturb_child),
            "elliptic.self_s": total(self_t, prefix("elliptic.")),
            "parabolic.self_s": total(self_t, prefix("parabolic.")),
            "optimize.l2_inner.calls": int((is_("quadrature.l2_inner")
                                            & (vias == "optimize")).sum()),
            "optimize.self_s": total(self_t, prefix("optimize.")),
            "runner.emit.bytes": int(c["runner.emit.bytes"]),
        }
        for name in ("quadrature.l2_inner", "quadrature.norm_sq",
                     "quadrature.trace_norm_sq", "manufactured.make_case",
                     "manufactured.perturb"):
            m[f"{name}.calls"] = int(is_(name).sum())
            m[f"{name}.self_s"] = total(self_t, is_(name))
        for name in REPORTED_ESTIMATORS + ("optimize.minimize_flux_majorant",):
            m[f"{name}.calls"] = int(is_(name).sum())
            m[f"{name}.s"] = total(dur, is_(name))
        m["optimize.improve_bound.s"] = total(dur, is_("optimize.improve_bound"))
        m["runner.run.self_s"] = total(self_t, is_("runner.run"))
        m["runner.emit.s"] = total(dur, is_("runner.emit"))
        m["config.parse_config.s"] = total(dur, is_("config.parse_config"))
        m["cli.main.self_s"] = total(self_t, is_("cli.main"))
        return m

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "via": self.vias[i],
                    "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                    "parent": self.parents[i], "record": self.records[i]}) + "\n")

