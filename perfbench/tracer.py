"""Spans and counters recorded from outside stochexpand.

``Tracer.installed()`` swaps the public callables that the workloads' call
paths look up at call time (module attributes such as
``harness.sample_wiener`` and class attributes such as
``OrthonormalSystem.eval_table``) for timing wrappers, and puts the
originals back on exit.  Spans stay in memory; ``write`` saves them when
the run ends.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import stochexpand.cli as cli
from stochexpand import expansions, harness, oracle, quadrature
from stochexpand.basis import OrthonormalSystem

ORACLE_RUN = "oracle"  # run id of the separately timed oracle.iterated_sum calls
SAMPLERS = ("drivers.sample_wiener", "drivers.sample_gaussian_martingale",
            "drivers.sample_poisson")
EXPAND_MODES = ("pairing_general", "prelimit")


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "attrs")

    def __init__(self, id, name, parent, run):
        self.id, self.name, self.parent, self.run = id, name, parent, run
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _gaussian_draws(args, kwargs, path):
    return {"rng_draws": path.m * path.partition.n_steps}


def _poisson_draws(args, kwargs, real):
    jumps = sum(len(t) for t in real.times)
    # per component: one Poisson count, then a time and a mark per jump
    return {"jumps": jumps, "rng_draws": real.m + 2 * jumps}


def _points(position):
    return lambda args, kwargs, out: {"points": int(np.size(args[position]))}


def _multiplicity(args, kwargs, out):
    return {"k": args[0].multiplicity}


def _mode(args, kwargs, out):
    return {"mode": kwargs.get("correction", args[3] if len(args) > 3 else "pairing_general")}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = None  # id shared by the spans of one round
        self._stack: list[int] = []

    def _wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out

        return traced

    def _counting_adaptive(self, adaptive):
        """quadrature.adaptive, counting grid evaluations and their panels."""

        def counted_adaptive(value_on_grid, *args, **kwargs):
            tally = self.spans[self._stack[-1]].attrs  # the span _wrap just opened
            tally.update(grid_evals=0, panels=0)

            def counted(grid):
                tally["grid_evals"] += 1
                tally["panels"] += grid.n_panels
                return value_on_grid(grid)

            return adaptive(counted, *args, **kwargs)

        return counted_adaptive

    def _targets(self):
        """(owner, attribute, span name, attrs) of every wrapped callable."""
        return [
            (cli, "main", "cli.main", None),
            (cli, "run_experiment", "harness.run_experiment", None),
            (harness, "run_experiment", "harness.run_experiment", None),
            (cli, "coeff_tensor", "kernel.coeff_tensor", _multiplicity),
            (harness, "coeff_tensor", "kernel.coeff_tensor", _multiplicity),
            (harness, "kernel_norm_sq", "kernel.kernel_norm_sq", None),
            (harness, "sample_wiener", "drivers.sample_wiener", _gaussian_draws),
            (harness, "sample_gaussian_martingale", "drivers.sample_gaussian_martingale",
             _gaussian_draws),
            (harness, "sample_poisson", "drivers.sample_poisson", _poisson_draws),
            (harness, "interval_measures", "drivers.interval_measures", None),
            (oracle, "interval_measures", "drivers.interval_measures", None),
            (expansions, "poisson_variables", "expansions.poisson_variables", None),
            (expansions, "expand", "expansions.expand", _mode),
            (oracle, "slot_increments", "oracle.slot_increments", None),
            (oracle, "gk_correction_tensor", "oracle.gk_correction_tensor", None),
            (oracle, "iterated_sum", "oracle.iterated_sum", None),
            (OrthonormalSystem, "eval_table", "basis.eval_table", _points(2)),
            (quadrature.Primitive, "__call__", "quadrature.offgrid", _points(1)),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, attrs in self._targets():
                original = vars(owner).get(attr)
                if original is None:
                    raise RuntimeError(f"trace target {owner.__name__}.{attr} no longer exists")
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, attrs))
            saved.append((quadrature, "adaptive", quadrature.adaptive))
            quadrature.adaptive = self._wrap("quadrature.adaptive",
                                             self._counting_adaptive(quadrature.adaptive))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "run": s.run, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def _self_seconds(span, spans, kids, transparent=()) -> float:
    """Span time not covered by child spans; children named in `transparent`
    count as the span's own work, and their children are subtracted instead."""
    covered, todo = 0.0, list(kids[span.id])
    while todo:
        child = spans[todo.pop()]
        if child.name in transparent:
            todo.extend(kids[child.id])
        else:
            covered += child.seconds
    return span.seconds - covered


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics: `.s` and counts are per round (median over rounds),
    `.ms` are medians per call; a layer that did not run reports 0."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s.id)
    rounds = defaultdict(lambda: defaultdict(float))
    per_call = defaultdict(list)
    for s in spans:
        name, parent = s.name, spans[s.parent] if s.parent is not None else None
        if s.run == ORACLE_RUN:
            if name == "oracle.iterated_sum":
                per_call["oracle.iterated_sum.ms"].append(s.seconds * 1e3)
            continue
        r = rounds[s.run]
        if name == "basis.eval_table":
            r["basis.eval_table.s"] += s.seconds
            r["basis.eval_table.points"] += s.attrs["points"]
        elif name == "quadrature.adaptive":
            r["quadrature.grid_evals"] += s.attrs["grid_evals"]
            r["quadrature.panels"] += s.attrs["panels"]
        elif name == "quadrature.offgrid":
            r["quadrature.offgrid_points"] += s.attrs["points"]
            if parent is None or parent.name != name:  # nested primitives are inside it
                r["quadrature.offgrid.s"] += s.seconds
        elif name == "kernel.coeff_tensor":
            # adaptive's own frame runs the kernel's grid callback: kernel work
            r[f"kernel.coeff_tensor.k{s.attrs['k']}.s"] += _self_seconds(
                s, spans, kids, transparent=("quadrature.adaptive",))
        elif name == "kernel.kernel_norm_sq":
            r["kernel.kernel_norm_sq.s"] += s.seconds
        elif name in SAMPLERS:
            per_call["drivers.sample.ms"].append(s.seconds * 1e3)
            r["drivers.rng_draws"] += s.attrs["rng_draws"]
            r["drivers.jumps"] += s.attrs.get("jumps", 0)
            r["harness.trial_passes"] += 1
        elif name == "drivers.interval_measures":
            per_call["drivers.interval_measures.ms"].append(s.seconds * 1e3)
        elif name == "expansions.expand":
            per_call[f"expansions.expand.{s.attrs['mode']}.ms"].append(s.seconds * 1e3)
            r["expansions.expand.calls"] += 1
        elif name in ("expansions.poisson_variables", "oracle.gk_correction_tensor",
                      "oracle.slot_increments"):
            per_call[name + ".ms"].append(s.seconds * 1e3)
        elif name == "harness.run_experiment":
            r["harness.self.s"] += _self_seconds(s, spans, kids)
        elif name == "cli.main":
            r["cli.self.s"] += _self_seconds(s, spans, kids)
    for r in rounds.values():
        if r["harness.trial_passes"]:
            r["harness.self.ms_per_trial"] = r["harness.self.s"] / r["harness.trial_passes"] * 1e3
    names = (["basis.eval_table.s", "basis.eval_table.points", "quadrature.grid_evals",
              "quadrature.panels", "quadrature.offgrid_points", "quadrature.offgrid.s",
              "kernel.coeff_tensor.k2.s", "kernel.coeff_tensor.k3.s",
              "kernel.coeff_tensor.k4.s", "kernel.kernel_norm_sq.s",
              "drivers.rng_draws", "drivers.jumps", "expansions.expand.calls",
              "harness.self.s", "harness.self.ms_per_trial", "harness.trial_passes",
              "cli.self.s"])
    out = {n: statistics.median(r[n] for r in rounds.values()) if rounds else 0.0
           for n in names}
    for n in ("drivers.sample.ms", "drivers.interval_measures.ms",
              *(f"expansions.expand.{m}.ms" for m in EXPAND_MODES),
              "expansions.poisson_variables.ms", "oracle.gk_correction_tensor.ms",
              "oracle.slot_increments.ms", "oracle.iterated_sum.ms"):
        out[n] = statistics.median(per_call[n]) if per_call[n] else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
