"""Spans and counters recorded around calls into each library module.

The evaluators bind the functions they call at import
(``from ._kernels import contract``), so a wrapper replaces the name in every
module that holds it, not only where it is defined.  A name that a later
change removes is skipped: the metrics of its layer are reported as missing
and the run goes on.

Every span adds its self time (its duration minus the time of the spans it
encloses) to its layer, so the self times of all layers partition the traced
time.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "halfline_bethe"


def _cells(counts, args, kwargs, out):
    counts["kernels.contract.cells"] += math.prod(len(v) for v in args[0])


def _states(counts, args, kwargs, out):
    counts["oracles.states"] += len(out.states)


def _trials(counts, args, kwargs, out):
    counts["kernels.gillespie.trials"] += args[6] if len(args) > 6 else kwargs["trials"]


def _levels(counts, args, kwargs, out):
    counts["contour_quad.levels"] += len(out)
    counts["contour_quad.points"] += out[-1][0]


#: (function, modules that bind it, layer, counter, timed).  An untimed entry
#: only counts: adaptive_trace calls back into the evaluator, so a span around
#: it would take the evaluator's own time.
WRAPS = (
    ("contract", ("_kernels", "asep_exact", "bose_exact"), "kernels.contract", _cells, True),
    ("s_asep", ("scattering", "asep_exact"), "scattering", None, True),
    ("s_bose", ("scattering", "bose_exact"), "scattering", None, True),
    ("eps_asep", ("scattering", "asep_exact"), "scattering", None, True),
    ("r_factor", ("scattering", "asep_exact"), "scattering", None, True),
    ("circle_nodes", ("contour_quad", "asep_exact"), "contour_quad.nodes", None, True),
    ("line_nodes", ("contour_quad", "bose_exact"), "contour_quad.nodes", None, True),
    ("adaptive_trace", ("contour_quad", "asep_exact"), "contour_quad", _levels, False),
    ("build_generator", ("oracles",), "oracles.generator", _states, True),
    ("_uniformized_distribution", ("oracles",), "oracles.uniformize", None, True),
    ("gillespie_hits", ("_kernels",), "kernels.gillespie", _trials, True),
    ("enumerate_bn", ("signed_perm", "asep_exact", "bose_exact"), "signed_perm", None, True),
    ("enumerate_sn", ("signed_perm", "asep_exact", "bose_exact"), "signed_perm", None, True),
    ("inversions", ("signed_perm", "asep_exact", "bose_exact", "scattering"),
     "signed_perm", None, True),
)

#: per-layer metric -> (unit, layer whose wrappers feed it, source).  The
#: source is ("self", layer) for self time or ("count", name) for a counter.
#: A layer of None is a span the benchmark opens around each op, always there.
METRICS = {
    "kernels.contract.s": ("s", "kernels.contract", ("self", "kernels.contract")),
    "kernels.contract.calls": ("count", "kernels.contract", ("count", "kernels.contract.calls")),
    "kernels.contract.cells": ("count", "kernels.contract", ("count", "kernels.contract.cells")),
    "scattering.s": ("s", "scattering", ("self", "scattering")),
    "scattering.calls": ("count", "scattering", ("count", "scattering.calls")),
    "asep_exact.self_s": ("s", None, ("self", "asep_exact")),
    "bose_exact.self_s": ("s", None, ("self", "bose_exact")),
    "contour_quad.levels": ("count", "contour_quad", ("count", "contour_quad.levels")),
    "contour_quad.points": ("count", "contour_quad", ("count", "contour_quad.points")),
    "contour_quad.nodes_s": ("s", "contour_quad.nodes", ("self", "contour_quad.nodes")),
    "oracles.self_s": ("s", None, ("self", "oracles")),
    "oracles.generator_s": ("s", "oracles.generator", ("self", "oracles.generator")),
    "oracles.uniformize_s": ("s", "oracles.uniformize", ("self", "oracles.uniformize")),
    "oracles.states": ("count", "oracles.generator", ("count", "oracles.states")),
    "kernels.gillespie.s": ("s", "kernels.gillespie", ("self", "kernels.gillespie")),
    "kernels.gillespie.trials": ("count", "kernels.gillespie",
                                 ("count", "kernels.gillespie.trials")),
}


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._child_s: list[float] = []  # per open span, seconds of its children
        self._undo: list[tuple] = []

    def reset(self):
        self.self_time.clear()
        self.counts.clear()

    def wrap(self, layer: str, fn, counter=None):
        """fn, with a span of `layer` around every call."""

        def traced(*args, **kwargs):
            start = time.perf_counter()
            self._child_s.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_time[layer] += elapsed - self._child_s.pop()
                self.counts[layer + ".calls"] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    def _counted(self, fn, counter):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counter(self.counts, args, kwargs, out)
            return out

        return counted

    @contextmanager
    def installed(self):
        """Replace every name in WRAPS by its wrapper; restore on exit."""
        self.missing = []
        try:
            for name, modules, layer, counter, timed in WRAPS:
                made = {}
                for modname in modules:
                    try:
                        module = importlib.import_module(f"{PACKAGE}.{modname}")
                    except ImportError:
                        continue
                    orig = getattr(module, name, None)
                    if not callable(orig):
                        continue
                    if id(orig) not in made:
                        made[id(orig)] = (self.wrap(layer, orig, counter) if timed
                                          else self._counted(orig, counter))
                    setattr(module, name, made[id(orig)])
                    self._undo.append((module, name, orig))
                    self.wrapped.add(layer)
                if not made:
                    self.missing.append(name)
            yield self
        finally:
            for module, name, orig in reversed(self._undo):
                setattr(module, name, orig)
            self._undo.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round; a metric whose functions are all gone
        has value None and "missing": true."""
        out = {}
        for metric, (unit, layer, (kind, key)) in METRICS.items():
            if layer is not None and layer not in self.wrapped:
                out[metric] = {"value": None, "unit": unit, "missing": True}
                continue
            total = self.self_time[key] if kind == "self" else self.counts[key]
            out[metric] = {"value": total / rounds, "unit": unit}
        return out
