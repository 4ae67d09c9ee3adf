"""Span tracing from outside the program, and the statistics the bench reports.

The tracer wraps topochain's public functions at every module binding that
refers to them (``from .circuit import hoppings`` makes a second binding in
``spectral``), so calls made between modules are caught as well as calls
made by the bench.  Spans are kept in memory as flat records and reduced to
per-function totals and self times when the run ends.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# functions timed as spans, by defining module; every public function the
# cli command functions call is here, so a cmd_* span's self time is only
# its own formatting and writing
SPANNED = {
    "spectral": ("band_trace", "natural_frequencies", "eigendecompose",
                 "branch_effective_matrix", "bulk_gap", "lambda_spectrum"),
    "topology": ("winding_per_branch", "winding_number", "winding_quadrature",
                 "skin_effect_present", "classify_states", "center_of_mass_shift",
                 "perturb_chain", "compare_perturbed"),
    "transient": ("simulate", "assemble_state_space", "ground_current_profile",
                  "fit_damped_oscillation"),
    "cli": ("run_command", "cmd_sweep", "cmd_eigvecs", "cmd_transient"),
}
# per-sample scalar functions: called thousands of times per operation, so
# they are counted, not timed
COUNTED = {"circuit": ("hoppings", "lambda_diag")}
MODULES = ("circuit", "spectral", "topology", "transient", "netlist", "params", "cli")


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    start: float
    end: float = math.nan


def self_times(spans: list[Span]) -> tuple[Counter, Counter]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest without overlap, so the children
    cover exactly that much of the parent's interval.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    total, own = Counter(), Counter()
    for i, sp in enumerate(spans):
        total[sp.name] += sp.end - sp.start
        own[sp.name] += sp.end - sp.start - child[i]
    return total, own


def tail_percentile(values, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0),
                    beyond: int = 10):
    """Highest ladder percentile with at least `beyond` samples above it.

    Returns (percentile, nearest-rank value, sample count), or None when
    the samples are too few for even the median to qualify.
    """
    xs = sorted(values)
    n = len(xs)
    for p in ladder:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1], n
    return None


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()   # filled by observers
        self._stack: list[int] = []

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "topology.winding_per_branch":
            self.counts["winding.attempted"] += len(args[1].branches)
            self.counts["winding.certified"] += len(result)
        elif name == "transient.simulate":
            setup = args[0]
            self.counts["simulate.steps"] += round(result.times[-1] / setup.dt)
            self.counts["simulate.samples"] += len(result.times)
        elif name == "transient.assemble_state_space":
            self.counts["state_dim"] = max(self.counts["state_dim"], result.dimension)

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            sp = Span(name, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(sp)
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        import importlib
        pkg = importlib.import_module("topochain")
        mods = [pkg] + [importlib.import_module(f"topochain.{m}") for m in MODULES]
        saved = []
        try:
            for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
                for mod_name, names in table.items():
                    home = importlib.import_module(f"topochain.{mod_name}")
                    for fn_name in names:
                        original = getattr(home, fn_name)
                        wrapper = make(f"{mod_name}.{fn_name}", original)
                        for mod in mods:
                            for attr, value in list(vars(mod).items()):
                                if value is original:
                                    saved.append((mod, attr, original))
                                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
