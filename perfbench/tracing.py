"""Span tracer that wraps public quivergrass functions from outside the program.

A traced run replaces every function in ``SPANS`` by a wrapper that records
one span (name, start, end, parent span, item) and, for a few functions, a
count taken from the arguments or the result.  Spans stay in flat arrays in
memory and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct child spans, which nest
because the run is single-threaded.

A function is replaced in every module that binds it (``shuffle`` imports
``symmetrize`` by name, ``cli`` imports ``crosscheck`` and ``load_quiver``),
and a method is replaced on its class.  ``Tracer.uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from math import factorial, prod
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# Span name (``<module>.<attribute path>``) -> the statistics reported for it.
# ``calls``, ``total_s`` and ``self_s`` come from the spans; the ratios and
# ``terms`` counts come from the hooks in ``_HOOKS``.
SPANS: Dict[str, Tuple[str, ...]] = {
    "symalg.MultiPoly.primitive": ("calls", "self_s", "noop_ratio"),
    "symalg.MultiPoly.__mul__": ("calls", "self_s"),
    "symalg.MultiPoly.divide_exact": ("calls", "self_s", "hit_ratio"),
    "symalg.RationalFunction.__init__": ("calls", "self_s"),
    "symalg.RationalFunction.rename": ("calls", "total_s"),
    "symalg.RationalFunction.cancelled": ("calls", "total_s"),
    "symalg.RationalFunction.evaluate": ("calls", "total_s"),
    "symalg.rat_sum": ("calls", "total_s", "self_s", "terms", "numerator_terms"),
    "symalg.symmetrize": ("calls", "total_s", "terms"),
    "symalg.rat_equal": ("calls", "total_s"),
    "fgl.FormalGroupLaw.lambda_char": ("calls", "total_s", "self_s", "repeat_ratio"),
    "thom.crosscheck": ("calls", "total_s", "self_s"),
    "thom.KernelContext.flag_kernel": ("calls", "total_s", "self_s"),
    "thom.KernelContext.appendix_b_kernel": ("calls", "total_s", "self_s"),
    "thom.evaluate_kernel": ("calls", "total_s"),
    "shuffle.shuffle_product": ("calls", "total_s", "self_s"),
    "shuffle.word_product": ("calls", "total_s"),
    "shuffle.monomial_element": ("calls", "total_s"),
    "shuffle.weight_space": ("calls", "total_s"),
    "locality.verify_m_locality": ("calls", "total_s", "self_s"),
    "locality.verify_trivialization": ("calls", "total_s"),
    "locality.pair_check_kernel": ("calls", "total_s", "self_s"),
    "locality.is_m_tau_disjoint": ("calls", "total_s"),
    "fixedpoints.sl2_enumerate": ("total_s",),
    "fixedpoints.carell_chart": ("total_s",),
    "fixedpoints.buchberger": ("calls", "total_s"),
    "fixedpoints.quiver_grass_poincare": ("total_s",),
    "zastava.ind_rank": ("total_s",),
    "zastava.ind_fiber": ("total_s",),
    "quiver.load_quiver": ("calls", "total_s"),
    "cli.main": ("calls", "total_s", "self_s"),
}

# Counts summed over the kernels that flag_kernel and appendix_b_kernel return.
KERNEL_COUNTS = ("thom.kernel_factors", "thom.kernel_records")
OVERHEAD = "trace.overhead_ratio"
ITEM = "item"


def layer_metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{span}.{stat}" for span, stats in SPANS.items() for stat in stats]
    return names + list(KERNEL_COUNTS) + [OVERHEAD]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# -- hooks: counts taken where the work happens ------------------------------------


def _primitive(tracer: "Tracer", args, result) -> None:
    # The input was already primitive exactly when the split-off unit is 1.
    if result[0] == 1:
        tracer.counts["symalg.MultiPoly.primitive.noop"] += 1


def _divide_exact(tracer: "Tracer", args, result) -> None:
    if result is not None:
        tracer.counts["symalg.MultiPoly.divide_exact.hit"] += 1


def _lambda_char(tracer: "Tracer", args, result) -> None:
    key = (args[0], args[1], args[2])  # (law, registry, character)
    if key in tracer.seen_chars:
        tracer.counts["fgl.FormalGroupLaw.lambda_char.repeat"] += 1
    else:
        tracer.seen_chars.add(key)


def _rat_sum(tracer: "Tracer", args, result) -> None:
    tracer.counts["symalg.rat_sum.terms"] += len(args[0])
    tracer.counts["symalg.rat_sum.numerator_terms"] += sum(
        len(p.terms) for p, e in result.factors if e > 0
    )


def _symmetrize(tracer: "Tracer", args, result) -> None:
    # One renamed copy of f per shuffle representative of every color.
    terms = prod(
        factorial(sum(len(b) for b in blocks)) // prod(factorial(len(b)) for b in blocks)
        for blocks in args[1]
    )
    tracer.counts["symalg.symmetrize.terms"] += terms


def _kernel(tracer: "Tracer", args, result) -> None:
    tracer.counts["thom.kernel_records"] += len(result.records)
    tracer.counts["thom.kernel_factors"] += len(result.fn.factors)


_HOOKS: Dict[str, Callable] = {
    "symalg.MultiPoly.primitive": _primitive,
    "symalg.MultiPoly.divide_exact": _divide_exact,
    "fgl.FormalGroupLaw.lambda_char": _lambda_char,
    "symalg.rat_sum": _rat_sum,
    "symalg.symmetrize": _symmetrize,
    "thom.KernelContext.flag_kernel": _kernel,
    "thom.KernelContext.appendix_b_kernel": _kernel,
}

_RATIOS = {
    "noop_ratio": "noop",
    "hit_ratio": "hit",
    "repeat_ratio": "repeat",
}


class Tracer:
    """Records spans in flat arrays; installs and removes the wrappers."""

    def __init__(self):
        self.names: List[str] = [ITEM] + list(SPANS)
        self.starts = array("d")
        self.ends = array("d")
        self.kinds = array("l")
        self.parents = array("l")
        self.items = array("l")
        self.stack: List[int] = [-1]
        self.item = -1
        self.counts: Counter = Counter()
        self.seen_chars: set = set()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, kind: int) -> int:
        idx = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(self.stack[-1])
        self.items.append(self.item)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def run_item(self, index: int, fn: Callable[[], bool]) -> bool:
        """Run one benchmark item under a root span."""
        self.item = index
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = t0
            self.stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        kind = self.names.index(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        open_span = self._open
        starts, ends, stack = self.starts, self.ends, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = open_span(kind)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Replace every target in its class, or in every module that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name in SPANS:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"quivergrass.{module_name}")
            if len(path) == 2:
                owner = getattr(module, path[0])
                original = owner.__dict__[path[1]]
                self._set(owner, path[1], original, self._wrap(name, original))
                continue
            original = getattr(module, path[0])
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s and self_s per span name."""
        n = len(self.kinds)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.kinds[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def layer_metrics(self, summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """The per-layer metrics, except the overhead ratio."""
        out: Dict[str, float] = {}
        for span, stats in SPANS.items():
            row = summary[span]
            for stat in stats:
                if stat in _RATIOS:
                    calls = row["calls"]
                    hits = self.counts[f"{span}.{_RATIOS[stat]}"]
                    out[f"{span}.{stat}"] = hits / calls if calls else 0.0
                elif stat in row:
                    out[f"{span}.{stat}"] = row[stat]
                else:
                    out[f"{span}.{stat}"] = self.counts[f"{span}.{stat}"]
        for name in KERNEL_COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays (``<path>.bin``) described by ``<path>.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("start", self.starts), ("end", self.ends), ("name", self.kinds),
                  ("parent", self.parents), ("item", self.items)]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {
            "spans": len(self.kinds),
            "names": self.names,
            "fields": [{"name": f, "typecode": a.typecode, "itemsize": a.itemsize}
                       for f, a in fields],
            "layout": "each field's array in turn, native byte order",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def self_time_ranking(summary: Dict[str, Dict[str, float]]) -> List[Tuple[str, float, float]]:
    """(span, self_s, share of item time) for every span, largest self time first."""
    item_time = summary[ITEM]["total_s"] or 1.0
    rows = [(name, row["self_s"], row["self_s"] / item_time)
            for name, row in summary.items() if row["calls"]]
    return sorted(rows, key=lambda r: -r[1])
