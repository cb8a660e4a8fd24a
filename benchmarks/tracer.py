"""Layer spans recorded from outside the library.

`Tracer.install` wraps public functions of the tljones modules and rebinds
every name that refers to them, in every tljones module: after
`from .pathmodel import global_gate`, both `pathmodel.global_gate` and
`evaluation.global_gate` must be replaced, or calls through the second name
go unseen. Each wrapper is labelled by the module that defines the function,
so one function imported in three places is one layer.

Three kinds of wrapper:

- span: records (invocation, id, parent, label, start, end, self time);
- leaf: a hot function called ~10^5 times per invocation. Only its call count
  and total time are kept per invocation, but its time still counts as child
  time of the enclosing span, so self times stay exact;
- count: call counts only (LaurentPoly arithmetic, called ~10^6 times).

Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import sys
import time
from typing import Callable

CHECK_SUITES = (
    "check_tl_relations",
    "check_trace_axioms",
    "check_representation",
    "check_trace_compatibility",
    "check_oracle_equivalence",
    "check_knot_sanity",
)

# (defining module, function, kind); "Class.method" patches the class.
TRACED = (
    ("cli", "main", "span"),
    ("pathmodel", "enumerate_paths", "span"),
    ("pathmodel", "braid_gen_unitary", "span"),
    ("pathmodel", "global_gate", "span"),
    ("evaluation", "build_gates", "span"),
    ("evaluation", "weighted_trace", "span"),
    ("evaluation", "jones_value_exact", "span"),
    ("tl", "jones_rep", "span"),
    ("tl", "markov_trace", "span"),
    ("tl", "stack_matchings", "leaf"),
    ("laurent", "LaurentPoly.__mul__", "count"),
    ("laurent", "LaurentPoly.div_exact", "count"),
    ("sampling", "sample_jones_value", "span"),
    ("sampling", "bit_stream", "leaf"),
    ("sampling", "forced_bracket", "count"),
) + tuple(("checks", suite, "span") for suite in CHECK_SUITES)


@dataclasses.dataclass
class Span:
    invocation: int
    id: int
    parent: int | None
    label: str
    start: float
    end: float
    self_s: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class _Frame:
    id: int
    child_s: float = 0.0


class Tracer:
    """Collects spans, leaf totals and counters for one traced phase."""

    def __init__(self):
        self.invocation = -1
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int, str], list] = collections.defaultdict(lambda: [0, 0.0])
        self.counts: collections.Counter = collections.Counter()
        self.gauges: dict[str, float] = collections.defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._walks = self._forced = 0

    # ---------------------------------------------------------------- wrappers

    def _span(self, label: str, fn: Callable, hook: Callable | None) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(self._next_id)
            self._next_id += 1
            parent = stack[-1].id if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += end - start
                spans.append(Span(self.invocation, frame.id, parent, label, start, end,
                                  end - start - frame.child_s))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _leaf(self, label: str, fn: Callable, hook: Callable | None) -> Callable:
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack:
                    stack[-1].child_s += elapsed
                total = leaves[(self.invocation, label)]
                total[0] += 1
                total[1] += elapsed

        return wrapper

    def _count(self, label: str, fn: Callable, hook: Callable | None) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                counts[label + ".raised"] += 1
                raise
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # ------------------------------------------------------ derived quantities

    def _after_enumerate_paths(self, args, basis) -> None:
        self.gauges["pathmodel.dim_max"] = max(self.gauges["pathmodel.dim_max"], max(basis.sector_dims().values()))

    def _after_global_gate(self, args, op) -> None:
        # complex matmul: 8 real flops per multiply-add, one dim^3 product per letter
        self.gauges["pathmodel.gate_flops"] += len(args[1].letters) * 8 * op.dim**3

    def _after_build_gates(self, args, gates) -> None:
        # every sector's whole-word gate is held at once, and the largest one
        # is formed with two more operands of its size (letter gate, product)
        sizes = [op.matrix.nbytes for op in gates.values()]
        held = sum(sizes) + 2 * max(sizes, default=0)
        self.gauges["pathmodel.gate_bytes_peak"] = max(self.gauges["pathmodel.gate_bytes_peak"], held)

    def _after_jones_rep(self, args, element) -> None:
        self.gauges["tl.image_terms_max"] = max(self.gauges["tl.image_terms_max"], len(element.terms))

    def _after_forced_bracket(self, args, forced) -> None:
        self._walks += 1
        self._forced += forced is not None

    def _after_sample_jones_value(self, args, result) -> None:
        self.gauges["sampling.shots"] += 2 * result.iterations * (self._walks - self._forced)
        self.gauges["sampling.walks"] += self._walks
        self.gauges["sampling.forced"] += self._forced
        self._walks = self._forced = 0

    def _after_check(self, args, report) -> None:
        self.gauges["checks.cases"] += report.cases

    # ------------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every function in TRACED and rebind each name bound to it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "tljones" or name.startswith("tljones.")]
        kinds = {"span": self._span, "leaf": self._leaf, "count": self._count}
        for module_name, qualname, kind in TRACED:
            module = importlib.import_module(f"tljones.{module_name}")
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{qualname}")
                continue
            label = f"{module_name}.{attr.strip('_')}"
            hook = getattr(self, f"_after_{attr}", None)
            if module_name == "checks":
                hook = self._after_check
            wrapper = kinds[kind](label, original, hook)
            targets = [owner] if owner is not module else modules
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._restore.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # --------------------------------------------------------------- reporting

    def leaf_totals(self, invocation: int | None = None) -> dict[str, list]:
        out: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
        for (inv, label), (calls, seconds) in self.leaves.items():
            if invocation is None or inv == invocation:
                out[label][0] += calls
                out[label][1] += seconds
        return out

    def span_records(self) -> list[dict]:
        return [dataclasses.asdict(span) for span in self.spans]
