"""Span recording around bubbletower's layer boundaries, from outside the library.

``install(tracer)`` replaces the public functions of each layer, wherever a
bubbletower module holds a reference to them, with wrappers that record a
span (name, start, end, parent, thread) and a few counters; ``uninstall``
puts the originals back, so untraced runs carry no instrumentation.
``layer_metrics`` derives the per-layer metrics from the recorded spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# (module = layer, attribute, span name).  A dotted attribute is a method.
TARGETS = [
    ("quadrature", "energy_constants", "quadrature.energy_constants"),
    ("quadrature", "integrate_line", "quadrature.integrate_line"),
    ("reduced_model", "critical_scales", "reduced_model.critical_scales"),
    ("reduced_model", "spike_locations", "reduced_model.spike_locations"),
    ("reduced_model", "predicted_tower", "reduced_model.predicted_tower"),
    ("reduced_model", "energy_expansion", "reduced_model.energy_expansion"),
    ("field", "tower_ansatz", "field.tower_ansatz"),
    ("field", "nonlinear_remainder", "field.nonlinear_remainder"),
    ("field", "full_operator", "field.full_operator"),
    ("field", "linearized_matrix", "field.linearized_matrix"),
    ("field", "energy", "field.energy"),
    ("field", "star_norm", "field.star_norm"),
    ("field", "ansatz_residual", "field.ansatz_residual"),
    ("reduction", "ProjectedSolver.__init__", "reduction.factor"),
    ("reduction", "ProjectedSolver.solve_values", "reduction.solve"),
    ("reduction", "solve_correction", "reduction.solve_correction"),
    ("reduction", "solve_reduced", "reduction.solve_reduced"),
    ("reduction", "assemble_solution", "reduction.assemble_solution"),
    ("verifier", "find_tower", "verifier.find_tower"),
    ("verifier", "shoot", "verifier.shoot"),
    ("verifier", "solve_ivp", "verifier.solve_ivp"),
    ("verifier", "compare", "verifier.compare"),
]

CLI_SPAN = "cli.main"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: str


class Tracer:
    """Thread-safe in-memory span and counter store.

    A span opened on a thread with no open span of its own (a worker of the
    ``sweep`` pool) takes the innermost open ``cli.main`` span as parent.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        if name == CLI_SPAN:
            self._root = sid
        return (sid, name, layer, parent, time.perf_counter())

    def end(self, token) -> None:
        t1 = time.perf_counter()
        sid, name, layer, parent, t0 = token
        self._stack().pop()
        if name == CLI_SPAN:
            self._root = parent
        span = Span(sid, name, layer, t0, t1, parent, threading.current_thread().name)
        with self._lock:
            self.spans.append(span)

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[counter] += amount

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        token = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(token)

    def dump(self) -> dict:
        with self._lock:
            return {"spans": [s.__dict__ for s in self.spans],
                    "counts": dict(self.counts), "maxima": dict(self.maxima)}


def _after_hook(tracer: Tracer, name: str):
    """Counters read from a call's arguments and result, per span name."""
    if name == "reduction.factor":
        def hook(args, result):
            lu = getattr(args[0], "_lu", None)
            if lu is not None and hasattr(lu, "L"):
                tracer.observe_max("factor_nnz", float(lu.L.nnz + lu.U.nnz))
        return hook
    if name == "reduction.solve_correction":
        def hook(args, result):
            tracer.add("picard_iters", result.iterations)
        return hook
    if name == "verifier.solve_ivp":
        def hook(args, result):
            tracer.add("rhs_evals", result.nfev)
        return hook
    return None


def _wrap(tracer: Tracer, func, name: str, layer: str):
    hook = _after_hook(tracer, name)
    counting = name == "quadrature.integrate_line"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if counting:                  # count the integrand evaluations
            f, evals = args[0], [0]

            def counted(x):
                evals[0] += 1
                return f(x)
            args = (counted,) + args[1:]
        with tracer.span(name, layer):
            result = func(*args, **kwargs)
        if counting:
            tracer.add("integrand_evals", evals[0])
        if hook is not None:
            hook(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns the (owner, attribute, original) undo list."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "bubbletower" or n.startswith("bubbletower."))]
    for layer, attr, name in TARGETS:
        module = sys.modules[f"bubbletower.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(tracer, orig, name, layer))
            continue
        orig = getattr(module, attr)
        wrapper = _wrap(tracer, orig, name, layer)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer times and counts for one traced pass (see perfbench/README.md)."""
    spans = list(tracer.spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def incl(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_of(pred):
        return sum(own[s.id] for s in spans if pred(s))

    corrections = calls("reduction.solve_correction")
    # a "solve" is one solve_reduced, or one correction the CLI calls directly
    entries = calls("reduction.solve_reduced") + sum(
        1 for s in spans if s.name == "reduction.solve_correction"
        and s.parent is not None and by_id[s.parent].name == CLI_SPAN)
    shots = calls("verifier.shoot")
    cli_wall = incl(CLI_SPAN)
    library_busy = sum(s.end - s.start for s in spans
                       if s.name != CLI_SPAN and s.parent is not None
                       and by_id[s.parent].name == CLI_SPAN)
    counts = tracer.counts
    return {
        "quadrature.constants_calls": calls("quadrature.energy_constants"),
        "quadrature.constants_s": incl("quadrature.energy_constants"),
        "quadrature.integrand_evals": counts["integrand_evals"],
        "reduced_model.s": self_of(lambda s: s.layer == "reduced_model"),
        "field.s": self_of(lambda s: s.layer == "field"),
        "field.tower_ansatz_calls": calls("field.tower_ansatz"),
        "reduction.factor_calls": calls("reduction.factor"),
        "reduction.factor_s": self_of(lambda s: s.name == "reduction.factor"),
        "reduction.factor_nnz": tracer.maxima["factor_nnz"],
        "reduction.solve_calls": calls("reduction.solve"),
        "reduction.solve_s": self_of(lambda s: s.name == "reduction.solve"),
        "reduction.corrections": corrections,
        "reduction.picard_iters": counts["picard_iters"],
        "reduction.corrections_per_solve": corrections / entries if entries else 0.0,
        "reduction.solve_reduced_s": incl("reduction.solve_reduced"),
        "reduction.assemble_s": incl("reduction.assemble_solution"),
        "verifier.shots": shots,
        "verifier.rhs_evals": counts["rhs_evals"],
        "verifier.rhs_evals_per_shot": counts["rhs_evals"] / shots if shots else 0.0,
        "verifier.ivp_s": incl("verifier.solve_ivp"),
        "verifier.find_tower_s": incl("verifier.find_tower"),
        "verifier.compare_s": incl("verifier.compare"),
        "cli.s": self_of(lambda s: s.name == CLI_SPAN),
        "cli.busy_ratio": library_busy / cli_wall if cli_wall else 0.0,
    }
