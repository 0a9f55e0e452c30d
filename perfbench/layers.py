"""Outside-in layer tracing: spans around horolab's layer functions.

install() replaces selected module functions and methods of horolab with
wrappers that record a span per call (name, start, end, parent) and
counts read from the call's arguments and return value.  horolab's
modules call each other through module attributes (`qt.reduce_stack`,
`sieve.omega_count`, ...), so internal calls go through the wrappers
too.  uninstall() puts the originals back.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans opened in worker threads (the orbit chunk
pool) take the innermost open span of the main thread as their parent,
so per-layer self times are busy times summed over threads.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field

# Per-layer metrics, in report order, with their units.
PER_LAYER = [
    ("quotient.reduce_k1.self_s", "s"),
    ("quotient.reduce_k1.rows_per_s", "rows/s"),
    ("quotient.reduce_k2.self_s", "s"),
    ("quotient.reduce_k2.rows_per_s", "rows/s"),
    ("quotient.reduce.calls", "count"),
    ("quotient.reduce.unconverged_rows", "count"),
    ("quotient.enumerate_gamma.self_s", "s"),
    ("quotient.injectivity_radius.self_s", "s"),
    ("quotient.detect_divergence.self_s", "s"),
    ("sl2.displacement.self_s", "s"),
    ("sampling.orbit.self_s", "s"),
    ("sampling.orbit.chunks", "count"),
    ("sampling.orbit.speedup_2w", "ratio"),
    ("observables.bump_eval.self_s", "s"),
    ("observables.bump_eval.points_per_s", "points/s"),
    ("observables.haar_k1.self_s", "s"),
    ("observables.haar_k2.total_s", "s"),
    ("sieve.u_tilde.self_s", "s"),
    ("sieve.omega.self_s", "s"),
    ("sieve.omega.passes", "count"),
    ("sieve.factor_table.self_s", "s"),
    ("sieve.linear_functions.self_s", "s"),
    ("sieve.bounds.self_s", "s"),
    ("sieve.bounds.divisors", "count"),
    ("experiments.run.self_s", "s"),
    ("experiments.run.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class _Span:
    name: str
    start: float
    parent: "_Span | None"
    children: list = field(default_factory=list)


def _merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Collects spans and counters; one per traced run."""

    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Span] = []
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.largest_orbit = None  # (point, times) of the longest orbit call
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[_Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = _Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def _close(self, span: _Span, name: str):
        end = time.perf_counter()
        self._stack().pop()
        covered = _merged_length(span.children, span.start, end)
        with self._lock:
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - span.start - covered)
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - span.start)

    def count(self, name: str, n: float):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + n

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name, counter=None):
        """Replace owner.attr with a traced wrapper.

        name is a span name or a function of the call's arguments that
        returns one; counter(tracer, args, kwargs, result) records counts.
        A boundary the program no longer has is skipped and listed in
        self.missing, so a refactor that renames it leaves the other
        layers measured.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span, span_name)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer):
    """Wrap the layer boundaries of horolab named in PER_LAYER."""
    from horolab import experiments, observables, quotient, sampling, sieve, sl2

    slab = getattr(sampling, "_SLAB_NODES", None)

    def reduce_name(args, kwargs):
        stack = _arg(args, kwargs, 1, "stack")
        return "quotient.reduce_k1" if stack.shape[1] == 1 else "quotient.reduce_k2"

    def reduce_counts(tr, args, kwargs, result):
        tr.count(reduce_name(args, kwargs) + ".rows", _arg(args, kwargs, 1, "stack").shape[0])
        tr.count("quotient.reduce.calls", 1)
        tr.count("quotient.reduce.unconverged_rows", int((~result[1]).sum()))

    def orbit_counts(pos_p, pos_t):
        def counter(tr, args, kwargs, result):
            p = _arg(args, kwargs, pos_p, "p")
            times = _arg(args, kwargs, pos_t, "times")
            n = len(times)
            tr.count("sampling.orbit.chunks", math.ceil(n / slab) if slab else 1)
            with tr._lock:
                if tr.largest_orbit is None or n > len(tr.largest_orbit[1]):
                    tr.largest_orbit = (p, times)
        return counter

    def bump_points(tr, args, kwargs, result):
        tr.count("observables.bump_eval.points", len(result))

    def omega_pass(tr, args, kwargs, result):
        if getattr(result, "ndim", 0) >= 1:
            tr.count("sieve.omega.passes", 1)

    def divisors(tr, args, kwargs, result):
        tr.count("sieve.bounds.divisors", result.divisor_count)

    wrap = tracer.wrap
    wrap(experiments, "run", "experiments.run")
    wrap(quotient, "reduce_stack", reduce_name, reduce_counts)
    wrap(quotient, "enumerate_gamma", "quotient.enumerate_gamma")
    wrap(quotient, "injectivity_radius", "quotient.injectivity_radius")
    wrap(quotient, "detect_divergence", "quotient.detect_divergence")
    # the displacement kernel: the stack form and the log-branch form it calls
    wrap(quotient, "_stack_displacement", "sl2.displacement")
    wrap(sl2, "displacement_from_identity_batch", "sl2.displacement")
    # the chunked orbit driver and the averages that sum its slabs
    wrap(sampling, "_orbit_values", "sampling.orbit", orbit_counts(1, 2))
    wrap(sampling, "orbit_coordinates", "sampling.orbit", orbit_counts(0, 1))
    wrap(sampling, "horocycle_average", "sampling.orbit")
    wrap(sampling, "sparse_average", "sampling.orbit")
    wrap(observables.BumpFunction, "evaluate_coords", "observables.bump_eval", bump_points)
    wrap(observables, "haar_integral_k1", "observables.haar_k1")
    wrap(observables, "haar_reference_k2", "observables.haar_k2")
    wrap(sieve, "empirical_u_tilde", "sieve.u_tilde")
    wrap(sieve, "omega_count", "sieve.omega", omega_pass)
    wrap(sieve.FactorTable, "omega_all", "sieve.omega", omega_pass)
    wrap(sieve, "build_factor_table", "sieve.factor_table")
    wrap(sieve, "linear_sieve_functions", "sieve.linear_functions")
    wrap(sieve, "sieve_bounds", "sieve.bounds", divisors)
    wrap(sieve, "dynamical_sieve_pipeline", "sieve.pipeline")


def metrics(tracer: Tracer, run_cpu_s: float, speedup_2w: float) -> dict:
    """Every PER_LAYER metric except trace.overhead_s, as name -> value."""
    s, c = tracer.self_s, tracer.counts

    def rate(count_key: str, layer: str) -> float:
        busy = s.get(layer, 0.0)
        return c.get(count_key, 0.0) / busy if busy > 0.0 else 0.0

    out = {
        "quotient.reduce_k1.rows_per_s": rate("quotient.reduce_k1.rows", "quotient.reduce_k1"),
        "quotient.reduce_k2.rows_per_s": rate("quotient.reduce_k2.rows", "quotient.reduce_k2"),
        "observables.bump_eval.points_per_s": rate("observables.bump_eval.points",
                                                   "observables.bump_eval"),
        "observables.haar_k2.total_s": tracer.total_s.get("observables.haar_k2", 0.0),
        "sampling.orbit.speedup_2w": speedup_2w,
        "experiments.run.cpu_s": run_cpu_s,
    }
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        if name.endswith(".self_s"):
            out[name] = s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = c.get(name, 0.0)
    return out
