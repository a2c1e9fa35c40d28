"""Span tracer for the glperiod benchmark.

The tracer wraps module-level functions of glperiod (and numpy.fft's fftn and
ifftn) from outside the package: every reference to a wrapped function in a
``glperiod.*`` module is replaced, so call sites that imported the function
by name are traced too. Each call records a span (name, start, end, parent
span; the parent stack is per thread) in memory, and ``layer_metrics`` turns
the spans into the per-layer numbers the benchmark reports. Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time
from collections import defaultdict

VERIFICATION_CHECKS = (
    "check_projection_completeness",
    "check_low_freq_smoothing",
    "check_period_inverse_bound",
    "check_high_freq_decay",
    "check_bernstein",
    "check_hardy",
    "check_high_freq_weighted_poincare",
    "check_energy_inequality",
    "check_nonlinear_bound",
)

# (module, attribute, span name). A dotted attribute names a method.
TRACED = (
    ("numpy.fft", "fftn", "spectral.fftn"),
    ("numpy.fft", "ifftn", "spectral.ifftn"),
    ("glperiod.spectral", "read_snapshot", "spectral.read_snapshot"),
    ("glperiod.norms", "z_norm", "norms.z_norm"),
    ("glperiod.norms", "forcing_bracket", "norms.forcing_bracket"),
    ("glperiod.norms", "sobolev_norm", "norms.sobolev_norm"),
    ("glperiod.norms", "lp_norm", "norms.lp_norm"),
    ("glperiod.norms", "x_weighted_gradient_norm", "norms.x_weighted_gradient_norm"),
    ("glperiod.periodic_solver", "solve_periodic", "periodic_solver.solve"),
    ("glperiod.periodic_solver", "_cubic_difference_data", "periodic_solver.cubic_difference"),
    ("glperiod.periodic_solver", "_linear_period_map_data", "periodic_solver.period_map"),
    ("glperiod.periodic_solver", "equation_residual", "periodic_solver.equation_residual"),
    ("glperiod.phi", "phi1", "phi.phi1"),
    ("glperiod.phi", "phi2", "phi.phi2"),
    ("glperiod.stability", "run_stability", "stability.run"),
    ("glperiod.stability", "_Stepper.step", "stability.step"),
    ("glperiod.stability", "_rhs_data", "stability.rhs"),
    ("glperiod.verification", "run_all_checks", "verification.run_all_checks"),
    *(("glperiod.verification", name, f"verification.{name}") for name in VERIFICATION_CHECKS),
    ("glperiod.manifest", "sha256_of", "manifest.sha256"),
    ("glperiod.cli", "_sweep_row", "cli.sweep.row"),
)

FFT_SPANS = ("spectral.fftn", "spectral.ifftn")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, info):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = info


def _fft_info(args, kwargs):
    """Computed (not measured) work of one n-d transform call: bytes read
    plus written, and 5 N log2 N flops per transform of N points."""
    a = args[0]
    shape = getattr(a, "shape", ())
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(len(shape)) if axes is None else axes
    n = math.prod(shape[ax] for ax in axes)
    batch = math.prod(shape) // n if n else 0
    flops = batch * 5.0 * n * math.log2(n) if n > 1 else 0.0
    return {"bytes": math.prod(shape) * (a.itemsize + 16), "flops": flops}


def _sha_info(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


_INFO = {"spectral.fftn": _fft_info, "spectral.ifftn": _fft_info,
         "manifest.sha256": _sha_info}


class Tracer:
    """Collects spans from wrapped functions; thread-safe for appends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info_of = _INFO.get(name)
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            info = info_of(args, kwargs) if info_of else None
            span = Span(name, clock(), stack[-1] if stack else None, info)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED that exists; record the rest."""
        for module_name, attr, span_name in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span_name, fn)
            if owner:
                setattr(holder, leaf, wrapped)
            else:
                rebind(fn, wrapped, extra=(module,))


def rebind(old, new, extra=()) -> None:
    """Replace every module-level reference to ``old`` in glperiod modules
    (and in ``extra`` modules) by ``new``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "glperiod" or n.startswith("glperiod."))]
    for module in modules + list(extra):
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced command run.

    ``*.s`` sums span durations, ``*.calls`` counts spans, ``self_s`` is a
    span's duration minus its direct children's, and coverage is the share of
    the command's wall time covered by the union of top-level spans.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent is not None:
            child_time[id(s.parent)] += s.end - s.start

    def self_s(name):
        return sum(s.end - s.start - child_time[id(s)] for s in spans if s.name == name)

    fft = [s for s in spans if s.name in FFT_SPANS]
    steps = sorted((s.end - s.start) * 1e3 for s in spans if s.name == "stability.step")
    top = [(s.start, s.end) for s in spans if s.parent is None]

    m = {
        "spectral.fftn.calls": calls["spectral.fftn"],
        "spectral.fftn.s": total["spectral.fftn"],
        "spectral.ifftn.calls": calls["spectral.ifftn"],
        "spectral.ifftn.s": total["spectral.ifftn"],
        "spectral.fft.bytes_computed": sum(s.info["bytes"] for s in fft),
        "spectral.fft.gflop_computed": sum(s.info["flops"] for s in fft) / 1e9,
        "spectral.read_snapshot.calls": calls["spectral.read_snapshot"],
        "spectral.read_snapshot.s": total["spectral.read_snapshot"],
        "norms.z_norm.calls": calls["norms.z_norm"],
        "norms.z_norm.s": total["norms.z_norm"],
        "norms.z_norm.self_s": self_s("norms.z_norm"),
        "norms.z_norm.fft_s": sum(s.end - s.start for s in fft
                                  if _has_ancestor(s, "norms.z_norm")),
        "norms.forcing_bracket.s": total["norms.forcing_bracket"],
        "norms.sobolev_norm.calls": calls["norms.sobolev_norm"],
        "norms.sobolev_norm.s": total["norms.sobolev_norm"],
        "norms.lp_norm.s": total["norms.lp_norm"],
        "norms.x_weighted_gradient_norm.s": total["norms.x_weighted_gradient_norm"],
        "periodic_solver.solve.s": total["periodic_solver.solve"],
        "periodic_solver.cubic_difference.calls": calls["periodic_solver.cubic_difference"],
        "periodic_solver.cubic_difference.s": total["periodic_solver.cubic_difference"],
        "periodic_solver.period_map.calls": calls["periodic_solver.period_map"],
        "periodic_solver.period_map.s": total["periodic_solver.period_map"],
        "periodic_solver.equation_residual.s": total["periodic_solver.equation_residual"],
        "phi.calls": calls["phi.phi1"] + calls["phi.phi2"],
        "stability.run.s": total["stability.run"],
        "stability.step.calls": calls["stability.step"],
        "stability.step.s": total["stability.step"],
        "stability.step.p50_ms": _percentile(steps, 0.50),
        "stability.step.p99_ms": _percentile(steps, 0.99),
        "stability.rhs.calls": calls["stability.rhs"],
        "stability.rhs.s": total["stability.rhs"],
        "stability.record_other.s": total["stability.run"] - sum(
            s.end - s.start for s in spans
            if s.name == "stability.step" and _has_ancestor(s, "stability.run")),
        "verification.run_all_checks.s": total["verification.run_all_checks"],
        **{f"verification.{name}.s": total[f"verification.{name}"]
           for name in VERIFICATION_CHECKS},
        "manifest.sha256.calls": calls["manifest.sha256"],
        "manifest.sha256.bytes": sum(s.info["bytes"] for s in spans
                                     if s.name == "manifest.sha256"),
        "manifest.sha256.s": total["manifest.sha256"],
        "cli.sweep.row_s_sum": total["cli.sweep.row"],
        "trace.coverage_frac": _union_length(top) / wall_s if wall_s > 0 else 0.0,
    }
    return {k: float(v) for k, v in m.items()}
