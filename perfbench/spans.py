"""Span recorder for the traced run.

Wraps the public functions of each delaycontrol module from outside the
package: every module that bound a function by name gets the wrapper, so
calls are seen wherever they come from.  Spans (name, start, end, parent,
thread id) stay in memory until the run ends; coefficient evaluations are
too many and too short for spans and are only counted and timed.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
import warnings
from collections import defaultdict
from typing import Dict, List, Tuple

Span = Tuple[int, str, float, float, int, int]  # id, name, start, end, parent, thread


class Recorder:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str, on_result=None):
        """Record a span around every call of fn; on_result(args, kwargs, result) may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to whatever the main thread is inside
            owner = stack if stack else self._main_stack
            parent = owner[-1] if owner else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def timed(self, fn, name: str):
        """Count and time calls of fn without recording spans."""

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts[name + "_calls"] += 1
                    self.counts[name + "_s"] += elapsed

        return counted

    def add(self, key: str, value: float):
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)


def _rebind(modules, attr: str, wrapper_for):
    """Replace attr in every module that bound the same object by name."""
    original = getattr(modules[0], attr)
    wrapper = wrapper_for(original)
    for mod in modules:
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def install(rec: Recorder):
    """Patch delaycontrol's public functions with span-recording wrappers."""
    from delaycontrol import adjoint, bsde, cli, coeffs, connect, hjb, smdde, variational

    mods = (cli, connect, variational, adjoint, bsde, smdde, hjb, coeffs)

    def span(attr, name, source, on_result=None):
        _rebind((source,) + mods, attr, lambda fn: rec.wrap(fn, name, on_result))

    def on_simulate(args, kwargs, bundle):
        n_paths, n_cols = bundle.X.shape
        rec.add("smdde.path_steps", n_paths * bundle.grid.n_steps)
        rec.add("smdde.diverged_paths", int(bundle.diverged.sum()))
        # computed, not measured: 8-byte floats in X, X1 and dW
        cols = n_cols + bundle.X1.shape[1] + (bundle.dW.shape[1] if bundle.dW is not None else 0)
        rec.peak("smdde.state_bytes", n_paths * cols * 8)

    def on_hjb(args, kwargs, vgrid):
        rec.add("hjb.control_evals", (len(vgrid.times) - 1) * len(vgrid.xs)
                * len(vgrid.x1s) * len(args[1].points()))

    def on_adjoints(args, kwargs, adj):
        rec.peak("adjoint.max_abs_p3", adj.max_abs_p3)

    smdde.NoiseSource.increments = rec.wrap(smdde.NoiseSource.increments, "smdde.noise")
    span("simulate_smdde", "smdde.simulate", smdde, on_simulate)
    span("solve_bsde_lsmc", "bsde.lsmc", bsde)
    span("linear_driver_oracle", "bsde.oracle", bsde)
    span("solve_adjoints", "adjoint.solve", adjoint, on_adjoints)
    span("solve_gamma", "adjoint.gamma", adjoint)
    span("solve_adjoint_p", "adjoint.p_sweep", adjoint)
    span("compute_p3_pathwise", "adjoint.p3", adjoint)
    span("check_sufficient_mp", "adjoint.mp_check", adjoint)
    span("simulate_variation", "variational.variation", variational)
    span("duality_processes", "variational.duality", variational)
    span("solve_hjb", "hjb.solve", hjb, on_hjb)
    span("jet_membership", "hjb.membership", hjb)
    span("verify_optimality", "connect.verify", connect)
    span("load_config", "cli.config", cli)
    for attr in [a for a in vars(cli) if a.startswith(("dump_", "write_"))]:
        span(attr, "cli.write", cli)

    base_regression = bsde.ConditionalRegression

    class CountedRegression(base_regression):
        def __init__(self, *args, **kwargs):
            rec.add("bsde.regressions", 1)
            super().__init__(*args, **kwargs)

    _rebind((bsde, adjoint), "ConditionalRegression", lambda cls: CountedRegression)

    def traced_feedback(fn):
        def feedback_control(*args, **kwargs):
            return rec.wrap(fn(*args, **kwargs), "hjb.feedback")
        return feedback_control

    _rebind((hjb, cli), "feedback_control", traced_feedback)

    def timed_coefficients(fn):
        def make_coefficients(*args, **kwargs):
            cs = fn(*args, **kwargs)
            evaluators = [f.name for f in dataclasses.fields(cs) if callable(getattr(cs, f.name))]
            return dataclasses.replace(cs, **{k: rec.timed(getattr(cs, k), "coeffs.eval")
                                              for k in evaluators})
        return make_coefficients

    _rebind((coeffs, cli), "make_coefficients", timed_coefficients)


class RidgeWarnings(warnings.catch_warnings):
    """Record every warning while active; ridge escalations are counted from it."""

    def __init__(self):
        super().__init__(record=True)

    def __enter__(self):
        self.log = super().__enter__()
        warnings.simplefilter("always")
        return self

    @property
    def escalations(self) -> int:
        return sum(1 for w in self.log if issubclass(w.category, RuntimeWarning)
                   and "ridge increased" in str(w.message))


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo if cur_hi is not None else 0.0)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Busy time per span name (union of its intervals over all threads),
    self times (span minus the part its children cover) and counts."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for sp in rec.spans:
        by_name[sp[1]].append(sp)
        children[sp[4]].append(sp)

    def busy(name):
        return _union((sp[2], sp[3]) for sp in by_name[name])

    def self_time(name):
        total = 0.0
        for sp in by_name[name]:
            kids = [(max(c[2], sp[2]), min(c[3], sp[3])) for c in children[sp[0]]]
            total += (sp[3] - sp[2]) - _union(k for k in kids if k[1] > k[0])
        return total

    def euler_time():
        """simulate_smdde minus its noise, in thread-seconds.  Each chunk draws
        its noise and then steps on the same thread, so a pool thread's chunk
        steps from the end of its noise span to its next noise span, or, for
        its last chunk, to the end of the simulation (an upper bound)."""
        total = 0.0
        for sp in by_name["smdde.simulate"]:
            noise = [c for c in children[sp[0]] if c[1] == "smdde.noise"]
            if all(c[5] == sp[5] for c in noise):
                total += (sp[3] - sp[2]) - _union((c[2], c[3]) for c in noise)
                continue
            per_thread: Dict[int, List[Span]] = defaultdict(list)
            for c in noise:
                per_thread[c[5]].append(c)
            for chunks in per_thread.values():
                chunks.sort(key=lambda c: c[2])
                ends = [c[2] for c in chunks[1:]] + [sp[3]]
                total += sum(end - c[3] for c, end in zip(chunks, ends))
        return total

    hjb_s = busy("hjb.solve")
    c = rec.counts
    return {
        "smdde.noise_s": busy("smdde.noise"),
        "smdde.euler_s": euler_time(),
        "smdde.path_steps": c["smdde.path_steps"],
        "smdde.diverged_paths": c["smdde.diverged_paths"],
        "smdde.state_bytes": c["smdde.state_bytes"],
        "bsde.lsmc_s": busy("bsde.lsmc"),
        "bsde.lsmc_calls": len(by_name["bsde.lsmc"]),
        "bsde.regressions": c["bsde.regressions"],
        "bsde.ridge_escalations": c["bsde.ridge_escalations"],
        "bsde.oracle_s": busy("bsde.oracle"),
        "adjoint.gamma_s": busy("adjoint.gamma"),
        "adjoint.p_sweep_s": busy("adjoint.p_sweep"),
        "adjoint.p3_s": busy("adjoint.p3"),
        "adjoint.solve_s": busy("adjoint.solve"),
        "adjoint.mp_check_s": busy("adjoint.mp_check"),
        "adjoint.max_abs_p3": c["adjoint.max_abs_p3"],
        "variational.variation_s": busy("variational.variation"),
        "variational.variation_calls": len(by_name["variational.variation"]),
        "variational.duality_self_s": self_time("variational.duality"),
        "hjb.solve_s": hjb_s,
        "hjb.control_evals": c["hjb.control_evals"],
        "hjb.evals_per_s": c["hjb.control_evals"] / hjb_s if hjb_s > 0 else 0.0,
        "hjb.feedback_s": busy("hjb.feedback"),
        "hjb.membership_s": busy("hjb.membership"),
        "hjb.membership_calls": len(by_name["hjb.membership"]),
        "connect.verify_self_s": self_time("connect.verify"),
        "coeffs.eval_calls": c["coeffs.eval_calls"],
        "coeffs.eval_s": c["coeffs.eval_s"],
        "cli.write_s": busy("cli.write"),
        "cli.config_s": busy("cli.config"),
    }
