"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the `sramyield` modules from outside
the program: a wrapper records a span (layer key, start, end, parent) around
each call and, for some layers, a work count taken from the arguments or the
result. A wrapper is installed at every place its function is bound, because
modules import each other's functions by name (`cli` binds `run_access_mc`,
`mc` binds `delta_v_closed`, and so on). Nothing here changes arguments or
results.

`devices` has no public function on a hot path: its kernel runs inside the
RK4 loops, so it is measured through the `transients.*_ode` spans.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lanes(args, kwargs, result):
    return int(np.size(result)), None


def _draw(args, kwargs, result):
    start, count = _arg(args, kwargs, 1, "start"), _arg(args, kwargs, 2, "count")
    return int(count), int(start)


def _export_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "vth_n")), None


def _write_ode(args, kwargs, result):
    return int(np.size(result)), int(np.count_nonzero(np.isinf(result)))


def _fit_iterations(args, kwargs, result):
    return 1, int(result.iterations)


# (module, attribute, span key, work counter). An attribute "Class.method" is
# wrapped on the class; a plain function is rebound in every sramyield module
# that holds it.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "Run.finish", "cli.manifest", None),
    ("mc", "draw_access_samples", "mc.draw_access", _draw),
    ("mc", "draw_write_samples", "mc.draw_write", _draw),
    ("mc", "export_samples", "mc.export", _export_rows),
    ("mc", "run_access_mc", "mc.run", None),
    ("mc", "run_write_mc", "mc.run", None),
    ("mc", "access_samples", "mc.run", None),
    ("mc", "write_samples", "mc.run", None),
    ("mc", "characterize_access", "mc.characterize", None),
    ("mc", "characterize_write", "mc.characterize", None),
    ("transients", "delta_v_closed", "transients.closed", _lanes),
    ("transients", "write_time_closed", "transients.closed", _lanes),
    ("transients", "delta_v_ode", "transients.delta_v_ode", _lanes),
    ("transients", "write_time_ode", "transients.write_time_ode", _write_ode),
    ("transients", "CellConfig.__post_init__", "transients.cell_build", None),
    ("yieldmodel", "access_fail_prob_ber", "yieldmodel.ber", None),
    ("yieldmodel", "invert_for_constraint", "yieldmodel.invert", None),
    ("yieldmodel", "auto_read_grid", "yieldmodel.grid", None),
    ("yieldmodel", "estimate_delta_params", "yieldmodel.estimate", None),
    ("yieldmodel", "estimate_write_params", "yieldmodel.estimate", None),
    ("fitting", "read_iv_csv", "fitting.read_iv", None),
    ("fitting", "fit_device", "fitting.fit", _fit_iterations),
)

# Field positions of a span record.
KEY, START, END, PARENT, WORK, EXTRA = range(6)


class Tracer:
    """Records spans of the calls into the wrapped functions.

    Spans live in memory as lists [key, start, end, parent, work, extra].
    A span opened in a worker thread with no open span of its own takes the
    innermost open span of the main thread as its parent: the workbench
    starts worker threads only from inside an MC call of the main thread.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, key, work):
        spans, lock, main_stack = self.spans, self._lock, self._main_stack

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            rec = [key, 0.0, 0.0, parent, 1, None]
            with lock:
                idx = len(spans)
                spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[WORK], rec[EXTRA] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        """Wrap every target at every place it is bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sramyield" or name.startswith("sramyield."))]
        for mod_name, attr, key, work in TARGETS:
            mod = sys.modules[f"sramyield.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, key, work))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(orig, key, work)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, name, orig))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def reset(self):
        self.spans.clear()


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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


def _distinct(intervals):
    """Number of distinct integers covered by half-open [start, stop) ranges."""
    return int(_covered([(float(a), float(b)) for a, b in intervals], -np.inf, np.inf))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass whose commands took `wall` seconds.

    Every `*_s` time is a self time: the span's duration minus the part of
    it that its child spans cover. Spans of parallel worker threads can
    overlap each other, so their self times add up to busy time, which can
    exceed wall time.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    self_s, calls, work, extra = Counter(), Counter(), Counter(), Counter()
    for i, rec in enumerate(spans):
        key = rec[KEY]
        self_s[key] += rec[END] - rec[START] - _covered(children[i], rec[START], rec[END])
        calls[key] += 1
        work[key] += rec[WORK]
        if key in ("transients.write_time_ode", "fitting.fit"):
            extra[key] += rec[EXTRA]

    # Distinct (role, index) draws, per command: caching across commands
    # would not help a user, who runs each command in its own process.
    root = {}
    for i, rec in enumerate(spans):
        root[i] = i if rec[PARENT] < 0 else root[rec[PARENT]]
    ranges = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[KEY] in ("mc.draw_access", "mc.draw_write"):
            ranges[(root[i], rec[KEY])].append((rec[EXTRA], rec[EXTRA] + rec[WORK]))
    distinct = sum(_distinct(r) for r in ranges.values())

    # Root-find iterations: BER evaluations per inversion that evaluates the
    # BER at all (write inversions are closed form).
    ber_parents = Counter(rec[PARENT] for rec in spans if rec[KEY] == "yieldmodel.ber"
                          and rec[PARENT] >= 0 and spans[rec[PARENT]][KEY] == "yieldmodel.invert")
    top = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)
    draws = work["mc.draw_access"] + work["mc.draw_write"]
    draw_s = self_s["mc.draw_access"] + self_s["mc.draw_write"]
    ode_s = self_s["transients.delta_v_ode"] + self_s["transients.write_time_ode"]
    ode_lanes = work["transients.delta_v_ode"] + work["transients.write_time_ode"]
    return {
        "cli.self_s": self_s["cli.main"],
        "cli.commands": calls["cli.main"],
        "cli.manifest_s": self_s["cli.manifest"],
        "mc.draw_access_s": self_s["mc.draw_access"],
        "mc.draw_write_s": self_s["mc.draw_write"],
        "mc.draw_samples": draws,
        "mc.draw_ns_per_sample": _ratio(draw_s, draws, 1e9),
        "mc.unique_draw_ratio": _ratio(distinct, draws),
        "mc.export_s": self_s["mc.export"],
        "mc.export_rows": work["mc.export"],
        "mc.export_us_per_row": _ratio(self_s["mc.export"], work["mc.export"], 1e6),
        "mc.run_self_s": self_s["mc.run"],
        "mc.characterize_self_s": self_s["mc.characterize"],
        "transients.closed_s": self_s["transients.closed"],
        "transients.closed_lanes": work["transients.closed"],
        "transients.closed_ns_per_lane": _ratio(self_s["transients.closed"],
                                                work["transients.closed"], 1e9),
        "transients.delta_v_ode_s": self_s["transients.delta_v_ode"],
        "transients.delta_v_ode_lanes": work["transients.delta_v_ode"],
        "transients.write_time_ode_s": self_s["transients.write_time_ode"],
        "transients.write_time_ode_lanes": work["transients.write_time_ode"],
        "transients.ode_us_per_lane": _ratio(ode_s, ode_lanes, 1e6),
        "transients.write_censored": extra["transients.write_time_ode"],
        "transients.cell_build_s": self_s["transients.cell_build"],
        "transients.cell_builds": calls["transients.cell_build"],
        "transients.cell_build_ms": _ratio(self_s["transients.cell_build"],
                                           calls["transients.cell_build"], 1e3),
        "yieldmodel.ber_s": self_s["yieldmodel.ber"],
        "yieldmodel.ber_calls": calls["yieldmodel.ber"],
        "yieldmodel.invert_self_s": self_s["yieldmodel.invert"],
        "yieldmodel.invert_calls": calls["yieldmodel.invert"],
        "yieldmodel.ber_calls_per_invert": _ratio(sum(ber_parents.values()), len(ber_parents)),
        "yieldmodel.grid_s": self_s["yieldmodel.grid"],
        "yieldmodel.estimate_s": self_s["yieldmodel.estimate"],
        "fitting.read_iv_s": self_s["fitting.read_iv"],
        "fitting.fit_s": self_s["fitting.fit"],
        "fitting.fit_iterations": extra["fitting.fit"],
        "trace.uncovered_s": wall - top,
    }, calls
