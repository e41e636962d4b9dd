"""Span tracer for the benchmark's traced run, installed from outside `pcx`.

`Tracer.install()` wraps every public function of the eight layer modules
(`cli`, `numerics`, `beurling`, `pcbounds`, `kernel`, `debranges`, `gaps`,
`zerodata`) and rebinds every name in any `pcx.*` namespace that refers
to one of them, including names imported across modules such as
`pcbounds.find_root`.  It then scans those namespaces and refuses to run
if an unwrapped original is still bound anywhere, so a new import site
cannot silently drop spans.  `uninstall()` restores the originals.

Each call of a wrapped function records a span (name, start, end, parent
span) in flat arrays kept in memory.  A few wrappers also count work at
the boundary: integrand abscissae for quadrature, function evaluations
inside `find_root`, derivative abscissae, kernel evaluation points,
Beurling evaluation points and the nominal n^2 of the dense pair sums.
`metrics()` turns spans and counts into the per-layer metrics; a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "numerics", "beurling", "pcbounds", "kernel", "debranges",
          "gaps", "zerodata")

QUAD = ("numerics.integrate_adaptive", "numerics.integrate_semi_infinite",
        "numerics.integrate_real_line")
BEURLING_EVAL = ("beurling.eval_H0", "beurling.eval_H1", "beurling.eval_r",
                 "beurling.ft_r", "beurling.ft_W", "beurling.sinc")
DENSE_SUMS = ("zerodata.empirical_F", "zerodata.weighted_pair_sum",
              "zerodata.count_pairs_brute")

# name -> unit, in the order they are reported
METRICS = {f"{layer}.self_s": "s" for layer in LAYERS}
METRICS.update({
    "numerics.quad_calls": "count", "numerics.quad_points": "points",
    "numerics.quad_s": "s",
    "numerics.root_calls": "count", "numerics.root_evals": "count",
    "numerics.root_evals_per_root": "evals/root", "numerics.root_s": "s",
    "numerics.deriv_points": "points", "numerics.nonconvergence": "count",
    "pcbounds.m_selberg_calls": "count", "pcbounds.m_selberg_s": "s",
    "pcbounds.conjecture_s": "s",
    "kernel.eval_calls": "count", "kernel.eval_points": "points",
    "kernel.points_per_call": "points/call", "kernel.eval_s": "s",
    "debranges.build_E_s": "s", "debranges.tilt_calls": "count",
    "debranges.tilt_s": "s", "debranges.case3_s": "s",
    "debranges.verify_hb_s": "s", "debranges.quadrature_check_s": "s",
    "gaps.profile_calls": "count", "gaps.profile_s": "s",
    "gaps.threshold_s": "s",
    "beurling.eval_points": "points", "beurling.eval_s": "s",
    "zerodata.load_s": "s", "zerodata.F_calls": "count", "zerodata.F_s": "s",
    "zerodata.nominal_pairs": "pairs", "zerodata.nominal_pairs_per_s": "pairs/s",
    "zerodata.wps_s": "s", "zerodata.count_pairs_s": "s",
    "trace_overhead_frac": "frac",
})


class TraceError(RuntimeError):
    """The tracer could not cover every binding of a wrapped function."""


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield attr, obj


def _pcx_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pcx" or name.startswith("pcx."))]


def _counting(f, counts, key, points):
    def counted(x, *rest):
        counts[key] += np.size(x) if points else 1
        return f(x, *rest)
    return counted


def _first_arg_counter(key, points):
    def hook(tracer, up, args, kwargs):
        if args:
            args = (_counting(args[0], tracer.counts, key, points),) + args[1:]
        elif "f" in kwargs:
            kwargs = dict(kwargs, f=_counting(kwargs["f"], tracer.counts, key, points))
        return args, kwargs
    return hook


def _kernel_points(tracer, up, args, kwargs):
    z = args[1] if len(args) > 1 else kwargs.get("z")
    tracer.counts["kernel.eval_points"] += np.size(z)
    return args, kwargs


def _beurling_points(tracer, up, args, kwargs):
    if up < 0 or tracer.layer_of[tracer.sid[up]] != "beurling":
        tracer.counts["beurling.eval_points"] += max(
            (np.size(a) for a in list(args) + list(kwargs.values())
             if isinstance(a, np.ndarray)), default=1)
    return args, kwargs


def _nominal_pairs(tracer, up, args, kwargs):
    ds, T = args[0], args[1]
    n = int(np.searchsorted(ds.ordinates, T, side="right"))
    tracer.counts["zerodata.nominal_pairs"] += n * n
    return args, kwargs


HOOKS = {
    "numerics.integrate_adaptive": _first_arg_counter("numerics.quad_points", True),
    "numerics.integrate_semi_infinite": _first_arg_counter("numerics.quad_points", True),
    "numerics.find_root": _first_arg_counter("numerics.root_evals", False),
    "numerics.deriv_central": _first_arg_counter("numerics.deriv_points", True),
    "kernel.kernel_eval": _kernel_points,
    **{name: _beurling_points for name in BEURLING_EVAL},
    **{name: _nominal_pairs for name in DENSE_SUMS},
}


class Tracer:
    """Spans and counts for one traced process; install, run, uninstall."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.sid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._bindings = []
        self._failures = []

    def _span_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        sid = self._span_id(name, layer)
        hook = HOOKS.get(name)
        sids, parent, start, end, stack = (self.sid, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            up = stack[-1] if stack else -1
            if hook is not None:
                args, kwargs = hook(tracer, up, args, kwargs)
            idx = len(sids)
            sids.append(sid)
            parent.append(up)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised(layer, exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _raised(self, layer, exc):
        from pcx.numerics import NonConvergence
        if (layer == "numerics" and isinstance(exc, NonConvergence)
                and not any(e is exc for e in self._failures)):
            self._failures.append(exc)
            self.counts["numerics.nonconvergence"] += 1

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pcx.{layer}")
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, attr, fn))
        for module in _pcx_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, obj))
        left = unwrapped_bindings([fn for fn, _ in wrappers.values()])
        if left:
            self.uninstall()
            raise TraceError("unwrapped pcx functions still bound: " + ", ".join(left))

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def metrics(self):
        """Per-layer metrics over every span recorded so far, except
        `trace_overhead_frac`, which compares two processes."""
        sid = np.array(self.sid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        names = np.array(self.names)
        layers = np.array(self.layer_of)
        span_layer = layers[sid]
        span_name = names[sid]

        def outermost(group):
            """Mask of spans in group with no ancestor in group."""
            inside = np.isin(span_name, group)
            nested = np.zeros(len(sid), dtype=bool)
            p = parent.copy()
            while np.any(p >= 0):
                up = p >= 0
                nested[up] |= inside[p[up]]
                p[up] = parent[p[up]]
            return inside & ~nested

        def incl(*group):
            return float(np.sum(dur[outermost(group)]))

        def calls(*group):
            return int(np.count_nonzero(outermost(group)))

        c = self.counts
        m = {f"{layer}.self_s": float(np.sum(self_time[span_layer == layer]))
             for layer in LAYERS}
        root_calls = calls("numerics.find_root")
        kernel_calls = calls("kernel.kernel_eval")
        dense_s = incl(*DENSE_SUMS)
        m.update({
            "numerics.quad_calls": calls(*QUAD),
            "numerics.quad_points": c["numerics.quad_points"],
            "numerics.quad_s": incl(*QUAD),
            "numerics.root_calls": root_calls,
            "numerics.root_evals": c["numerics.root_evals"],
            "numerics.root_evals_per_root":
                c["numerics.root_evals"] / root_calls if root_calls else 0.0,
            "numerics.root_s": incl("numerics.find_root"),
            "numerics.deriv_points": c["numerics.deriv_points"],
            "numerics.nonconvergence": c["numerics.nonconvergence"],
            "pcbounds.m_selberg_calls": calls("pcbounds.m_selberg"),
            "pcbounds.m_selberg_s": incl("pcbounds.m_selberg"),
            "pcbounds.conjecture_s": incl("pcbounds.conjecture_integral"),
            "kernel.eval_calls": kernel_calls,
            "kernel.eval_points": c["kernel.eval_points"],
            "kernel.points_per_call":
                c["kernel.eval_points"] / kernel_calls if kernel_calls else 0.0,
            "kernel.eval_s": incl("kernel.kernel_eval"),
            "debranges.build_E_s": incl("debranges.build_E"),
            "debranges.tilt_calls": calls("debranges.tilt"),
            "debranges.tilt_s": incl("debranges.tilt"),
            "debranges.case3_s": incl("debranges.case3_majorant"),
            "debranges.verify_hb_s": incl("debranges.verify_hb"),
            "debranges.quadrature_check_s": incl("debranges.quadrature_check"),
            "gaps.profile_calls": calls("gaps.lower_bound_profile"),
            "gaps.profile_s": incl("gaps.lower_bound_profile"),
            "gaps.threshold_s": incl("gaps.solve_threshold", "gaps.selberg_threshold"),
            "beurling.eval_points": c["beurling.eval_points"],
            "beurling.eval_s": incl(*BEURLING_EVAL),
            "zerodata.load_s": incl("zerodata.load_zeros"),
            "zerodata.F_calls": calls("zerodata.empirical_F"),
            "zerodata.F_s": incl("zerodata.empirical_F"),
            "zerodata.nominal_pairs": c["zerodata.nominal_pairs"],
            "zerodata.nominal_pairs_per_s":
                c["zerodata.nominal_pairs"] / dense_s if dense_s else 0.0,
            "zerodata.wps_s": incl("zerodata.weighted_pair_sum"),
            "zerodata.count_pairs_s": incl("zerodata.count_pairs",
                                           "zerodata.count_pairs_brute"),
        })
        top = sorted(((float(np.sum(self_time[span_name == n])),
                       int(np.count_nonzero(span_name == n)), n)
                      for n in set(span_name.tolist())), reverse=True)
        return m, [{"span": n, "calls": k, "self_s": s} for s, k, n in top]


def unwrapped_bindings(originals):
    """`module.attr` for every pcx namespace entry still bound to an original."""
    ids = {id(fn) for fn in originals}
    return sorted(f"{module.__name__}.{attr}" for module in _pcx_modules()
                  for attr, obj in vars(module).items() if id(obj) in ids)
