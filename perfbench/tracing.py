"""Span tracing around the package's public functions, from outside.

The tracer replaces a function with a timing wrapper on every module of
the package that binds it, so calls made through a name imported at module
load (``montecarlo.sample_adjacency``) and through a module attribute
(``moments.tree_weight_table``) are both seen.  Spans (name, start, end,
parent, run id) are kept in memory and written out when the run ends.

A layer's ``busy_s`` is the summed wall time of its outermost spans and its
``self_s`` is that time minus the time covered by child spans.  Counts that
repeat exactly (``*.calls``, the computed kernel counts) are kept beside
the spans.  ``moments.extended_binomial`` is called ~10^5 times per
moment table, so it gets a bare call counter instead of a span; its cost
is estimated by ``counter_overhead_per_call`` and reported.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

ROOT = "bench.round"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _n_vertices(args, kwargs) -> int:
    return 2 * int(_arg(args, kwargs, 0, "n")) + 1


def _on_sample(tracer, args, kwargs, result):
    # computed: the N x N int8 adjacency plus the N x N float64 H of a trial
    tracer.counts["percolation.dense_bytes"] += 9 * _n_vertices(args, kwargs) ** 2


def _on_eigensolve(tracer, args, kwargs, result):
    size = _arg(args, kwargs, 0, "h").shape[0]
    tracer.counts["spectra.eigen_n3"] += size**3


def _on_trial(tracer, args, kwargs, result):
    return f"N{_n_vertices(args, kwargs)}"


def _on_walks(tracer, args, kwargs, result):
    tracer.counts["walks.enumerate_tree_walks.walks"] += len(result)


def _cli_span_name(args, kwargs) -> str:
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


# (module, function, span name or None for "<module>.<function>", hook)
SPANS = [
    ("percolation", "sample_adjacency", None, _on_sample),
    ("percolation", "build_h", None, None),
    ("spectra", "eigenvalue_summary", None, _on_eigensolve),
    ("spectra", "neg_log_zeta_density", None, None),
    ("montecarlo", "run_trial", None, _on_trial),
    ("montecarlo", "run_ensemble", None, None),
    ("montecarlo", "convergence_sweep", None, None),
    ("montecarlo", "moment_comparison", None, None),
    ("moments", "tree_weight_table", None, None),
    ("moments", "limit_moments", None, None),
    ("moments", "tree_weight_split", None, None),
    ("moments", "adjacency_weight_table", None, None),
    ("walks", "walk_profile", None, None),
    ("walks", "enumerate_tree_walks", None, _on_walks),
    ("zeta", "series_consistency", None, None),
    ("zeta", "count_closed_paths", None, None),
    ("zeta", "zeta_reciprocal_polynomial", None, None),
    ("limits", "gauss_rule_from_moments", None, None),
    ("limits", "semicircle_moment", None, None),
    ("limits", "log_zeta_limit", None, None),
    ("validate", "run_validation", None, None),
    ("cli", "main", _cli_span_name, None),
]
COUNTED = [("moments", "extended_binomial")]
PACKAGE = "zetaspectra"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, hook=None):
        """Wrap fn so each call records a span; name may be a callable of the arguments."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                record[4] = hook(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        box = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every SPANS/COUNTED target on every package module that binds it.

        Returns the targets the package does not define, which then report 0.
        """
        missing = []
        for module_name, func_name, name, hook in SPANS:
            original = _lookup(module_name, func_name)
            if original is None:
                missing.append(f"{module_name}.{func_name}")
                continue
            _rebind(original, self.span(name or f"{module_name}.{func_name}", original, hook))
        for module_name, func_name in COUNTED:
            original = _lookup(module_name, func_name)
            if original is None:
                missing.append(f"{module_name}.{func_name}")
                continue
            _rebind(original, self.counter(f"{module_name}.{func_name}.calls", original))
        validate = sys.modules.get(f"{PACKAGE}.validate")
        checks = getattr(validate, "ALL_CHECKS", [])
        for i, check in enumerate(checks):  # run_validation iterates this list
            checks[i] = self.span(f"validate.{check.__name__}", check)
        return missing

    def run_root(self, fn, *args):
        return self.span(ROOT, fn)(*args)

    # ---------------------------------------------------------- reduction

    def layer_metrics(self) -> dict:
        """busy_s, self_s, calls per span name, p50_s per tag, plus the counts."""
        spans, children = self.spans, self._child_time()
        busy, self_time, calls = Counter(), Counter(), Counter()
        tagged = defaultdict(list)
        for i, (name, start, end, parent, tag) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - children[i]
            if not self._has_ancestor_named(i, name):
                busy[name] += duration
            if tag is not None:
                tagged[f"{name}.p50_s.{tag}"].append(duration)
        out = {}
        for name in calls:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.calls"] = calls[name]
        for key, durations in tagged.items():
            durations.sort()
            mid = len(durations) // 2
            out[key] = durations[mid] if len(durations) % 2 else 0.5 * (durations[mid - 1] + durations[mid])
        out.update(self.counts)
        return out

    def accounting(self) -> dict:
        """Sum of every span's self time, and whether spans nest properly.

        Self times telescope, so their sum equals the root span's duration
        exactly when every child lies inside its parent and siblings do not
        overlap; a span that escapes its parent breaks the sum.
        """
        spans = self.spans
        nested = True
        last_end = {}
        for i, (name, start, end, parent, tag) in enumerate(spans):
            if end < start:
                nested = False
            if parent >= 0:
                p_start, p_end = spans[parent][1], spans[parent][2]
                if start < p_start or end > p_end or start < last_end.get(parent, p_start):
                    nested = False
                last_end[parent] = end
        children = self._child_time()
        self_sum = sum(end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans))
        return {"self_sum_s": self_sum, "nested": nested, "spans": len(spans)}

    def _child_time(self) -> defaultdict:
        """Span index -> summed duration of its direct children."""
        children = defaultdict(float)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return children

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "tag"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def _lookup(module_name: str, func_name: str):
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    return getattr(module, func_name, None) if module is not None else None


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def counter_overhead_per_call(calls: int = 200_000) -> float:
    """Seconds a counting wrapper adds to one call, measured on a no-op."""

    def target(a, b):
        return 0

    wrapped = Tracer("calibration").counter("x", target)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            target(1, 2)
        t1 = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
