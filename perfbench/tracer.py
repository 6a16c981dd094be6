"""Span tracer that wraps the package's layer functions from outside.

The package modules import each other's functions by name (``exact`` calls
``cdot``, ``mc`` calls ``trial_rng`` and ``sample_shape``, ``asym`` calls
``cgamma``), so each wrapper is installed on the name the caller looks up,
not on the defining module.  A name that no longer exists is recorded as
absent and skipped, so the tracer keeps working when a later change deletes
or renames a function.

Spans are kept in memory as flat arrays (name id, start, end, parent) and
reduced to per-layer metrics when the traced command has returned.  The
stack of open spans is per thread, so spans from worker threads nest under
their own thread's spans.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array

# (module, attribute path, span name).  The span name's prefix before the
# first "." is the layer the time is charged to.
DD_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "sum")
TARGETS = (
    [("triemoments.cli", "main", "cli.main"),
     ("triemoments.exact", "compute", "exact.compute"),
     ("triemoments.exact", "MomentTable.to_csv", "exact.serialise"),
     ("triemoments.exact", "MomentTable.to_json", "exact.serialise"),
     ("triemoments.exact", "cdot", "dd.cdot")]
    + [("triemoments.dd", f"DD.{m}", "dd.op") for m in DD_METHODS]
    + [("triemoments.mc", "trial_rng", "trie.trial_rng"),
       ("triemoments.mc", "sample_shape", "trie.sample_shape"),
       ("triemoments.mc", "run", "mc.driver"),
       ("triemoments.mc", "sample_matrix", "mc.driver"),
       ("triemoments.mc", "whiten", "mc.whiten"),
       ("triemoments.mc", "marginal_diagnostics", "mc.diagnostics"),
       ("triemoments.mc", "invsqrt2", "mc.diagnostics"),
       ("triemoments.asym", "sym_coeffs", "asym.coeffs"),
       ("triemoments.asym", "g2_general", "asym.coeffs"),
       ("triemoments.asym", "fluct_eval", "asym.fluct"),
       ("triemoments.asym", "cgamma", "gammafn.call"),
       ("triemoments.asym", "cdigamma", "gammafn.call")])

# Bytes the standard DP kernel must read per cell (n, k): the eight moment
# arrays at k and at n - k, and the weight w_k, as float64.  Extended
# precision carries a hi and a lo word.  Computed from array sizes, not
# measured: cache behaviour is not seen.
KERNEL_BYTES_PER_CELL = 17 * 8


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _note_compute(args, kwargs, result):
    n_max = int(_arg(args, kwargs, 1, "n_max"))
    precision = _arg(args, kwargs, 2, "precision", "standard")
    cells = n_max * (n_max - 1) // 2      # sum_{n=2}^{n_max} (n - 1)
    words = 2 if precision == "extended" else 1
    return {"cells": cells, "bytes": cells * KERNEL_BYTES_PER_CELL * words}


def _note_driver(args, kwargs, result):
    trials = int(_arg(args, kwargs, 2, "trials"))
    if hasattr(result, "shape"):          # a (trials, 3) sample matrix
        nodes = float(result[:, 0].sum())
    else:                                 # a summary with mean (S, K, N)
        nodes = float(result.mean[0]) * trials
    return {"trials": trials, "nodes": nodes}


NOTES = {"exact.compute": _note_compute, "mc.driver": _note_driver}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Records one span per call of every wrapped name."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.extra: dict[int, dict] = {}   # span index -> counters from notes
        self.absent: list[str] = []
        self.note_errors: list[str] = []
        self._installed: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name: str):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        note = NOTES.get(span_name)
        clock = time.perf_counter_ns
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        lock = self._lock

        def wrapper(*args, **kwargs):
            stack = self._stack()
            with lock:      # the four arrays must grow together
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0)
                start.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                try:
                    self.extra[idx] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError) as e:
                    self.note_errors.append(f"{span_name}: {e!r}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, path, span_name in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap(fn, span_name))
            self._installed.append((owner, attr, fn))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def spans(self):
        """[(name, start_ns, end_ns, parent_index)] in call order."""
        return [(self.names[i], s, e, p) for i, s, e, p
                in zip(self.name_id, self.start, self.end, self.parent)]


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is [(name, start, end, parent_index)].  Children of one span
    run on the same thread inside it, one after another, so the part they
    cover is the sum of their durations.
    """
    own = [e - s for _, s, e, _ in spans]
    for _, s, e, p in spans:
        if p >= 0:
            own[p] -= e - s
    return own


def summarise(spans, extra: dict) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counters.

    Inclusive time counts only outermost spans of a name, so a recursive or
    nested name is not counted twice.  Counters from notes are likewise
    summed over outermost spans only.
    """
    own = self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, s, e, p) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own[i] * 1e-9
        a = p
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            agg["incl_s"] += (e - s) * 1e-9
            for k, v in extra.get(i, {}).items():
                agg[k] = agg.get(k, 0) + v
    return out


def top_level_s(spans, root: str) -> float:
    """Seconds covered by spans whose parent is a ``root`` span."""
    return sum((e - s) for _, s, e, p in spans
               if p >= 0 and spans[p][0] == root) * 1e-9


def layer_metrics(summary: dict, covered_s: float, solve_s: float,
                  output_bytes: int, n_absent: int) -> dict:
    """The per-layer metrics of one traced command, in seconds and counts."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    compute_incl = get("exact.compute", "incl_s")
    driver_incl = get("mc.driver", "incl_s")
    return {
        "exact.compute_s": get("exact.compute", "self_s"),
        "exact.compute_calls": get("exact.compute", "calls"),
        "exact.dp_cells": get("exact.compute", "cells"),
        "exact.dp_cells_per_s": (get("exact.compute", "cells") / compute_incl
                                 if compute_incl else 0.0),
        "exact.bytes_computed": get("exact.compute", "bytes"),
        "exact.serialise_s": get("exact.serialise", "self_s"),
        "dd.cdot_calls": get("dd.cdot", "calls"),
        "dd.cdot_self_s": get("dd.cdot", "self_s"),
        "dd.ops": get("dd.op", "calls"),
        "dd.self_s": get("dd.op", "self_s"),
        "trie.trial_rng_calls": get("trie.trial_rng", "calls"),
        "trie.trial_rng_self_s": get("trie.trial_rng", "self_s"),
        "trie.sample_shape_calls": get("trie.sample_shape", "calls"),
        "trie.sample_shape_self_s": get("trie.sample_shape", "self_s"),
        "mc.self_s": get("mc.driver", "self_s") + get("mc.whiten", "self_s"),
        "mc.diagnostics_s": get("mc.diagnostics", "self_s"),
        "mc.trials_per_s": (get("mc.driver", "trials") / driver_incl
                            if driver_incl else 0.0),
        "mc.nodes_per_s": (get("mc.driver", "nodes") / driver_incl
                           if driver_incl else 0.0),
        "asym.coeffs_s": get("asym.coeffs", "self_s"),
        "asym.fluct_s": get("asym.fluct", "self_s"),
        "gammafn.calls": get("gammafn.call", "calls"),
        "gammafn.self_s": get("gammafn.call", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
        "trace.coverage": covered_s / solve_s if solve_s > 0 else 0.0,
        "trace.absent": n_absent,
    }
