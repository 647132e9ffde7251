"""In-memory spans around thzdiv's layer boundaries, for the traced run.

The tracer replaces module attributes with timing wrappers: the name a
calling module looks up at call time (``thzdiv.cli.ber_exact_quadrature``,
``thzdiv.ber_analytic.q_function``, ...), so no library source changes.
Two kinds of wrapper exist:

* a *span* records (id, name, start, end, parent, curve, thread) and is kept
  in memory until the run ends;
* a *leaf* is for functions called thousands of times per BER point (the
  densities and the scalar Q-function inside quadrature).  It only adds to
  per-name counters and to its parent span's ``leaf_s``, which keeps the
  tracing overhead a small share of the traced time.

A span's self time is its duration minus the part of that interval its
child spans cover, minus the time of its leaf calls.  Child spans opened on
a Monte Carlo worker thread, whose own stack is empty, take the innermost
span open on the main thread as their parent.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

# Span record fields.
ID, NAME, START, END, PARENT, CURVE, THREAD, LEAF_S, ATTRS = range(9)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._main_stack: list = []
        self._patches: list = []
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.curve = -1

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        else:
            with self._lock:
                parent = self._main_stack[-1][ID] if self._main_stack else None
        rec = [next(self._ids), name, time.perf_counter(), None, parent,
               self.curve, threading.get_ident(), 0.0, {}]
        with self._lock:
            self.spans.append(rec)
            stack.append(rec)
        return rec

    def close(self, rec: list):
        rec[END] = time.perf_counter()
        stack = self._stack()
        with self._lock:
            stack.pop()

    def span(self, name: str, fn, on_call=None, on_result=None,
             refusal=None):
        """Wrap ``fn`` so that each call records one span.

        ``on_call(args, kwargs)`` and ``on_result(result)`` return attribute
        dicts; an exception of type ``refusal`` is counted as a refusal.
        """
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            if on_call is not None:
                rec[ATTRS].update(on_call(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS]["refused" if refusal and isinstance(exc, refusal)
                           else "raised"] = type(exc).__name__
                raise
            finally:
                self.close(rec)
            if on_result is not None:
                rec[ATTRS].update(on_result(result))
            return result
        return wrapper

    def leaf(self, name: str, fn, count_elems: bool = False):
        """Wrap ``fn`` so that each call only adds to counters."""
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                with self._lock:
                    st = self.leaves[name]
                    st[0] += 1
                    st[1] += dt
                    if count_elems:
                        st[2] += _size(args[0])
                    if stack:
                        stack[-1][LEAF_S] += dt
        return wrapper

    # --- installing --------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(current)`` until ``restore``."""
        raw = vars(owner)[attr]
        wrapped = make(getattr(owner, attr))
        setattr(owner, attr,
                staticmethod(wrapped) if isinstance(owner, type) else wrapped)
        self._patches.append((owner, attr, raw))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # --- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, attrs list."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] is not None and rec[END] is not None:
                children[rec[PARENT]].append((rec[START], rec[END]))
        out: dict[str, dict] = {}
        for rec in self.spans:
            if rec[END] is None:
                continue
            dur = rec[END] - rec[START]
            covered = _union_length(children.get(rec[ID], ()), rec[START],
                                    rec[END])
            row = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0,
                                             "self_s": 0.0, "elems": 0,
                                             "attrs": []})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += max(dur - covered - rec[LEAF_S], 0.0)
            row["elems"] += rec[ATTRS].get("elems", 0)
            if rec[ATTRS]:
                row["attrs"].append((dur, rec[ATTRS]))
        for name, (calls, secs, elems) in self.leaves.items():
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "elems": 0, "attrs": []})
            row["calls"] += calls
            row["s"] += secs
            row["self_s"] += secs
            row["elems"] += elems
        return out

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "curve",
                       "thread", "leaf_s", "attrs"],
            "spans": self.spans,
            "leaves": {k: {"calls": v[0], "s": v[1], "elems": v[2]}
                       for k, v in self.leaves.items()},
        }


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1
