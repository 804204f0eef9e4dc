"""Boundary tracer for the traced benchmark run.

The tracer wraps public functions of heisenmag by rebinding module
attributes, and restores every binding on exit.  A function imported by
name into another module (``from .elliptic import jacobi_sn_cn_dn``) is a
separate binding there, so each target is rebound in every heisenmag
module that holds it; otherwise calls made inside the library escape the
count.

Per traced name it aggregates calls, busy time (outermost activation
only, so recursion is not double counted) and self time (duration minus
the time covered by traced children).  Calls marked hot are aggregated
only; every other call, and every op, is also kept as a span (name,
start, end, parent span, op id) in memory.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class _Frame:
    name: str
    span_id: int | None  # None for hot calls, which keep no span
    parent_span: int | None  # nearest enclosing kept span
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    calls: Counter = field(default_factory=Counter)
    busy_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)  # counters set by hooks
    spans: list = field(default_factory=list)  # (id, name, start, end, parent, op)
    op_id: int | None = None
    _stack: list = field(default_factory=list)
    _active: Counter = field(default_factory=Counter)
    _undo: list = field(default_factory=list)
    _next_id: int = 0

    # --- span bookkeeping --------------------------------------------------

    def active(self, name: str) -> int:
        return self._active[name]

    def enter(self, name: str, hot: bool = False) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            parent_span = None
        else:
            parent_span = parent.span_id if parent.span_id is not None else parent.parent_span
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id, parent_span, time.perf_counter())
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._active[frame.name] -= 1
        duration = end - frame.start
        self.calls[frame.name] += 1
        if self._active[frame.name] == 0:
            self.busy_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span_id is not None:
            self.spans.append(
                (frame.span_id, frame.name, frame.start, end, frame.parent_span, self.op_id)
            )

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Span of one op; layer spans opened inside it carry its id."""
        self.op_id = op_id
        frame = self.enter(f"op.{kind}")
        try:
            yield
        finally:
            self.exit(frame)
            self.op_id = None

    # --- rebinding ---------------------------------------------------------

    def wrap(self, name, fn, hot=False, on_enter=None, on_result=None, on_error=None):
        """A traced stand-in for ``fn``.

        ``on_enter(tracer, args, kwargs)`` runs inside the span,
        ``on_error(tracer, exc)`` before the exception propagates, and
        ``on_result(tracer, result)`` returns what the caller receives.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, hot)
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.exit(frame)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.exit(frame)
            if on_result is not None:
                result = on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, name, owner, attr, *, hot=False, everywhere=True,
              on_enter=None, on_result=None, on_error=None) -> None:
        """Rebind ``owner.attr`` to a traced wrapper.

        With ``everywhere`` the same function object is also rebound under
        every name that holds it in any loaded heisenmag module.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, hot, on_enter, on_result, on_error)
        holders = [(owner, attr)]
        if everywhere:
            for mod_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if mod_name != "heisenmag" and not mod_name.startswith("heisenmag."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        holders.append((module, key))
        for holder, key in holders:
            self.rebind(holder, key, wrapper)

    def rebind(self, owner, attr, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def stat(self, name: str) -> tuple[int, float, float]:
        return self.calls[name], self.busy_s[name], self.self_s[name]

    def count_signature(self) -> dict:
        """Every count this tracer made; two passes over the same ops must match."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return dict(sorted(out.items()))

