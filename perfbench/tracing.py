"""Out-of-program layer tracing: wrap public functions, keep spans in memory.

Nothing here edits the program.  :class:`Patches` swaps a function,
method, classmethod or module binding for a timing wrapper and restores
the original on exit; :class:`Recorder` keeps one span per wrapped call
(name, start, end, parent span, request id) and running totals per
layer name.

Self time ("busy") is the time a call spent executing minus the part of
that time its wrapped children executed.  Coroutines are timed per
step: the wrapper drives the inner coroutine itself and only counts the
intervals in which it actually runs, so a coroutine parked on a socket
or a timer accrues ``wait`` (parked time), not busy time, and other
tasks running on the loop meanwhile are never charged to it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter

#: Spans kept per recorder; totals stay exact past it.
SPAN_CAPACITY = 50_000


class Recorder:
    """Span store plus per-layer accumulators.

    ``totals[name]`` is ``[calls, busy_s, wait_s, wall_s]`` (wall is
    inclusive: start to end, children and parked time included).  Spans
    are kept in flat arrays up to :data:`SPAN_CAPACITY`; the overflow is
    counted in ``dropped``.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        #: Plain event counts kept beside the spans (e.g. duplicates).
        self.counts: dict[str, int] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("l")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.dropped = 0
        self.request = 0
        #: Frames of the synchronous steps executing right now: each is
        #: ``[span id, child step time]``; the innermost is last.
        self._stack: list[list[float]] = []
        self._next_id = 0

    # -- bookkeeping ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0, 0.0]
        return nid

    def _new_span(self) -> int:
        self._next_id += 1
        return self._next_id

    def _parent(self) -> int:
        return int(self._stack[-1][0]) if self._stack else 0

    def _close(
        self, name: str, span: int, start: float, end: float, parent: int,
        request: int, busy: float, wait: float,
    ) -> None:
        total = self.totals[name]
        total[0] += 1
        total[1] += busy
        total[2] += wait
        total[3] += end - start
        if len(self.span_start) >= SPAN_CAPACITY:
            self.dropped += 1
            return
        self.span_id.append(span)
        self.span_name.append(self._name_ids[name])
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_request.append(request)

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """A timing wrapper for ``fn`` (sync or ``async def``)."""
        self._name_id(name)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)
        return self._wrap_sync(name, fn, on_result)

    def _wrap_sync(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = self._parent()
            frame = [self._new_span(), 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self._close(name, int(frame[0]), start, end, parent, self.request,
                            elapsed - frame[1], 0.0)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        async def timed(*args: Any, **kwargs: Any) -> Any:
            return await _TimedAwait(recorder, name, fn(*args, **kwargs))

        return timed

    # -- output --------------------------------------------------------
    def layer(self, name: str) -> tuple[int, float, float]:
        """``(calls, busy_s, wait_s)`` for one layer name (zeros when the
        layer never ran)."""
        calls, busy, wait, _wall = self.totals.get(name, (0, 0.0, 0.0, 0.0))
        return int(calls), float(busy), float(wait)

    def wall(self, name: str) -> float:
        """Inclusive wall seconds of one layer name."""
        return float(self.totals.get(name, (0, 0.0, 0.0, 0.0))[3])

    def dump(self, path: Path) -> int:
        """Write the kept spans as JSON lines; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "id": self.span_id[i],
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": self.span_parent[i],
                    "request": self.span_request[i],
                }) + "\n")
        return len(self.span_start)


class _TimedAwait:
    """Drive one coroutine step by step, timing only the steps."""

    __slots__ = ("recorder", "name", "coro")

    def __init__(self, recorder: Recorder, name: str, coro: Any) -> None:
        self.recorder = recorder
        self.name = name
        self.coro = coro

    def __await__(self):  # noqa: C901 - one explicit stepping loop
        rec, name = self.recorder, self.name
        stack = rec._stack
        inner = self.coro.__await__()
        parent, request = rec._parent(), rec.request
        span = rec._new_span()
        first = _clock()
        run = 0.0     # total step time, children included
        child = 0.0   # step time spent inside wrapped children
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = [span, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except BaseException as exc:
                end = _clock()
                stack.pop()
                run += end - start
                child += frame[1]
                if stack:
                    stack[-1][1] += end - start
                rec._close(name, span, first, end, parent, request,
                           run - child, (end - first) - run)
                if isinstance(exc, StopIteration):
                    return exc.value
                raise
            end = _clock()
            stack.pop()
            run += end - start
            child += frame[1]
            if stack:
                stack[-1][1] += end - start
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


class Patches:
    """Install wrappers on classes, instances and modules; undo on exit."""

    def __init__(self, recorder: Recorder | None) -> None:
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def wrap(
        self, owner: Any, attr: str, name: str, on_result: Callable | None = None
    ) -> None:
        rec = self.recorder
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise AttributeError(f"{owner.__name__}.{attr} is inherited")
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(rec.wrap(name, raw.__func__, on_result))
            else:
                wrapped = rec.wrap(name, raw, on_result)
            setattr(owner, attr, wrapped)
            self._undo.append(lambda: setattr(owner, attr, raw))
        elif inspect.ismodule(owner):
            raw = getattr(owner, attr)
            setattr(owner, attr, rec.wrap(name, raw, on_result))
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:  # an instance: shadow the bound method
            bound = getattr(owner, attr)
            setattr(owner, attr, rec.wrap(name, bound, on_result))
            self._undo.append(lambda: delattr(owner, attr))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap a binding outright (restored on exit)."""
        raw = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.undo()
