"""In-memory span recorder for the traced benchmark runs.

The benchmark never edits the program to trace it.  It wraps public
functions at their layer boundaries (:func:`install`), records one span
per outermost call into a list kept in memory, and writes the list out
once the traced process is done (:meth:`SpanRecorder.dump`).
:func:`summarise` turns a span list into per-name totals with self
time: a span's duration minus the time its direct children cover.

A span is the list ``[name, start_ns, end_ns, parent, request, tag,
extra]``.  *parent* is the index of the enclosing span in the same
thread, or -1.  *request* is the index of the span that opened the
request the work belongs to, so all spans of one request share it.
*tag* is the request's op, and *extra* a number the wrapper attaches:
values handled, bytes decoded, or the value returned.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable

_perf_ns = time.perf_counter_ns

Extra = Callable[[tuple, dict, Any], float]


class SpanRecorder:
    """Records nested spans per thread; safe to share across threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._append_lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.names = set()
            local.request = -1
            local.tag = ""
        return local

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Extra | None = None,
        tag: str = "",
        opens_request: Callable[[Any], str | None] | None = None,
    ) -> Callable:
        """Return *fn* wrapped in a span called *name*.

        Only the outermost call of a name in a thread is recorded, so a
        function that reaches itself again is not counted twice.
        *extra* computes the span's number from ``(args, kwargs,
        result)``.  A root span takes *tag* as its op; nested spans
        inherit request and op from their parent.  *opens_request*
        maps the result to an op when the call begins a new request
        (a frame the server decoded), and to ``None`` otherwise; later
        root spans of the same thread then belong to that request.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = recorder._state()
            if name in local.names:
                return fn(*args, **kwargs)
            stack = local.stack
            slot: list = [name, 0, 0, -1, local.request, tag or local.tag, 0.0]
            with recorder._append_lock:
                index = len(recorder.spans)
                recorder.spans.append(slot)
            if stack:
                parent = recorder.spans[stack[-1]]
                slot[3] = stack[-1]
                slot[4] = parent[4]
                slot[5] = parent[5]
            elif slot[4] == -1:
                slot[4] = index
            stack.append(index)
            local.names.add(name)
            slot[1] = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                slot[2] = _perf_ns()
                stack.pop()
                local.names.discard(name)
            if extra is not None:
                slot[6] = float(extra(args, kwargs, result))
            if opens_request is not None:
                op = opens_request(result)
                if op is not None:
                    slot[4] = local.request = index
                    slot[5] = local.tag = op
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span to *path* as one JSON list."""
        with self._append_lock:
            spans = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))


def install(
    recorder: SpanRecorder,
    owner: Any,
    attribute: str,
    name: str,
    **options: Any,
) -> None:
    """Replace ``owner.attribute`` with its traced twin."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, recorder.wrap(name, original, **options))


def install_core(recorder: SpanRecorder) -> None:
    """Trace ``update_batch``, ``merge`` and ``quantiles`` of every
    paper sketch as ``core.<sketch>.<method>``.

    A span is named after the class of the receiving object, so a
    sketch that inherits a method, from the base class or from another
    paper sketch, is still counted under its own name.  ``update_batch``
    spans carry the number of values.
    """
    from repro.core.registry import PAPER_SKETCHES, SKETCH_CLASSES

    by_type = {SKETCH_CLASSES[name]: name for name in PAPER_SKETCHES}
    extras: dict[str, Extra | None] = {
        "update_batch": lambda args, kwargs, result: len(args[1]),
        "merge": None,
        "quantiles": None,
    }
    # Every class that defines one of the methods for a paper sketch,
    # the shared base class included.
    definers = {cls for owner in by_type for cls in owner.__mro__[:-1]}
    for cls in definers:
        for method, extra in extras.items():
            original = vars(cls).get(method)
            if original is None:
                continue
            wrapped = {
                owner: recorder.wrap(
                    f"core.{sketch}.{method}", original, extra=extra
                )
                for owner, sketch in by_type.items()
                if issubclass(owner, cls)
            }
            setattr(cls, method, _by_receiver_type(wrapped, original))


def _by_receiver_type(
    wrapped: dict[type, Callable], original: Callable
) -> Callable:
    @functools.wraps(original)
    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        return wrapped.get(type(self), original)(self, *args, **kwargs)

    return method


def mean(entry: dict | None, key: str = "total_ms") -> float | None:
    """Mean of *key* per span, ``None`` when no span was recorded."""
    if not entry or not entry["count"]:
        return None
    return entry[key] / entry["count"]


def core_layers(summary: dict, batch: int) -> dict[str, float | None]:
    """``core.<sketch>.*`` timings from a :func:`summarise` result;
    ``update_batch_ms`` is scaled to *batch* values."""
    from repro.core.registry import PAPER_SKETCHES

    out: dict[str, float | None] = {}
    for sketch in PAPER_SKETCHES:
        update = summary.get(f"core.{sketch}.update_batch")
        out[f"core.{sketch}.update_batch_ms"] = (
            update["total_ms"] / update["extra"] * batch
            if update and update["extra"] else None
        )
        out[f"core.{sketch}.merge_ms"] = mean(
            summary.get(f"core.{sketch}.merge")
        )
        out[f"core.{sketch}.quantiles_ms"] = mean(
            summary.get(f"core.{sketch}.quantiles")
        )
    return out


def summarise(
    spans: list, windows: list[tuple[int, int]]
) -> dict[str, dict[str, float]]:
    """Totals per span name over spans that start inside one of
    *windows* (``perf_counter_ns`` pairs, comparable across processes
    of one host): ``count``, inclusive ``total_ms``, ``self_ms`` and
    the summed ``extra``.

    Spans that carry an op are also added under ``<name>@<op>``, so the
    work done for ingests and for queries can be told apart.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _request, tag, extra) in (
        enumerate(spans)
    ):
        if not any(lo <= start < hi for lo, hi in windows):
            continue
        duration = end - start
        for key in (name, f"{name}@{tag}") if tag else (name,):
            entry = out.setdefault(
                key,
                {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "extra": 0.0},
            )
            entry["count"] += 1
            entry["total_ms"] += duration / 1e6
            entry["self_ms"] += (duration - child_ns[index]) / 1e6
            entry["extra"] += extra
    return out
