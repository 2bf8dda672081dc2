"""Layer spans for the traced run, taken from outside the program.

:class:`Tracer` wraps the public functions each layer exposes, at the names
its caller looks them up by, and records one span per call: name, start,
end, parent span and request id. Spans stay in memory; at the end they are
written as Chrome ``trace_event`` JSON and reduced to the per-layer
metrics. Nothing inside ``repro`` is edited: the wrappers are installed
with ``setattr`` and removed again, so untraced rounds run the program's
own functions.

The client is a single closed loop, so exactly one request is in flight at
any time and the client's ``request`` attribute names it for the worker
threads' spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

import repro.algebra.rewrite
import repro.core.pipeline
import repro.engine.executor
import repro.engine.physical
import repro.server.service
from repro.core.pipeline import PreparedQuery
from repro.engine.cache import LRUCache
from repro.engine.table import Table

#: (owner, attribute, span name). The owner is where the caller looks the
#: name up: ``parse``, ``type_of`` and ``translate_query`` are bound into
#: the pipeline module at import, while ``optimize_logical``,
#: ``compile_plan`` and ``execute_set`` are imported inside the calling
#: function, so their home modules are patched. A callable span name is
#: given the call's arguments (the cache name tells the three caches apart).
#: ``QueryService._handle`` is the worker's whole request, from dequeue to
#: the response, bookkeeping included; the other worker spans nest in it.
TARGETS = (
    (repro.server.service.QueryService, "submit", "server.submit"),
    (repro.server.service.QueryService, "_handle", "server.handle"),
    (repro.server.service, "prepared", "pipeline.prepared"),
    (repro.core.pipeline, "parse", "lang.parse"),
    (repro.core.pipeline, "type_of", "lang.typecheck"),
    (repro.core.pipeline, "translate_query", "core.translate"),
    (repro.algebra.rewrite, "optimize_logical", "algebra.rewrite"),
    (repro.engine.physical, "compile_plan", "engine.compile"),
    (repro.engine.executor, "execute_set", "engine.execute"),
    (PreparedQuery, "analyze", "engine.analyze"),
    (LRUCache, "put", lambda args: f"engine.cache.{args[0].name}_put"),
    (Table, "insert", "engine.table.write"),
    (Table, "delete", "engine.table.write"),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        #: [name, start, end, parent index or None, request id, thread id]
        self.spans: list[list] = []
        self.request = None
        self._local = threading.local()
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        self._wrappers = [self._wrap(orig, name) for (_, _, orig), (_, _, name) in zip(self._originals, TARGETS)]

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_name = name(args) if callable(name) else name
            spans = tracer.spans
            # A recursive call into the same layer belongs to the outer span.
            if any(spans[i][0] == span_name for i in stack):
                return fn(*args, **kwargs)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None, tracer.request, threading.get_ident()]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for (owner, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (the client's own spans)."""
        self.spans.append([name, start, end, None, self.request, threading.get_ident()])

    def write_chrome(self, path: str, limit: int = 20000) -> int:
        """The first *limit* spans as Chrome ``trace_event`` complete events
        (microseconds); returns how many were written. The metrics use every
        span; the file keeps to a size a trace viewer opens."""
        origin = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"request": request, "parent": parent, "span": i},
            }
            for i, (name, start, end, parent, request, tid) in enumerate(self.spans[:limit])
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)
