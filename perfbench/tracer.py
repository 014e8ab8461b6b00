"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped function records a span (name, start, end, parent, invocation)
when called. Functions are patched in the module namespace that *calls*
them, because ``from ... import`` binds a name at import time: patching
``paleoxval.core.standardize`` alone would miss ``crossval.standardize``.
A target that no longer exists is recorded as absent rather than raising,
so after a refactor removes it its time falls into the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every wrapped call until ``restore`` is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, module: str, attr_path: str, name: str, count=None) -> None:
        """Patch ``module.attr_path`` (dotted, may reach into a class or a
        dict such as ``cli.COMMANDS.crossval``) with a recording wrapper.

        ``count(args, result)`` returns counters stored on the span.
        """
        owner = importlib.import_module(module)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = owner.get(part) if isinstance(owner, dict) else getattr(owner, part, None)
        original = (owner.get(attr) if isinstance(owner, dict)
                    else getattr(owner, attr, None)) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr_path}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.invocation)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span.attrs = count(args, result)
            return result

        _set(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            _set(*self._undo.pop())

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "invocation": s.invocation, **s.attrs} for s in self.spans]


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
