"""Spans and counters recorded from the benchmark's side of each call.

The program under test carries no instrumentation.  In a traced run the
benchmark opens spans around the public calls it makes itself and, for
calls made inside the program (``run_stencil`` and ``cli.main``), swaps the
module attribute the caller looks up for a wrapper that opens a span around
the original.  Every swap is undone when the run ends.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded here, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable


class Span:
    __slots__ = ("name", "parent", "t0", "t1")

    def __init__(self, name: str, parent: int | None, t0: float):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Nested spans and named counts for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            sp.t1 = time.perf_counter()

    def add(self, counts_of: Callable[..., dict[str, float]], *args, **kwargs) -> None:
        """Add the counts that ``counts_of(*args, **kwargs)`` returns."""
        for name, n in counts_of(*args, **kwargs).items():
            self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        out: dict[str, float] = {}
        for sp, t in zip(self.spans, own):
            out[sp.name] = out.get(sp.name, 0.0) + t
        return out

    def top_level_seconds(self) -> float:
        return sum(sp.duration for sp in self.spans if sp.parent is None)

    def durations(self, name: str) -> list[float]:
        return [sp.duration for sp in self.spans if sp.name == name]

    def first_and_rest(self, name: str) -> tuple[list[float], list[float]]:
        """Durations of ``name`` spans split into the first under each parent and the rest."""
        seen: set[int | None] = set()
        first: list[float] = []
        rest: list[float] = []
        for sp in self.spans:
            if sp.name != name:
                continue
            (rest if sp.parent in seen else first).append(sp.duration)
            seen.add(sp.parent)
        return first, rest


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def add(self, counts_of, *args, **kwargs) -> None:
        """Computes nothing, so untraced runs time no bookkeeping."""


NULL = NullTracer()


def instrument(
    stack: contextlib.ExitStack,
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    counts: Callable[..., dict[str, float]] | None = None,
) -> None:
    """Replace ``owner.attr`` by a wrapper that spans each call, until ``stack`` closes.

    ``counts(result, *args, **kwargs)`` may return counts to add after the
    call; it runs outside the wrapped call's span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if counts is not None:
            tracer.add(counts, result, *args, **kwargs)
        return result

    setattr(owner, attr, wrapper)
    stack.callback(setattr, owner, attr, original)
