"""In-process message router for SPMD rank programs.

A rank program is a generator: it yields an *outbox* mapping destination
rank to payload, and the yield evaluates to the *inbox* for that round, a
dict from source rank to payload (sources in ascending order).  Every rank
must take part in every round of a run; the router delivers all messages
of a round at once, so delivery is reliable and ordered per peer pair by
construction.

Two execution modes drive the same program code:

``rounds``
    Single-threaded lockstep.  All generators advance one collective round
    at a time in rank order.  Deterministic and fast; the default.
``threads``
    One OS thread per rank, synchronized by a generation barrier.  Rank
    programs genuinely run concurrently and may interleave arbitrarily
    between rounds; results must not depend on the mode.

If one program raises, the run is aborted everywhere and the first error
(by rank) propagates.  A program that stops yielding while peers are still
exchanging is a protocol bug and raises ``ProtocolError`` instead of
deadlocking.
"""

from __future__ import annotations

import threading
from typing import Callable, Generator, Mapping

from ..errors import ProtocolError

RankProgram = Generator[Mapping[int, object], dict[int, object], object]

_UNSET = object()


def _route(nranks: int, outboxes: list[Mapping[int, object] | None]) -> list[dict[int, object]]:
    inboxes: list[dict[int, object]] = [{} for _ in range(nranks)]
    for src in range(nranks):
        ob = outboxes[src]
        if ob is None:
            continue
        for dst, payload in ob.items():
            if not 0 <= dst < nranks:
                raise ProtocolError(f"rank {src} sent to nonexistent rank {dst}")
            inboxes[dst][src] = payload
    return inboxes


class Router:
    """Executes rank programs against a shared collective fabric."""

    def __init__(self, nranks: int, mode: str = "rounds"):
        if nranks < 1:
            raise ProtocolError("router needs at least one rank")
        if mode not in ("rounds", "threads"):
            raise ProtocolError(f"unknown router mode {mode!r}")
        self.nranks = nranks
        self.mode = mode
        self.rounds_executed = 0

    def run(self, program_factory: Callable[[int], RankProgram]) -> list:
        """Run one program per rank to completion; returns their return values."""
        if self.mode == "rounds":
            return self._run_rounds(program_factory)
        return self._run_threads(program_factory)

    # ------------------------------------------------------------------

    def _run_rounds(self, program_factory) -> list:
        n = self.nranks
        gens = [program_factory(r) for r in range(n)]
        results: list = [_UNSET] * n
        outboxes: list[Mapping[int, object] | None] = [None] * n
        finished = 0
        for r, gen in enumerate(gens):
            try:
                outboxes[r] = next(gen)
            except StopIteration as stop:
                results[r] = stop.value
                finished += 1
        while finished < n:
            if finished:
                done = [r for r in range(n) if results[r] is not _UNSET]
                live = [r for r in range(n) if results[r] is _UNSET]
                raise ProtocolError(
                    f"desynchronized rank programs: {done} finished while {live} still exchange"
                )
            inboxes = _route(n, outboxes)
            self.rounds_executed += 1
            for r, gen in enumerate(gens):
                try:
                    outboxes[r] = gen.send(inboxes[r])
                except StopIteration as stop:
                    results[r] = stop.value
                    finished += 1
        return results

    # ------------------------------------------------------------------

    def _run_threads(self, program_factory) -> list:
        n = self.nranks
        barrier = _ExchangeBarrier(n)
        results: list = [_UNSET] * n
        errors: list = [None] * n

        def drive(rank: int) -> None:
            gen = program_factory(rank)
            try:
                try:
                    outbox = next(gen)
                except StopIteration as stop:
                    results[rank] = stop.value
                    barrier.mark_done(rank)
                    return
                while True:
                    inbox = barrier.exchange(rank, outbox)
                    try:
                        outbox = gen.send(inbox)
                    except StopIteration as stop:
                        results[rank] = stop.value
                        barrier.mark_done(rank)
                        return
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors[rank] = exc
                barrier.abort(exc)

        threads = [threading.Thread(target=drive, args=(r,), name=f"rank-{r}") for r in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.rounds_executed += barrier.rounds
        for exc in errors:
            if exc is not None and not isinstance(exc, _AbortedByPeer):
                raise exc
        for exc in errors:
            if exc is not None:
                raise exc
        if any(res is _UNSET for res in results):
            raise ProtocolError("rank program ended without a result")
        return results


class _AbortedByPeer(ProtocolError):
    pass


class _ExchangeBarrier:
    """Generation barrier routing one collective round per generation."""

    def __init__(self, nranks: int):
        self._n = nranks
        self._cond = threading.Condition()
        self._outboxes: dict[int, Mapping[int, object]] = {}
        self._done: set[int] = set()
        self._inboxes: list[dict[int, object]] = []
        self._generation = 0
        self._failure: BaseException | None = None
        self.rounds = 0

    def _maybe_complete_locked(self) -> None:
        if len(self._outboxes) + len(self._done) != self._n:
            return
        if not self._outboxes:
            return  # everyone finished; nothing left to route
        if self._done:
            live = sorted(self._outboxes)
            fail = ProtocolError(
                f"desynchronized rank programs: {sorted(self._done)} finished "
                f"while {live} still exchange"
            )
            self._failure = fail
            self._cond.notify_all()
            return
        boxes: list[Mapping[int, object] | None] = [self._outboxes[r] for r in range(self._n)]
        self._inboxes = _route(self._n, boxes)
        self._outboxes = {}
        self._generation += 1
        self.rounds += 1
        self._cond.notify_all()

    def exchange(self, rank: int, outbox: Mapping[int, object]) -> dict[int, object]:
        with self._cond:
            if self._failure is not None:
                raise _AbortedByPeer(str(self._failure))
            gen = self._generation
            self._outboxes[rank] = outbox
            self._maybe_complete_locked()
            while self._generation == gen and self._failure is None:
                self._cond.wait()
            if self._generation == gen and self._failure is not None:
                raise _AbortedByPeer(str(self._failure))
            return self._inboxes[rank]

    def mark_done(self, rank: int) -> None:
        with self._cond:
            self._done.add(rank)
            self._maybe_complete_locked()

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()
