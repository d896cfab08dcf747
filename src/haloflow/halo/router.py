"""In-process message router for SPMD rank programs.

A rank program is a generator: it yields an *outbox* mapping destination
rank to payload, and the yield evaluates to the *inbox* for that round, a
dict from source rank to payload (sources in ascending order).  Every rank
must take part in every round of a run; the router delivers all messages
of a round at once, so delivery is reliable and ordered per peer pair by
construction.

One round loop drives every run: it advances each rank's program by one
step, checks that the ranks are still in step, and routes the outboxes
into the next round's inboxes.  The mode only chooses what runs a round's
steps:

``rounds``
    The caller's thread, in rank order.  Deterministic; the default.
``threads``
    A pool of up to ``nranks`` workers that lives for one run.  The steps
    of a round run concurrently, and a rank's step may run on any worker;
    results must not depend on the mode.

Program factories are called in the caller's thread in both modes.  If
programs raise in a round, the run ends and the lowest such rank's error
propagates.  A program that stops yielding while peers are still
exchanging is a protocol bug and raises ``ProtocolError`` instead of
deadlocking.
"""

from __future__ import annotations

from typing import Callable, Generator, Mapping

from ..errors import ProtocolError

RankProgram = Generator[Mapping[int, object], dict[int, object], object]


class _Finished:
    """What a rank program returned, in place of its next outbox."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


def _advance(gen: RankProgram, inbox: dict[int, object] | None) -> Mapping[int, object] | _Finished:
    """One step of a rank program: its next outbox, or ``_Finished``."""
    try:
        return gen.send(inbox)
    except StopIteration as stop:
        return _Finished(stop.value)


def _route(nranks: int, outboxes: list[Mapping[int, object]]) -> list[dict[int, object]]:
    inboxes: list[dict[int, object]] = [{} for _ in range(nranks)]
    for src, ob in enumerate(outboxes):
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
        gens = [program_factory(r) for r in range(self.nranks)]
        if self.mode == "rounds":
            return self._run(gens, map)
        from concurrent.futures import ThreadPoolExecutor  # imports logging: only when used

        with ThreadPoolExecutor(self.nranks) as pool:
            return self._run(gens, pool.map)

    def _run(self, gens: list[RankProgram], map_round: Callable) -> list:
        """Advance every program a round at a time with ``map_round`` until all return."""
        inboxes: list = [None] * self.nranks
        while True:
            steps = list(map_round(_advance, gens, inboxes))
            if _Finished in map(type, steps):
                done = [r for r, s in enumerate(steps) if type(s) is _Finished]
                if len(done) == self.nranks:
                    return [s.value for s in steps]
                live = [r for r, s in enumerate(steps) if type(s) is not _Finished]
                raise ProtocolError(
                    f"desynchronized rank programs: {done} finished while {live} still exchange"
                )
            inboxes = _route(self.nranks, steps)
            self.rounds_executed += 1
