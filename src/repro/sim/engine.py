"""Event-driven simulation core.

Two styles of actors are supported:

* **Callbacks** — ``sim.schedule(when, fn)`` runs ``fn(sim)`` at ``when``.
* **Processes** — Python generators that ``yield`` a non-negative delay in
  cycles.  The engine resumes the generator after that many cycles.  This is
  how CPU cores, DMA engines, and the A4 daemon are written: the substrate
  computes how long an action takes (e.g. a memory access under contention)
  and the process simply yields that cost.

Time moves only through :meth:`Simulator.run_until`, the engine's one
dispatch loop, and :meth:`Simulator.fast_forward`, which shifts the clock
without executing anything.  The harness calls ``run_until`` once per
monitoring epoch.

The clock is an integer-friendly float.  Determinism is guaranteed by a
monotonically increasing sequence number used as a heap tie-breaker.

Pending events live in a two-tier bucket queue:

* **Calendar wheel (the fast path).**  Almost every event is a short-delay
  process resume, so the near future — ``WHEEL_SLOTS`` buckets of
  ``WHEEL_GRAIN`` cycles each, anchored at ``_base`` — is kept in a bucket
  array.  Future buckets are unsorted append-only lists; a bucket is sorted
  once when the dispatch loop reaches it and then consumed through an index
  pointer, so the steady state replaces heap sifts with ``list.append``,
  one amortized ``sort`` of a short nearly-sorted run, and plain indexing.
  Inserts that land in the *current* bucket use ``bisect.insort`` bounded
  to the unconsumed suffix, which keeps it sorted in place.
* **Far heap (the fallback).**  Events at or beyond the wheel horizon go to
  a plain heapq.  Whenever the wheel drains, it is re-anchored at ``now``
  and near-future entries migrate from the heap into buckets.

The bucket index is a monotone function of time and each bucket is consumed
in ``(time, seq)`` order, so the pop sequence is bit-identical to a single
heap ordered by ``(time, seq)`` — ``tests/test_engine_wheel.py`` proves
the equivalence against a reference heap scheduler on randomized programs.

Entries are plain ``[time, seq, action]`` lists, so ordering is resolved by
C-level list comparison on the unique ``(time, seq)`` prefix — the
``action`` slot is never compared.  Cancellation nulls the action slot in
place; :class:`Event` is a thin handle over the queued entry.  Process
resumes take a fast path: their entries are ``[time, seq, body, process]``
(the generator itself in the action slot), the dispatch loop resumes the
generator inline — no per-event trampoline frame — and the popped entry
list is reused for the re-schedule, so steady-state process execution
allocates nothing.

Reentrancy rule: event actions may schedule, spawn, and cancel freely, but
must not drive the simulator themselves — ``run_until`` guards against
nested calls because the hot loop mirrors queue state in locals while a
bucket is being consumed.
"""

from __future__ import annotations

import itertools
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable, Optional

ProcessBody = Generator[float, None, None]

_TIME, _SEQ, _ACTION = 0, 1, 2


class SnapshotError(RuntimeError):
    """The simulator holds state that cannot be checkpointed.

    Raised while pickling when a pending event is a raw callback or a
    process spawned through :meth:`Simulator.spawn` instead of
    :meth:`Simulator.spawn_restartable` — suspended generator frames are
    not serializable, so only processes with a registered factory (and a
    body written in restartable form) can cross a snapshot."""

WHEEL_SLOTS = 256
"""Buckets in the calendar wheel."""

WHEEL_GRAIN = 16.0
"""Cycles per bucket; the wheel spans ``WHEEL_SLOTS * WHEEL_GRAIN`` cycles.
Sized so the common process delays (tens to a couple hundred cycles, see
the latency ladder on :class:`~repro.platform.PlatformSpec`) land a few buckets ahead and only
rare long sleeps fall through to the far heap."""

_INV_GRAIN = 1.0 / WHEEL_GRAIN
_SPAN = WHEEL_SLOTS * WHEEL_GRAIN
_LAST_SLOT = WHEEL_SLOTS - 1


class Event:
    """Handle over a scheduled callback.  Ordered by (time, seq)."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        return self._entry[_SEQ]

    @property
    def action(self) -> Optional[Callable[["Simulator"], None]]:
        return self._entry[_ACTION]

    @property
    def cancelled(self) -> bool:
        return self._entry[_ACTION] is None

    def cancel(self) -> None:
        """Mark this event dead; the engine discards it when popped."""
        self._entry[_ACTION] = None


class Process:
    """A generator-based simulated actor.

    The wrapped generator yields delays (cycles >= 0).  When it returns or
    raises ``StopIteration`` the process is finished; observers registered
    through :meth:`on_finish` are then invoked.
    """

    __slots__ = ("name", "_body", "finished", "_finish_callbacks")

    def __init__(self, name: str, body: ProcessBody):
        self.name = name
        self._body = body
        self.finished = False
        self._finish_callbacks: list[Callable[["Simulator"], None]] = []

    def on_finish(self, callback: Callable[["Simulator"], None]) -> None:
        self._finish_callbacks.append(callback)

    def __getstate__(self):
        # The suspended generator frame is not picklable; restartable
        # processes are rebuilt from their factory on restore
        # (see Simulator.__setstate__), everything else keeps ``None``.
        return (self.name, self.finished, self._finish_callbacks)

    def __setstate__(self, state) -> None:
        self.name, self.finished, self._finish_callbacks = state
        self._body = None


class Simulator:
    """The event loop.

    Typical usage::

        sim = Simulator()
        sim.spawn("worker", worker_body(sim))
        sim.run_until(100_000)
    """

    __slots__ = (
        "now",
        "_seq",
        "processes",
        "events_executed",
        "_buckets",
        "_base",
        "_limit",
        "_pos",
        "_pos_end",
        "_bptr",
        "_wheel_len",
        "_far",
        "_running",
        "_factories",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self.processes: list[Process] = []
        self.events_executed: int = 0
        """Cumulative count of fired (non-cancelled) events; the perf
        harness divides this by wall time for simulated-events/second."""
        self._factories: dict = {}
        """``name -> (owner, method, args)`` for restartable processes;
        the snapshot protocol rebuilds their generators from these."""
        self._running = False
        self._init_wheel(0.0)

    def _init_wheel(self, base: float) -> None:
        """(Re)build an empty bucket queue anchored at ``base``.

        Invariants: ``_base <= now``; every wheel entry has
        ``time < _limit`` and lives in bucket
        ``int((time - _base) * _INV_GRAIN)``; buckets before ``_pos`` are
        empty; the bucket at ``_pos`` is sorted and consumed up to
        ``_bptr``; ``_wheel_len`` counts unconsumed wheel entries; every
        ``_far`` entry had ``time >= _limit`` when filed.  ``_pos_end`` is
        the end time of the current bucket
        (``_base + (_pos + 1) * grain``) so the hot re-schedule path can
        detect a same-bucket insert with one float compare."""
        self._buckets: list[list] = [[] for _ in range(WHEEL_SLOTS)]
        self._base: float = base
        self._limit: float = base + _SPAN
        self._pos: int = 0
        self._pos_end: float = base + WHEEL_GRAIN
        self._bptr: int = 0
        self._wheel_len: int = 0
        self._far: list[list] = []

    # -- queue internals ---------------------------------------------------

    def _push(self, entry: list) -> None:
        """File ``entry`` into its wheel bucket, or the far heap beyond the
        horizon.  Entries never land before ``_pos``/``_bptr`` because
        scheduling into the past is rejected and the bucket index is a
        monotone function of time."""
        when = entry[_TIME]
        if when < self._limit:
            idx = int((when - self._base) * _INV_GRAIN)
            if idx > _LAST_SLOT:  # float rounding at the horizon edge
                idx = _LAST_SLOT
            bucket = self._buckets[idx]
            if idx == self._pos:
                insort(bucket, entry, self._bptr)
            else:
                bucket.append(entry)
            self._wheel_len += 1
        else:
            heappush(self._far, entry)

    def _rebase(self) -> None:
        """Re-anchor the empty wheel at ``now`` and drain near-future far
        entries into buckets.  Caller guarantees ``_wheel_len == 0``."""
        self._buckets[self._pos].clear()
        self._pos = 0
        self._bptr = 0
        base = self._base = self.now
        self._pos_end = base + WHEEL_GRAIN
        limit = self._limit = base + _SPAN
        far = self._far
        buckets = self._buckets
        count = 0
        while far and far[0][_TIME] < limit:
            entry = heappop(far)
            idx = int((entry[_TIME] - base) * _INV_GRAIN)
            if idx > _LAST_SLOT:
                idx = _LAST_SLOT
            buckets[idx].append(entry)
            count += 1
        if count:
            self._wheel_len = count
            bucket = buckets[0]
            if len(bucket) > 1:
                bucket.sort()

    # -- scheduling -------------------------------------------------------

    def schedule(self, when: float, action: Callable[["Simulator"], None]) -> Event:
        """Schedule ``action(sim)`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        entry = [when, next(self._seq), action]
        self._push(entry)
        return Event(entry)

    def spawn(
        self, name: str, body: ProcessBody, start_at: Optional[float] = None
    ) -> Process:
        """Register a generator process and schedule its first step."""
        process = Process(name, body)
        self.processes.append(process)
        when = self.now if start_at is None else start_at
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        self._push([when, next(self._seq), body, process])
        return process

    def spawn_restartable(
        self,
        name: str,
        owner: object,
        method: str,
        *args,
        start_at: Optional[float] = None,
    ) -> Process:
        """Spawn ``getattr(owner, method)(*args)`` as a checkpointable
        process.

        The ``(owner, method, args)`` factory is recorded so a restored
        simulator can rebuild the generator (generator frames themselves
        cannot pickle).  The contract on the body: it must be written in
        *restartable* form — all loop-carried state lives in picklable
        objects passed through ``args`` (or on ``owner``), every ``yield``
        sits at the end of its dispatch arm, and the code before the first
        ``yield`` is free of side effects — so that a fresh generator
        first-resumed at the recorded pending time executes exactly what
        the suspended original would have on resume.
        """
        if name in self._factories:
            raise ValueError(f"duplicate restartable process name {name!r}")
        self._factories[name] = (owner, method, tuple(args))
        body = getattr(owner, method)(*args)
        return self.spawn(name, body, start_at=start_at)

    # -- execution --------------------------------------------------------

    def _resume_process(self, entry: list) -> None:
        """Resume the process in ``entry`` and re-queue it (entry reused)."""
        body = entry[_ACTION]
        try:
            delay = next(body)
        except StopIteration:
            process = entry[3]
            process.finished = True
            for callback in process._finish_callbacks:
                callback(self)
            return
        if delay < 0:
            raise ValueError(
                f"process {entry[3].name!r} yielded negative delay {delay!r}"
            )
        entry[_TIME] = self.now + delay
        entry[_SEQ] = next(self._seq)
        self._push(entry)

    def run_until(self, end_time: float) -> None:
        """Run events with time <= ``end_time`` and advance the clock there.

        This is the engine's one dispatch loop.  It consumes the wheel bucket by bucket with the cursor state
        mirrored in locals; ``_bptr`` is committed before every action so
        nested ``schedule``/``spawn``/``cancel`` calls observe a consistent
        queue, and pop counts are flushed to ``_wheel_len`` at every bucket
        boundary.  Actions must not re-enter the run loop itself.
        """
        if self._running:
            raise RuntimeError("run_until is not reentrant; actions must "
                               "not drive the simulator")
        self._running = True
        buckets = self._buckets
        far = self._far
        seq = self._seq
        executed = 0
        try:
            while True:
                # -- position at the next non-empty bucket ----------------
                if self._wheel_len:
                    pos = self._pos
                    bucket = buckets[pos]
                    i = self._bptr
                    if i >= len(bucket):
                        bucket.clear()
                        pos += 1
                        bucket = buckets[pos]
                        while not bucket:
                            pos += 1
                            bucket = buckets[pos]
                        if len(bucket) > 1:
                            bucket.sort()
                        self._pos = pos
                        self._pos_end = self._base + (pos + 1) * WHEEL_GRAIN
                        self._bptr = i = 0
                else:
                    if not far or far[0][_TIME] > end_time:
                        break
                    self._rebase()
                    if not self._wheel_len:
                        # Isolated far-future event inside the run window
                        # but beyond the wheel span: execute it directly.
                        entry = heappop(far)
                        action = entry[_ACTION]
                        if action is None:
                            continue
                        self.now = entry[_TIME]
                        executed += 1
                        if len(entry) == 4:
                            self._resume_process(entry)
                        else:
                            action(self)
                    continue
                # -- consume the current bucket ---------------------------
                base = self._base
                limit = self._limit
                pos_end = self._pos_end
                popped = 0
                blen = len(bucket)
                # ``blen`` mirrors ``len(bucket)``: bumped on our own
                # same-bucket insorts, re-read after callbacks (which may
                # schedule into this bucket through ``_push``).
                while i < blen:
                    entry = bucket[i]
                    when = entry[_TIME]
                    if when > end_time:
                        self._bptr = i
                        self._wheel_len -= popped
                        self.events_executed += executed
                        executed = 0
                        if self.now < end_time:
                            self.now = end_time
                        return
                    i += 1
                    self._bptr = i
                    popped += 1
                    action = entry[_ACTION]
                    if action is None:
                        continue
                    self.now = when
                    executed += 1
                    if len(entry) == 4:
                        # Inlined process resume; the popped entry is
                        # reused for the re-schedule.
                        try:
                            delay = next(action)
                        except StopIteration:
                            process = entry[3]
                            process.finished = True
                            for callback in process._finish_callbacks:
                                callback(self)
                            continue
                        if delay < 0:
                            raise ValueError(
                                f"process {entry[3].name!r} yielded "
                                f"negative delay {delay!r}"
                            )
                        when += delay
                        entry[_TIME] = when
                        entry[_SEQ] = next(seq)
                        # Inlined _push (base/limit/pos_end only move on
                        # _rebase or bucket advance, which cannot run while
                        # this bucket has entries).
                        if when < pos_end:
                            # Same-bucket re-schedule: one compare.
                            insort(bucket, entry, i)
                            blen += 1
                            popped -= 1  # pop + wheel push cancel out
                        elif when < limit:
                            idx = int((when - base) * _INV_GRAIN)
                            if idx > _LAST_SLOT:
                                idx = _LAST_SLOT
                            if idx == pos:  # boundary rounding disagreement
                                insort(bucket, entry, i)
                                blen += 1
                            else:
                                buckets[idx].append(entry)
                            popped -= 1
                        else:
                            heappush(far, entry)
                    else:
                        action(self)
                        # The callback may have pushed into this bucket
                        # (tracked by _wheel_len directly) or anywhere
                        # else; only our own pops stay in ``popped``.
                        blen = len(bucket)
                self._wheel_len -= popped
        finally:
            self._running = False
            self.events_executed += executed
        if self.now < end_time:
            self.now = end_time

    def _live_entries(self) -> list:
        """Every live (non-cancelled) queued entry — the consumed prefix of
        the current bucket, all future buckets, *and* the far heap beyond
        the wheel horizon — sorted into firing order ``(time, seq)``."""
        entries = [
            e
            for e in self._buckets[self._pos][self._bptr:]
            if e[_ACTION] is not None
        ]
        for bucket in self._buckets[self._pos + 1:]:
            entries.extend(e for e in bucket if e[_ACTION] is not None)
        entries.extend(e for e in self._far if e[_ACTION] is not None)
        entries.sort(key=lambda e: (e[_TIME], e[_SEQ]))
        return entries

    def pending(self) -> Iterable[Event]:
        """Live events still queued, in firing order (for inspection).

        Covers the whole two-tier queue: wheel buckets *and* far-heap
        entries past the wheel horizon, so long-sleep events (idle phases,
        far-future timers) are visible — the snapshot protocol relies on
        this completeness."""
        return (Event(e) for e in self._live_entries())

    # -- checkpoint/restore and time travel --------------------------------

    def fast_forward(self, cycles: float) -> None:
        """Advance the clock by ``cycles`` without executing anything.

        Every pending entry is shifted by the same delta and re-filed into
        a wheel re-anchored at the new ``now``; relative order is preserved
        exactly (a uniform shift is monotone in ``(time, seq)``).  This is
        the interval-sampling skip primitive — callers are responsible for
        shifting any *actor-held* absolute timestamps alongside (see
        ``Server.time_shift``)."""
        if self._running:
            raise RuntimeError("cannot fast_forward while running")
        if cycles < 0:
            raise ValueError("cannot fast_forward into the past")
        entries = self._live_entries()
        self.now += cycles
        self._init_wheel(self.now)
        for entry in entries:
            entry[_TIME] += cycles
            self._push(entry)

    def __getstate__(self):
        """Snapshot: queue state with pending entries reduced to
        ``(time, seq, process name)`` descriptors.

        Non-restartable pending work (raw ``schedule`` callbacks, plain
        ``spawn`` processes) raises :class:`SnapshotError` — their
        suspended frames cannot be rebuilt.  Building the state perturbs
        nothing, so a checkpointing run stays bit-identical to one that
        never snapshots."""
        pending = []
        for entry in self._live_entries():
            if len(entry) != 4:
                raise SnapshotError(
                    f"pending callback at t={entry[_TIME]} is not "
                    "checkpointable; schedule work through "
                    "spawn_restartable instead"
                )
            process = entry[3]
            if process.name not in self._factories:
                raise SnapshotError(
                    f"process {process.name!r} was spawned without a "
                    "factory; use spawn_restartable for checkpointable "
                    "actors"
                )
            pending.append((entry[_TIME], entry[_SEQ], process.name))
        return {
            "now": self.now,
            "seq": self._seq,  # itertools.count pickles with its state
            "events_executed": self.events_executed,
            "processes": self.processes,
            "factories": self._factories,
            "pending": pending,
        }

    def __setstate__(self, state) -> None:
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_executed = state["events_executed"]
        self.processes = state["processes"]
        self._factories = state["factories"]
        self._running = False
        self._init_wheel(self.now)
        by_name = {p.name: p for p in self.processes}
        for when, seq, name in state["pending"]:
            owner, method, args = self._factories[name]
            # Creating a generator runs none of its body, so this is safe
            # even while the owner is itself mid-unpickle; the body first
            # executes when the entry fires.
            body = getattr(owner, method)(*args)
            process = by_name[name]
            process._body = body
            self._push([when, seq, body, process])
