"""A minimal, fast discrete-event simulation engine.

Time is kept in integer nanoseconds. Every schedule draws a ticket from one
global serial counter, and entries fire in ``(time, serial)`` order, so events
sharing a timestamp fire in scheduling order and runs are deterministic.

The queue is a binary heap of *distinct* timestamps plus a dict from each
timestamp to its bucket, a list of entries in serial order (DESIGN.md §10).
Scheduling at a timestamp that already has a bucket is an append, and
:meth:`Engine.run` drains the head bucket in place, so same-instant schedules
made by its callbacks fire in the same pass. Cancellation is lazy, with a bulk
sweep (:meth:`Engine._compact`) once dead events outnumber live ones.

Besides cancellable :class:`Event` objects, a bucket holds uncancellable
**express-lane** entries (:meth:`Engine.express_at`, DESIGN.md §13). An entry
may replay a ticket drawn earlier with :meth:`Engine.reserve_serial`; it is
then inserted by serial, exactly where the schedule it stands in for would
have sat.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

#: Compact the queue when at least this many cancelled events are queued *and*
#: they outnumber the live ones (amortizes the O(n) sweep).
_COMPACT_MIN_CANCELLED = 512

#: Sentinel for "run with no time bound" (compares greater than any int).
_NO_LIMIT = float("inf")

_SERIAL = attrgetter("seq")


class Event:
    """A scheduled callback, returned by :meth:`Engine.schedule` for cancellation.
    ``fn is None`` once it is cancelled or has fired. Express-lane entries are
    instances with ``engine`` None; never handed out, they cannot be cancelled.
    The engine fills the slots after ``Event()``: an ``__init__`` would cost a
    Python frame on every schedule, the engine's hottest path."""

    __slots__ = ("seq", "fn", "args", "engine")

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times, and a
        no-op on an event that already fired."""
        if self.fn is None:
            return
        self.fn = None  # type: ignore[assignment]
        self.args = ()  # drop closure/endpoint refs while the entry waits
        engine = self.engine
        engine.events_cancelled += 1
        engine._cancelled_in_queue += 1
        if (
            engine._cancelled_in_queue >= _COMPACT_MIN_CANCELLED
            and engine._cancelled_in_queue * 2 > engine._queued
        ):
            engine._compact()


class Engine:
    """Event loop with integer-nanosecond virtual time."""

    def __init__(self) -> None:
        # ``now`` is a plain attribute, not a property: it is the single
        # most-read field in the simulator.
        self.now: int = 0
        self._seq: int = 0
        self._stopped = False
        #: Heap of the distinct timestamps that have a bucket.
        self._times: List[int] = []
        #: Timestamp -> entries in serial order.
        self._buckets: Dict[int, List[Event]] = {}
        #: Entries in buckets, cancelled and already-drained ones included.
        self._queued = 0
        #: Cancelled events still in buckets (not yet drained or compacted).
        self._cancelled_in_queue = 0
        #: Entries of the head bucket consumed so far while it drains (0
        #: between buckets). They stay in the list until the bucket is done.
        self._drained = 0
        #: Set from ``ExperimentConfig.express``; off, the lane stays empty.
        self.express_enabled = False
        self.events_fired = 0
        #: Cumulative count of cancel() calls on still-queued events.
        self.events_cancelled = 0
        #: Invariant: registered == fired + pending lane entries.
        self.express_registered = 0
        self.express_fired = 0

    # ------------------------------------------------------------- scheduling

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event = Event()
        event.seq = self._seq = self._seq + 1
        event.fn = fn
        event.args = args
        event.engine = self
        buckets = self._buckets
        if time in buckets:
            buckets[time].append(event)
        else:
            buckets[time] = [event]
            heappush(self._times, time)
        self._queued += 1
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds. (Body copied
        from :meth:`schedule_at`: delegating costs a frame per schedule.)"""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        event = Event()
        event.seq = self._seq = self._seq + 1
        event.fn = fn
        event.args = args
        event.engine = self
        buckets = self._buckets
        if time in buckets:
            buckets[time].append(event)
        else:
            buckets[time] = [event]
            heappush(self._times, time)
        self._queued += 1
        return event

    def reserve_serial(self) -> int:
        """Draw a scheduling ticket without creating an entry, for a
        producer that defers an event it would have scheduled now (the
        chased-timer pattern) to a later :meth:`express_at`."""
        self._seq = serial = self._seq + 1
        return serial

    def express_at(
        self, time: int, fn: Callable[..., Any], arg: Any = None, serial: Optional[int] = None
    ) -> None:
        """Register ``fn(arg)`` (``fn()`` when ``arg`` is None) on the express
        lane at absolute time ``time``. No handle is returned: lane entries
        cannot be cancelled. ``serial`` replays a reserved ticket; by default
        the entry is ticketed here, like a plain schedule."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self.express_registered += 1
        self._queued += 1
        reserved = serial is not None
        if not reserved:
            self._seq = serial = self._seq + 1
        entry = Event()
        entry.seq = serial
        entry.fn = fn
        entry.args = () if arg is None else (arg,)
        entry.engine = None
        buckets = self._buckets
        if time not in buckets:
            buckets[time] = [entry]
            heappush(self._times, time)
        elif reserved:
            # An old ticket sorts among the bucket's entries; in the bucket
            # being drained, only among those not yet fired.
            lo = self._drained if time == self.now else 0
            insort(buckets[time], entry, lo=lo, key=_SERIAL)
        else:
            buckets[time].append(entry)

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def _compact(self) -> None:
        """Drop cancelled events from every bucket but the one draining
        (:meth:`run` is iterating it, and counts its cancelled entries off
        as it reaches them)."""
        buckets = self._buckets
        draining = self.now if self._drained else None
        dropped = 0
        dead = []
        for time, bucket in buckets.items():
            if time == draining:
                continue
            if len(bucket) == 1:  # the common case: skip the list rebuild
                if bucket[0].fn is None:
                    dead.append(time)
                    dropped += 1
                continue
            size = len(bucket)
            bucket[:] = [entry for entry in bucket if entry.fn is not None]
            dropped += size - len(bucket)
            if not bucket:
                dead.append(time)
        for time in dead:
            del buckets[time]
        if dropped:
            times = self._times
            times[:] = [time for time in times if time in buckets]
            heapify(times)
            self._queued -= dropped
            self._cancelled_in_queue -= dropped

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains, ``stop()`` is called, or
        virtual time would exceed ``until``; return the final virtual time.
        With ``until`` the clock ends exactly there even if the queue drained
        earlier, so rates over the interval stay well-defined."""
        self._stopped = False
        limit = _NO_LIMIT if until is None else until
        times = self._times
        buckets = self._buckets
        fired = 0
        xfired = 0
        try:
            while times:
                time = times[0]
                if time > limit:
                    break
                self.now = time
                bucket = buckets[time]
                drained = 0
                # Callbacks may append to (or insort into the undrained tail
                # of) this very bucket; the list iterator picks those up.
                for entry in bucket:
                    drained += 1
                    self._drained = drained
                    fn = entry.fn
                    if fn is None:
                        self._cancelled_in_queue -= 1
                        continue
                    entry.fn = None  # type: ignore[assignment]  # spent
                    if entry.engine is None:
                        xfired += 1
                    else:
                        fired += 1
                    args = entry.args
                    if args:
                        fn(*args)
                    else:
                        fn()
                    if self._stopped:
                        break
                else:
                    heappop(times)
                    del buckets[time]
                    self._queued -= drained
                    self._drained = 0
                    continue
                break
        finally:
            drained = self._drained
            if drained:  # stopped, or a callback raised, mid-bucket
                bucket = buckets[self.now]
                self._queued -= drained
                self._drained = 0
                if drained == len(bucket):
                    heappop(times)
                    del buckets[self.now]
                else:
                    del bucket[:drained]
            self.events_fired += fired
            self.express_fired += xfired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # ----------------------------------------------------------------- queries

    def pending_events(self) -> int:
        """Number of queued entries that will still fire (express entries
        included — they are pending work like any other). O(1)."""
        return self._queued - self._drained - self._cancelled_in_queue

    def _iter_entries(self):
        """Every queued entry, skipping the draining bucket's spent prefix."""
        draining = self.now if self._drained else None
        for time, bucket in self._buckets.items():
            yield from bucket[self._drained:] if time == draining else bucket

    def _iter_queued(self):
        """Every queued cancellable :class:`Event`, cancelled ones included."""
        return (entry for entry in self._iter_entries() if entry.engine is not None)

    def audit_counts(self) -> dict:
        """Exact queue-hygiene counters for the conservation auditor: an
        O(n) recount of every bucket, to cross-check the lazily-maintained
        counters against (see :mod:`repro.core.audit`)."""
        entries = list(self._iter_entries())
        events = [entry for entry in entries if entry.engine is not None]
        return {
            "queued": len(events),
            "cancelled_tracked": self._cancelled_in_queue,
            "cancelled_recount": sum(1 for event in events if event.fn is None),
            "pending": self.pending_events(),
            "express_pending": len(entries) - len(events),
            "express_registered": self.express_registered,
            "express_fired": self.express_fired,
        }
