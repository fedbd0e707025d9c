"""A minimal, fast discrete-event simulation engine.

Time is kept in integer nanoseconds. Events scheduled for the same timestamp
fire in scheduling order (FIFO), which keeps the simulation deterministic.

Internally the engine is a Linux-style hierarchical timer wheel rather than a
single binary heap: :data:`_WHEEL_LEVELS` levels of :data:`_WHEEL_SLOTS`
slots, where level ``k`` has a granularity of ``256**k`` nanoseconds, cover
everything within ~4.3 virtual seconds of the cursor; events beyond that
horizon sit in a small overflow heap until their top-level window opens.
Unlike the kernel's wheel (which sacrifices precision at higher levels), slots
are *cascaded* down level by level as the cursor advances, so every event
fires at its exact timestamp and the engine's observable behaviour is
byte-identical to the old heap implementation. A per-level occupancy bitmask
lets the cursor jump over empty regions in O(1) big-int operations instead of
stepping slot by slot.

Why a wheel: the dominant event traffic is short-delay timers that are
re-armed constantly (TCP RTO, delayed ACKs, pacing, CPU job completions).
``schedule`` is an append to a slot list and ``cancel`` is a flag — both O(1)
with no heap percolation — so the dead-timer tail that used to be dragged
through every ``heappush``/``heappop`` costs nothing until it is either
swept in bulk (:meth:`Engine._compact`) or skipped when its slot drains.

Allocation-lightness: fired and cancelled-collected :class:`Event` objects
are recycled through a freelist. An event is only recycled when the engine
holds the sole remaining references (checked via ``sys.getrefcount``), so a
caller-retained handle can never alias a recycled event — ``cancel()`` on a
spent handle stays a guaranteed no-op.

The steady-state **express lane** (DESIGN.md §13) is a deadline-sorted side
heap one notch above the wheel: work whose firing time and order are fully
known at registration (CPU job completions, chased timer deadlines) can be
registered with :meth:`Engine.express_at` and is dispatched straight off the
heap root — no :class:`Event` object, no wheel insert, no block drain. A
whole quiescent ACK-clocked round (tx completion → wire batch → NAPI poll →
ACK processing → next burst) rides the lane as a chain of such entries, so
the wheel fires roughly one event per round instead of one per job. Ordering
stays byte-identical to the wheel path: every schedule — wheel or express —
draws a ticket from one global serial counter, and whenever an express entry
shares a 256 ns block with pending wheel events it is *materialized* into
that block as a real event carrying its original serial, so the block drain
interleaves the two populations in exact legacy order.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import attrgetter
from sys import getrefcount
from typing import Any, Callable, List, Optional

#: Compact the queue when at least this many cancelled events are queued *and*
#: they outnumber the live ones (amortizes the O(n) sweep).
_COMPACT_MIN_CANCELLED = 512

#: log2 of the timestamp range sharing one level-0 slot ("block"). Events
#: within a 256 ns block live in one list, stable-sorted by time when the
#: block drains — stability preserves scheduling order for equal timestamps,
#: so the determinism contract is untouched while short-delay timers never
#: need cascading.
_PRE_SHIFT = 8
#: log2 of the slot count per wheel level.
_WHEEL_BITS = 8
#: Slots per wheel level.
_WHEEL_SLOTS = 1 << _WHEEL_BITS
_WHEEL_MASK = _WHEEL_SLOTS - 1
#: Wheel levels. Level ``k`` spans ``2**(16 + 8k)`` ns at ``2**(8 + 8k)`` ns
#: slot granularity; 4 levels cover 2**40 ns (~18 min of virtual time) —
#: far beyond any timer the simulated stack arms (RTO tops out at 200 ms).
#: Farther events overflow into a heap.
_WHEEL_LEVELS = 4
#: Shift that selects the top-level window of a timestamp.
_TOP_SHIFT = _PRE_SHIFT + _WHEEL_BITS * _WHEEL_LEVELS

#: Upper bound on the event freelist (beyond it, spent events go to the GC).
_FREELIST_MAX = 4096

#: Sentinel for "run with no time bound" (compares greater than any int).
_NO_LIMIT = float("inf")

#: Offset from a block's start to its last covered timestamp.
_BLOCK_MASK = (1 << _PRE_SHIFT) - 1

#: Spans covered by levels 0..3 relative to the cursor, used to pick the
#: insertion level from ``time ^ cursor`` (equal upper bits ⇒ same window).
_SPAN_L0 = 1 << (_PRE_SHIFT + _WHEEL_BITS)
_SPAN_L1 = 1 << (_PRE_SHIFT + 2 * _WHEEL_BITS)
_SPAN_L2 = 1 << (_PRE_SHIFT + 3 * _WHEEL_BITS)
_SPAN_L3 = 1 << (_PRE_SHIFT + 4 * _WHEEL_BITS)

#: Sort keys for draining a block. Buckets are appended in ticket order
#: (every scheduled event carries a serial from the global counter), so the
#: common case needs only a *stable* sort on time — the cheap single-field
#: key — to recover exact (time, serial) order. The two-field key (which
#: builds a tuple per element, ~8x the sort cost) is reserved for blocks
#: that received materialized express entries, which splice in out of
#: append order.
_TIME_KEY = attrgetter("time")
_ORDER_KEY = attrgetter("time", "seq")


class Event:
    """A scheduled callback. Returned by :meth:`Engine.schedule` for cancellation."""

    __slots__ = (
        "time",
        "seq",
        "fn",
        "args",
        "cancelled",
        "engine",
        "bucket",
    )

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.engine: Optional["Engine"] = None  # set while queued
        self.bucket: Optional[List["Event"]] = None  # wheel slot, while queued

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times.

        When this event is the most recently added entry of its wheel slot
        (the arm-then-cancel churn pattern), it is removed outright — O(1),
        no dead entry left behind. Otherwise it is flag-cancelled and
        collected lazily (slot drain, cascade, or compaction).
        """
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        if engine is None:
            return
        engine.events_cancelled += 1
        bucket = self.bucket
        if bucket is not None and bucket and bucket[-1] is self:
            bucket.pop()
            self.engine = None
            engine._queued -= 1
            # refcount 2 (this frame's parameter + the getrefcount argument)
            # proves the caller invoked cancel() on a temporary — the
            # arm-then-cancel expression pattern — so no handle to this
            # event survives and it can be recycled immediately. A recycled
            # event keeps fn/args until reuse overwrites them.
            free = engine._free
            if getrefcount(self) == 2 and len(free) < _FREELIST_MAX:
                free.append(self)
                engine.events_recycled += 1
            else:
                self.fn = None  # type: ignore[assignment]
                self.args = ()
            return
        engine._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


class Engine:
    """Event loop with integer-nanosecond virtual time."""

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._cancelled_in_queue = 0
        #: Total events queued (wheel + overflow heap), cancelled included.
        self._queued = 0
        #: Wheel position. Always ``<= self.now`` while idle and ``== now``
        #: while firing; between events it may advance ahead of ``now`` as
        #: empty windows are skipped (never past a pending event or a
        #: ``run(until=...)`` boundary).
        self._cursor: int = 0
        self._slots: List[List[Optional[List[Event]]]] = [
            [None] * _WHEEL_SLOTS for _ in range(_WHEEL_LEVELS)
        ]
        self._masks: List[int] = [0] * _WHEEL_LEVELS
        self._heap: List[Event] = []  # events beyond the wheel horizon
        self._free: List[Event] = []
        #: Set while a block is being drained; compaction requested mid-drain
        #: is deferred to the end of the block (the drain indexes into the
        #: live slot list, which a sweep would invalidate).
        self._draining = False
        self._compact_pending = False
        #: While draining a multi-event block: its block id (``time >> 8``),
        #: the live bucket, and the drain position — so callbacks scheduling
        #: into the very block being drained insert in sorted position ahead
        #: of the drain index instead of appending out of order.
        self._active_block = -1
        self._active_bucket: Optional[List[Event]] = None
        self._drain_index = 0
        #: Express lane: a heap of ``[time, serial, fn, arg]`` entries dispatched without Event objects or wheel traffic (see the
        #: module docstring). Entries are never cancelled — producers that
        #: need to move a deadline re-register and treat the stale firing as
        #: a no-op (the chased-timer pattern).
        self._express: List[list] = []
        #: Producers opt in per-engine (the Experiment sets this from
        #: ``ExperimentConfig.express``); with the flag off every producer
        #: uses the plain wheel path and the lane stays empty.
        self.express_enabled = False
        # statistics
        self.events_fired = 0
        self.events_recycled = 0
        #: Cumulative count of cancel() calls on still-queued events (the
        #: arm-then-cancel churn the wheel absorbs); never decremented.
        self.events_cancelled = 0
        #: Express-lane entries registered / dispatched off the lane /
        #: materialized into the wheel (block shared with wheel events).
        #: Invariant: registered == fired + materialized + len(lane).
        self.express_registered = 0
        self.express_fired = 0
        self.express_materialized = 0

    # ``self.now`` — current virtual time in nanoseconds — is a plain
    # attribute (not a property): it is the single most-read field in the
    # simulator and the descriptor dispatch showed up in profiles.

    # ------------------------------------------------------------- scheduling

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Every event draws a ticket from the global serial counter
        (``Event.seq``): same-timestamp events fire in ticket order, which is
        scheduling order — and the shared counter is what lets express-lane
        entries interleave with wheel events byte-identically.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, 0, fn, args)
        self._seq = seq = self._seq + 1
        event.seq = seq
        event.engine = self
        self._queued += 1
        # Inlined _insert (this is the hottest producer path).
        block = time >> _PRE_SHIFT
        if self._draining and block == self._active_block:
            # The block holding `time` is being drained right now: place the
            # event in sorted position ahead of the drain index so it fires
            # in this very pass, in exact (time, serial) order.
            bucket = self._active_bucket
            insort(bucket, event, lo=self._drain_index, key=_ORDER_KEY)
            event.bucket = bucket
            return event
        delta = time ^ self._cursor
        if delta < _SPAN_L0:
            level, slot = 0, block & _WHEEL_MASK
        elif delta < _SPAN_L1:
            level, slot = 1, (block >> _WHEEL_BITS) & _WHEEL_MASK
        elif delta < _SPAN_L2:
            level, slot = 2, (block >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
        elif delta < _SPAN_L3:
            level, slot = 3, (block >> (3 * _WHEEL_BITS)) & _WHEEL_MASK
        else:
            event.bucket = None
            heapq.heappush(self._heap, event)
            return event
        bucket = self._slots[level][slot]
        if bucket:
            bucket.append(event)
        elif bucket is None:
            bucket = [event]
            self._slots[level][slot] = bucket
            self._masks[level] |= 1 << slot
        else:
            bucket.append(event)
            self._masks[level] |= 1 << slot
        event.bucket = bucket
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds.

        Body duplicated from :meth:`schedule_at` (minus the past-time check,
        subsumed by the non-negative-delay check): this is called a few times
        per simulated packet, so the extra frame + varargs repack of
        delegating measurably slows every figure.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, 0, fn, args)
        self._seq = seq = self._seq + 1
        event.seq = seq
        event.engine = self
        self._queued += 1
        block = time >> _PRE_SHIFT
        if self._draining and block == self._active_block:
            bucket = self._active_bucket
            insort(bucket, event, lo=self._drain_index, key=_ORDER_KEY)
            event.bucket = bucket
            return event
        delta = time ^ self._cursor
        if delta < _SPAN_L0:
            level, slot = 0, block & _WHEEL_MASK
        elif delta < _SPAN_L1:
            level, slot = 1, (block >> _WHEEL_BITS) & _WHEEL_MASK
        elif delta < _SPAN_L2:
            level, slot = 2, (block >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
        elif delta < _SPAN_L3:
            level, slot = 3, (block >> (3 * _WHEEL_BITS)) & _WHEEL_MASK
        else:
            event.bucket = None
            heapq.heappush(self._heap, event)
            return event
        bucket = self._slots[level][slot]
        if bucket:
            bucket.append(event)
        elif bucket is None:
            bucket = [event]
            self._slots[level][slot] = bucket
            self._masks[level] |= 1 << slot
        else:
            bucket.append(event)
            self._masks[level] |= 1 << slot
        event.bucket = bucket
        return event

    def _insert(self, event: Event) -> None:
        """Place ``event`` into the wheel slot (or overflow heap) for its time.

        The level is the smallest one whose window around the cursor contains
        the event (``time`` and ``cursor`` share all bits above the level's
        span). That guarantees the slot index is at or ahead of the cursor's
        position in the level, so the advancing cursor always reaches it.
        """
        time = event.time
        delta = time ^ self._cursor
        if delta < _SPAN_L0:
            level, slot = 0, (time >> _PRE_SHIFT) & _WHEEL_MASK
        elif delta < _SPAN_L1:
            level, slot = 1, (time >> (_PRE_SHIFT + _WHEEL_BITS)) & _WHEEL_MASK
        elif delta < _SPAN_L2:
            level, slot = 2, (time >> (_PRE_SHIFT + 2 * _WHEEL_BITS)) & _WHEEL_MASK
        elif delta < _SPAN_L3:
            level, slot = 3, (time >> (_PRE_SHIFT + 3 * _WHEEL_BITS)) & _WHEEL_MASK
        else:
            event.bucket = None
            heapq.heappush(self._heap, event)
            return
        bucket = self._slots[level][slot]
        if bucket is None:
            bucket = [event]
            self._slots[level][slot] = bucket
            self._masks[level] |= 1 << slot
        else:
            if not bucket:
                self._masks[level] |= 1 << slot
            bucket.append(event)
        event.bucket = bucket

    # ------------------------------------------------------------ express lane

    def reserve_serial(self) -> int:
        """Draw a scheduling ticket without creating an event.

        A producer that *would have* scheduled an event right now (but is
        deferring the physical registration — the chased-timer pattern) calls
        this so the eventual :meth:`express_at` entry interleaves with
        same-instant events exactly where the legacy schedule would have.
        """
        self._seq = serial = self._seq + 1
        return serial

    def express_at(
        self,
        time: int,
        fn: Callable[..., Any],
        arg: Any = None,
        serial: Optional[int] = None,
    ) -> None:
        """Register ``fn(arg)`` (or ``fn()`` when ``arg`` is None) on the
        express lane for absolute time ``time``.

        No handle is returned: lane entries cannot be cancelled. ``serial``
        replays a ticket reserved earlier (see :meth:`reserve_serial`); by
        default the entry is ticketed here, like a plain schedule. An entry
        whose block is already being drained is materialized immediately so
        it fires in this very pass.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if serial is None:
            self._seq = serial = self._seq + 1
        self.express_registered += 1
        if self._draining and (time >> _PRE_SHIFT) == self._active_block:
            self._materialize(time, serial, fn, arg, mid_drain=True)
            return
        heapq.heappush(self._express, [time, serial, fn, arg])

    def _materialize(self, time, serial, fn, arg, mid_drain=False) -> None:
        """Turn one express entry into a real wheel event (shared block).

        The event keeps the entry's original serial, so the block's
        (time, serial) sort puts it exactly where the legacy schedule call
        would have.
        """
        free = self._free
        args = () if arg is None else (arg,)
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, 0, fn, args)
        event.seq = serial
        event.engine = self
        self._queued += 1
        self.express_materialized += 1
        if mid_drain:
            bucket = self._active_bucket
            insort(bucket, event, lo=self._drain_index, key=_ORDER_KEY)
        else:
            bucket = self._slots[0][(time >> _PRE_SHIFT) & _WHEEL_MASK]
            bucket.append(event)
        event.bucket = bucket

    # ------------------------------------------------------------- run control

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------- cancel bookkeeping

    def _note_cancelled(self) -> None:
        """Bookkeeping for a cancel of a still-queued event; maybe compact."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > self._queued
        ):
            self._compact()

    def _retire(self, event: Event, held_refs: int) -> None:
        """Clear a spent event's references; recycle it when nothing else
        holds the handle. ``held_refs`` is the *total* expected refcount for
        an externally-unreferenced event: the caller's references plus this
        function's parameter plus the temporary ``getrefcount`` argument."""
        event.engine = None
        event.fn = None  # type: ignore[assignment]  # break closure/endpoint refs
        event.args = ()
        if getrefcount(event) == held_refs and len(self._free) < _FREELIST_MAX:
            self._free.append(event)
            self.events_recycled += 1

    def _compact(self) -> None:
        """Drop cancelled events from every wheel slot and the overflow heap.

        Dropped events have their ``engine`` backref and ``fn``/``args``
        closures cleared so dead timers don't pin endpoints (or their capture
        environments) alive. Slot lists are filtered in place (slice
        assignment) so any outstanding alias of a list stays valid. Deferred
        while a slot drain is in progress.
        """
        if self._draining:
            self._compact_pending = True
            return
        for level in range(_WHEEL_LEVELS):
            mask = self._masks[level]
            if not mask:
                continue
            bucket_list = self._slots[level]
            scan = mask
            while scan:
                low = scan & -scan
                scan ^= low
                bucket = bucket_list[low.bit_length() - 1]
                kept = [event for event in bucket if not event.cancelled]
                if len(kept) != len(bucket):
                    dropped = [event for event in bucket if event.cancelled]
                    bucket[:] = kept
                    if not kept:
                        mask ^= low
                    self._queued -= len(dropped)
                    for event in dropped:
                        # refs: `dropped`, loop var, _retire param, getrefcount arg
                        self._retire(event, 4)
            self._masks[level] = mask
        heap = self._heap
        if heap:
            kept = [event for event in heap if not event.cancelled]
            if len(kept) != len(heap):
                dropped = [event for event in heap if event.cancelled]
                heap[:] = kept
                heapq.heapify(heap)
                self._queued -= len(dropped)
                for event in dropped:
                    self._retire(event, 4)
        self._cancelled_in_queue = 0
        self._compact_pending = False

    # ------------------------------------------------------------ wheel cursor

    def _cascade(self, level: int, slot: int) -> None:
        """Re-distribute one upper-level slot into lower levels (exact times).

        Preserves FIFO order for same-timestamp events: the slot list is in
        scheduling order and re-insertion appends in iteration order.
        """
        bucket = self._slots[level][slot]
        self._slots[level][slot] = None
        self._masks[level] &= ~(1 << slot)
        for event in bucket:
            if event.cancelled:
                self._cancelled_in_queue -= 1
                self._queued -= 1
                # refs: `bucket`, loop var, _retire param, getrefcount arg
                self._retire(event, 4)
            else:
                self._insert(event)

    def _drain_horizon(self) -> None:
        """Pull overflow-heap events whose top-level window has opened."""
        heap = self._heap
        window = self._cursor >> _TOP_SHIFT
        while heap and (heap[0].time >> _TOP_SHIFT) == window:
            event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                self._queued -= 1
                # refs: local var, _retire param, getrefcount arg
                self._retire(event, 3)
            else:
                self._insert(event)

    def _next_slot(self, limit) -> Optional[List[Event]]:
        """Advance the cursor to the next occupied timestamp and return its
        level-0 slot, or ``None`` when the queue is drained (or the next
        event lies beyond ``limit``, which is :data:`_NO_LIMIT` for an
        unbounded run).

        The cursor never commits past ``limit``: a cascade or horizon jump
        whose window starts beyond the boundary is abandoned, so events
        scheduled after the run resumes always land ahead of the cursor.
        """
        masks = self._masks
        while True:
            cursor = self._cursor
            # Fast path: next occupied level-0 block in the current window.
            rem = masks[0] >> ((cursor >> _PRE_SHIFT) & _WHEEL_MASK)
            if rem:
                slot = ((cursor >> _PRE_SHIFT) & _WHEEL_MASK) + (
                    (rem & -rem).bit_length() - 1
                )
                block_start = (
                    ((cursor >> (_PRE_SHIFT + _WHEEL_BITS)) << _WHEEL_BITS) | slot
                ) << _PRE_SHIFT
                if block_start > limit:
                    return None
                self._cursor = block_start
                return self._slots[0][slot]
            # Level-0 window exhausted: cascade the nearest upper-level slot.
            for level in range(1, _WHEEL_LEVELS):
                shift = _PRE_SHIFT + level * _WHEEL_BITS
                index = (cursor >> shift) & _WHEEL_MASK
                rem = masks[level] >> (index + 1)
                if not rem:
                    continue
                slot = index + 1 + ((rem & -rem).bit_length() - 1)
                window_start = (
                    ((cursor >> (shift + _WHEEL_BITS)) << _WHEEL_BITS) | slot
                ) << shift
                if window_start > limit:
                    return None
                self._cursor = window_start
                self._cascade(level, slot)
                break
            else:
                # Wheel empty ahead of the cursor: open the overflow horizon.
                heap = self._heap
                while heap and heap[0].cancelled:
                    event = heapq.heappop(heap)
                    self._cancelled_in_queue -= 1
                    self._queued -= 1
                    self._retire(event, 3)
                if not heap:
                    return None
                window_start = (heap[0].time >> _TOP_SHIFT) << _TOP_SHIFT
                if window_start > limit:
                    return None
                self._cursor = window_start
                self._drain_horizon()

    # --------------------------------------------------------------- main loop

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains, ``stop()`` is called, or
        virtual time would exceed ``until``.

        Returns the final virtual time. When ``until`` is given, the clock is
        advanced to exactly ``until`` even if the queue drained earlier, so
        rate computations over the interval remain well-defined.

        Express-lane entries interleave with wheel events here: a stretch of
        lane entries strictly ahead of all wheel traffic dispatches straight
        off the lane heap (no Event, no block drain), while an entry sharing
        a 256 ns block with wheel events is materialized into that block so
        the (time, serial) sort restores exact legacy firing order.
        """
        self._running = True
        self._stopped = False
        limit = _NO_LIMIT if until is None else until
        getrc = getrefcount
        free = self._free
        masks = self._masks
        slots0 = self._slots[0]
        express = self._express
        heappop = heapq.heappop
        fired = 0
        xfired = 0
        try:
            while not self._stopped:
                # Wheel search bound: never commit the cursor past the
                # express head's block — its events must merge with any
                # wheel events sharing that block. (Block starts are
                # 256-aligned, so the bound never lets the cursor commit
                # past ``limit`` either.)
                if express:
                    xt = express[0][0]
                    if xt > limit:
                        xt = -1
                        wheel_limit = limit
                    else:
                        wheel_limit = xt | _BLOCK_MASK
                else:
                    xt = -1
                    wheel_limit = limit
                # Inlined level-0 fast path of _next_slot: in steady state
                # nearly every occupied block is found right here.
                cursor = self._cursor
                index = (cursor >> _PRE_SHIFT) & _WHEEL_MASK
                rem = masks[0] >> index
                if rem:
                    slot = index + ((rem & -rem).bit_length() - 1)
                    block_start = (
                        ((cursor >> (_PRE_SHIFT + _WHEEL_BITS)) << _WHEEL_BITS)
                        | slot
                    ) << _PRE_SHIFT
                    if block_start > wheel_limit:
                        bucket = None
                    else:
                        self._cursor = block_start
                        bucket = slots0[slot]
                else:
                    bucket = self._next_slot(wheel_limit)
                    if bucket is not None:
                        slot = (self._cursor >> _PRE_SHIFT) & _WHEEL_MASK
                if bucket is None:
                    if xt < 0:
                        break
                    # Express-only stretch: no wheel event lives at or
                    # before this entry's block, so dispatch off the lane.
                    entry = heappop(express)
                    time = entry[0]
                    block_start = time & ~_BLOCK_MASK
                    if self._cursor < block_start:
                        # Safe jump (the search above proved the skipped
                        # region empty); keeps same-instant schedules in
                        # level 0 where the next iteration looks for them.
                        self._cursor = block_start
                    self.now = time
                    xfired += 1
                    fn = entry[2]
                    arg = entry[3]
                    if arg is not None:
                        fn(arg)
                    else:
                        fn()
                    continue
                materialized = False
                if xt >= 0 and (xt | _BLOCK_MASK) == (self._cursor | _BLOCK_MASK):
                    # Express entries share the block about to drain:
                    # materialize them; the (time, serial) sort puts each at
                    # its exact legacy position among the wheel events.
                    block_end = self._cursor | _BLOCK_MASK
                    while express and express[0][0] <= block_end:
                        entry = heappop(express)
                        self._materialize(entry[0], entry[1], entry[2], entry[3])
                        materialized = True
                if len(bucket) == 1:
                    # Single-occupant block (the common case for sparse
                    # traffic): detach the event up front — no drain
                    # bookkeeping, and the slot is already clean if the
                    # callback compacts or audits the queue.
                    event = bucket[0]
                    time = event.time
                    if time > limit:
                        break
                    bucket.clear()
                    masks[0] &= ~(1 << slot)
                    self._queued -= 1
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        event.engine = None
                        # refs: local variable, getrefcount arg. A recycled
                        # event keeps fn/args until reuse overwrites them
                        # (freelist is LIFO, so that is imminent).
                        if getrc(event) == 2 and len(free) < _FREELIST_MAX:
                            free.append(event)
                            self.events_recycled += 1
                        else:
                            event.fn = None  # type: ignore[assignment]
                            event.args = ()
                        continue
                    self.now = time
                    fired += 1
                    fn = event.fn
                    args = event.args
                    event.engine = None
                    if getrc(event) == 2 and len(free) < _FREELIST_MAX:
                        free.append(event)
                        self.events_recycled += 1
                    else:
                        event.fn = None  # type: ignore[assignment]
                        event.args = ()
                    if args:
                        fn(*args)
                    else:
                        fn()
                    continue
                if not bucket:
                    # A pop-on-cancel emptied the block; clear the stale bit.
                    masks[0] &= ~(1 << slot)
                    continue
                # Multi-event block: a stable sort on time alone recovers
                # exact (time, serial) firing order, because appends happen
                # in ticket order; only a block that just received spliced-in
                # express materializations needs the two-field key.
                bucket.sort(key=_ORDER_KEY if materialized else _TIME_KEY)
                if bucket[0].time > limit:
                    break
                self._draining = True
                self._active_block = self._cursor >> _PRE_SHIFT
                self._active_bucket = bucket
                index = 0
                # Index-based drain: callbacks may insert same-block events
                # ahead of the drain index; they fire in this same pass. Each
                # consumed entry is nulled immediately so mid-callback queue
                # inspection (the auditor) never sees spent events.
                while index < len(bucket):
                    event = bucket[index]
                    if event.time > limit:
                        break
                    bucket[index] = None
                    index += 1
                    self._drain_index = index
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        self._queued -= 1
                        event.engine = None
                        # refs: local variable, getrefcount arg
                        if getrc(event) == 2 and len(free) < _FREELIST_MAX:
                            free.append(event)
                            self.events_recycled += 1
                        else:
                            event.fn = None  # type: ignore[assignment]
                            event.args = ()
                        continue
                    self.now = event.time
                    self._queued -= 1
                    fired += 1
                    fn = event.fn
                    args = event.args
                    event.engine = None
                    if getrc(event) == 2 and len(free) < _FREELIST_MAX:
                        free.append(event)
                        self.events_recycled += 1
                    else:
                        event.fn = None  # type: ignore[assignment]
                        event.args = ()
                    if args:
                        fn(*args)
                    else:
                        fn()
                    if self._stopped:
                        break
                self._draining = False
                self._active_block = -1
                self._active_bucket = None
                if index >= len(bucket):
                    bucket.clear()
                    masks[0] &= ~(1 << slot)
                else:
                    # stop() or the time bound hit mid-block: keep the
                    # unfired tail for resumption.
                    del bucket[:index]
                if self._compact_pending:
                    self._compact()
        finally:
            self._running = False
            self._draining = False
            self._active_block = -1
            self._active_bucket = None
            self.events_fired += fired
            self.express_fired += xfired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # ----------------------------------------------------------------- queries

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (express entries
        included — they are pending work like any other). O(1)."""
        return self._queued - self._cancelled_in_queue + len(self._express)

    def _iter_queued(self):
        """Every queued event (wheel slots in level order, then the heap).

        Skips the ``None`` holes a mid-drain slot contains in place of
        already-consumed events.
        """
        for level, bucket_list in enumerate(self._slots):
            mask = self._masks[level]
            if not mask:
                continue
            for slot in range(_WHEEL_SLOTS):
                if (mask >> slot) & 1:
                    for event in bucket_list[slot]:
                        if event is not None:
                            yield event
        yield from self._heap

    def audit_counts(self) -> dict:
        """Exact queue-hygiene counters for the conservation auditor.

        Recounts cancelled events with an O(n) sweep over every wheel slot
        and the overflow heap, so the lazily-maintained cancellation counter
        can be cross-checked against ground truth (see
        :mod:`repro.core.audit`).
        """
        queued = 0
        recount = 0
        for event in self._iter_queued():
            queued += 1
            if event.cancelled:
                recount += 1
        return {
            "queued": queued,
            "cancelled_tracked": self._cancelled_in_queue,
            "cancelled_recount": recount,
            "pending": self.pending_events(),
            "express_pending": len(self._express),
            "express_registered": self.express_registered,
            "express_fired": self.express_fired,
            "express_materialized": self.express_materialized,
        }
