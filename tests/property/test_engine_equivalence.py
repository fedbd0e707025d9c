"""The engine vs a reference heap engine, on random programs.

The engine in ``repro.sim.engine`` promises exactly the semantics of a plain
(time, serial) binary heap: entries fire in nondecreasing time, and entries
sharing a timestamp fire in ticket order — the order they were scheduled,
or, for an express-lane entry replaying a reserved ticket, the order of the
reservation — regardless of how buckets, lazy cancellation and compaction
serve them. This test interprets randomized programs of schedule / cancel /
re-arm / express-lane operations (including all of them *during* event
callbacks, and delays up to 2**42 ns) against both engines and requires
identical fire logs.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time, seq, fn):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _RefEngine:
    """Minimal binary-heap engine: the semantics the engine must reproduce."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0

    def schedule_at(self, time, fn):
        self._seq += 1
        event = _RefEvent(time, self._seq, fn)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    def reserve_serial(self):
        self._seq += 1
        return self._seq

    def express_at(self, time, fn, arg=None, serial=None):
        """A lane entry is a push at its (time, serial): a fresh ticket, or
        the reserved one it replays."""
        if serial is None:
            serial = self.reserve_serial()
        heapq.heappush(self._heap, _RefEvent(time, serial, fn))

    def run(self):
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.fn()


#: Delays from the same instant up to far beyond any simulated timer, with
#: tiny ones mixed in so that many entries share a timestamp.
_tiny = st.integers(min_value=0, max_value=3)
_delays = st.one_of(_tiny, st.integers(min_value=0, max_value=2**42))
_short = st.one_of(_tiny, st.integers(min_value=0, max_value=2**20))
#: What a fired entry does: schedule a child or an express-lane child
#: (possibly at its own timestamp), cancel the oldest still-pending event,
#: reserve a ticket, or register a lane entry on the oldest reserved ticket.
_fire_actions = st.lists(
    st.one_of(
        st.tuples(st.just("child"), _short),
        st.tuples(st.just("xchild"), _short),
        st.just(("cancel_oldest",)),
        st.just(("reserve",)),
        st.tuples(st.just("xreserved"), _short),
    ),
    max_size=3,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _delays, _fire_actions),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("resched"), st.integers(min_value=0, max_value=10**6), _delays),
        st.tuples(st.just("express"), _delays, _fire_actions),
        st.just(("reserve",)),
        st.tuples(st.just("xreserved"), _delays, _fire_actions),
    ),
    max_size=50,
)


def _interpret(engine, program):
    """Run ``program`` against ``engine``; return the (time, id) fire log.

    All decisions (which event a cancel/resched targets, what a callback
    does) depend only on mirrored driver state, never on engine internals,
    so both engines see byte-identical instruction streams.
    """
    log = []
    live = {}  # id -> event handle, insertion-ordered
    reserved = []  # tickets drawn with reserve_serial, oldest first
    next_id = [0]

    def apply_action(action):
        if action[0] == "child":
            do_schedule(action[1], ())
        elif action[0] == "xchild":
            do_express(action[1], (), None)
        elif action[0] == "reserve":
            reserved.append(engine.reserve_serial())
        elif action[0] == "xreserved":
            if reserved:
                do_express(action[1], (), reserved.pop(0))
        elif live:  # cancel_oldest
            eid = next(iter(live))
            live.pop(eid).cancel()

    def make_fire(actions):
        eid = next_id[0]
        next_id[0] += 1

        def fire():
            log.append((engine.now, eid))
            live.pop(eid, None)
            for action in actions:
                apply_action(action)

        return eid, fire

    def do_schedule(delay, actions):
        eid, fire = make_fire(actions)
        live[eid] = engine.schedule(delay, fire)

    def do_express(delay, actions, serial):
        fire = make_fire(actions)[1]
        engine.express_at(engine.now + delay, fire, serial=serial)

    for op in program:
        if op[0] == "sched":
            do_schedule(op[1], op[2])
        elif op[0] == "express":
            do_express(op[1], op[2], None)
        elif op[0] == "reserve":
            apply_action(op)
        elif op[0] == "xreserved":
            if reserved:
                do_express(op[1], op[2], reserved.pop(0))
        elif op[0] == "cancel":
            if live:
                keys = list(live)
                live.pop(keys[op[1] % len(keys)]).cancel()
        else:  # resched: cancel one live event, schedule a replacement
            if live:
                keys = list(live)
                live.pop(keys[op[1] % len(keys)]).cancel()
            do_schedule(op[2], ())
    engine.run()
    return log


@given(program=_ops)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_heap(program):
    engine_log = _interpret(Engine(), program)
    heap_log = _interpret(_RefEngine(), program)
    assert engine_log == heap_log


@given(program=_ops)
@settings(max_examples=50, deadline=None)
def test_engine_is_deterministic_across_runs(program):
    assert _interpret(Engine(), program) == _interpret(Engine(), program)
