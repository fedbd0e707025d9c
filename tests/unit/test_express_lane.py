"""Unit tests for the engine's express lane (``express_at``/``reserve_serial``).

Lane entries share the engine's one ``(time, serial)`` order with plain
events: an entry draws its ticket at registration, or replays one reserved
earlier, and is counted in ``express_fired`` rather than ``events_fired``.
These tests pin down the ordering contract the steady-state fast path
depends on (see DESIGN.md §13 and tests/property/test_express_equivalence.py
for the end-to-end guarantee).
"""

import pytest

from repro.sim.engine import Engine


def test_express_entry_fires_at_its_time():
    engine = Engine()
    fired = []
    engine.express_at(500, fired.append, "x")
    engine.run()
    assert fired == ["x"]
    assert engine.now == 500
    assert engine.express_registered == 1
    assert engine.express_fired == 1
    assert engine.events_fired == 0


def test_express_without_arg_calls_bare():
    engine = Engine()
    fired = []
    engine.express_at(100, lambda: fired.append("bare"))
    engine.run()
    assert fired == ["bare"]


def test_express_entries_sort_by_time():
    engine = Engine()
    order = []
    engine.express_at(3000, order.append, "c")
    engine.express_at(1000, order.append, "a")
    engine.express_at(2000, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_express_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    assert engine.now == 100
    with pytest.raises(ValueError):
        engine.express_at(50, lambda: None)


def test_same_instant_wheel_and_express_fire_in_registration_order():
    # A plain event and an express entry at the same instant must interleave
    # by their scheduling tickets — exactly as two plain events would.
    engine = Engine()
    order = []
    engine.schedule(1000, order.append, "wheel")
    engine.express_at(1000, order.append, "express")
    engine.run()
    assert order == ["wheel", "express"]

    engine = Engine()
    order = []
    engine.express_at(1000, order.append, "express")
    engine.schedule(1000, order.append, "wheel")
    engine.run()
    assert order == ["express", "wheel"]


def test_reserved_serial_restores_legacy_position():
    # The chased-timer pattern: a producer reserves its ticket at arm time
    # and registers the lane entry later. The entry must fire where the
    # legacy schedule call would have — before anything ticketed after the
    # reservation — regardless of registration order.
    engine = Engine()
    order = []
    serial = engine.reserve_serial()
    engine.schedule(1000, order.append, "later-ticket")
    engine.express_at(1000, order.append, "reserved", serial=serial)
    engine.run()
    assert order == ["reserved", "later-ticket"]


def test_express_registered_mid_drain_fires_in_same_pass():
    # An entry registered from inside a callback, for the very instant being
    # drained, joins the active bucket and fires in this pass — after
    # "second", because it draws its ticket at registration time,
    # exactly where a legacy ``schedule(0, ...)`` from inside ``first``
    # would have landed.
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.express_at(engine.now, order.append, "chained")

    engine.schedule(1000, first)
    engine.schedule(1000, order.append, "second")
    engine.run()
    assert order == ["first", "second", "chained"]
    assert engine.now == 1000


def test_express_ahead_of_wheel_block_dispatches_off_heap():
    # Entry strictly before any plain event: it fires first, and each kind is
    # counted in its own counter.
    engine = Engine()
    order = []
    engine.schedule(10_000, order.append, "wheel")
    engine.express_at(1_000, order.append, "express")
    before = engine.events_fired
    engine.run()
    assert order == ["express", "wheel"]
    assert engine.express_fired == 1
    assert engine.events_fired == before + 1  # only the plain event counted


def test_run_until_does_not_fire_future_express_entries():
    engine = Engine()
    fired = []
    engine.express_at(10, fired.append, 1)
    engine.express_at(1000, fired.append, 2)
    engine.run(until=100)
    assert fired == [1]
    assert engine.now == 100
    engine.run(until=2000)
    assert fired == [1, 2]
