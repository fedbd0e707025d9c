"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_in_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_timestamp_fifo_order():
    engine = Engine()
    order = []
    for name in "abcde":
        engine.schedule(5, order.append, name)
    engine.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    engine = Engine()
    engine.schedule(123, lambda: None)
    engine.run()
    assert engine.now == 123


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(100, fired.append, 2)
    engine.run(until=50)
    assert fired == [1]
    assert engine.now == 50  # clock lands exactly on the boundary


def test_run_until_can_resume():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(100, fired.append, 2)
    engine.run(until=50)
    engine.run(until=200)
    assert fired == [1, 2]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10, fired.append, "x")
    event.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().schedule(-1, lambda: None)


def test_events_scheduled_during_run_fire():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(5, order.append, "nested")

    engine.schedule(10, first)
    engine.run()
    assert order == ["first", "nested"]
    assert engine.now == 15


def test_stop_halts_processing():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stop")
        engine.stop()

    engine.schedule(1, stopper)
    engine.schedule(2, fired.append, "after")
    engine.run()
    assert fired == ["stop"]


def test_stop_mid_instant_keeps_the_rest_for_resumption():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stop")
        engine.stop()

    engine.schedule(5, stopper)
    engine.schedule(5, fired.append, "rest")
    engine.run()
    assert fired == ["stop"]
    assert engine.pending_events() == 1
    engine.run()
    assert fired == ["stop", "rest"]
    assert engine.pending_events() == 0


def test_pending_events_counts_noncancelled():
    engine = Engine()
    engine.schedule(1, lambda: None)
    event = engine.schedule(2, lambda: None)
    event.cancel()
    assert engine.pending_events() == 1


def test_zero_delay_event_fires_now():
    engine = Engine()
    fired = []
    engine.schedule(0, fired.append, True)
    engine.run()
    assert fired == [True] and engine.now == 0
