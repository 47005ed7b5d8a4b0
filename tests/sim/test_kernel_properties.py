"""Hypothesis properties of the event kernel.

Total ordering, time monotonicity and cancellation correctness over
randomly generated schedules — the invariants everything above the
kernel silently relies on.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10_000), max_size=100))
def test_events_fire_in_global_time_order(times):
    sim = Simulator()
    fired = []
    for time_ps in times:
        sim.at(time_ps, lambda t=time_ps: fired.append((t, sim.now)))
    sim.run()
    observed = [t for t, _ in fired]
    assert observed == sorted(times)
    # sim.now at fire time equals the event's timestamp.
    assert all(t == now for t, now in fired)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
       st.data())
def test_cancellation_removes_exactly_the_cancelled(times, data):
    sim = Simulator()
    fired = []
    handles = [sim.at(t, lambda i=i: fired.append(i))
               for i, t in enumerate(times)]
    to_cancel = data.draw(st.sets(
        st.integers(0, len(times) - 1), max_size=len(times)))
    for index in to_cancel:
        handles[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(times))) - to_cancel


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5_000), st.integers(0, 5_000)),
                max_size=40))
def test_nested_scheduling_preserves_order(pairs):
    """Events scheduled from within events still fire time-ordered."""
    sim = Simulator()
    trace = []

    for first, delta in pairs:
        def outer(first=first, delta=delta):
            trace.append(sim.now)
            sim.after(delta, lambda: trace.append(sim.now))

        sim.at(first, outer)
    sim.run()
    assert trace == sorted(trace)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1_000), max_size=50),
       st.integers(0, 1_000))
def test_run_until_splits_cleanly(times, bound):
    """run(until) then run() fires everything exactly once, in order."""
    sim = Simulator()
    fired = []
    for time_ps in times:
        sim.at(time_ps, lambda t=time_ps: fired.append(t))
    sim.run(until_ps=bound)
    early = list(fired)
    assert all(t <= bound for t in early)
    sim.run()
    assert fired == sorted(times)
