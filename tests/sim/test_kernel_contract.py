"""Dispatch-order contract of the event kernel.

Two properties everything above the kernel relies on:

* attaching a ``KernelObserver``-style recorder changes nothing about
  which events fire or in what order, and the depth it is handed after
  each event is the true ``pending_events`` count at that moment;
* under seeded tie-break perturbation, an event scheduled at the
  current instant never fires before an event that was already queued
  for that instant when the instant's dispatch began.
"""

# Shared-list appends from many callbacks are the point here: the
# properties assert the kernel's total ordering of exactly such sites.
# repro-lint: disable=R701

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator

KINDS = ("at", "after", "call_at", "call_after", "batch")

#: One node of a schedule program: ``(parent, delta_ps, kind, cancel)``.
#: Roots (``parent`` None) are scheduled before the first ``run`` at
#: ``delta_ps``; other nodes are scheduled by their parent when it
#: fires, at ``now + delta_ps``.  ``cancel`` names a node whose handle
#: the node cancels when it fires (a no-op once that one has fired or
#: was scheduled without a handle).
_node = st.tuples(st.integers(0, 3), st.sampled_from(KINDS),
                  st.one_of(st.none(), st.integers(0, 39)))


@st.composite
def programs(draw):
    count = draw(st.integers(1, 40))
    nodes = []
    for index in range(count):
        parent = draw(st.one_of(st.none(), st.integers(0, index - 1))
                      if index else st.none())
        delta, kind, cancel = draw(_node)
        nodes.append((parent, delta, kind, cancel))
    bounds = sorted(draw(st.lists(st.integers(0, 12), max_size=4)))
    return nodes, bounds


class _Recorder:
    """A ``KernelObserver``-shaped recorder of every hook call."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def run_started(self, time_ps: int, pending: int) -> None:
        assert pending == self.sim.pending_events

    def run_finished(self, time_ps: int, pending: int) -> None:
        assert pending == self.sim.pending_events

    def event_fired(self, time_ps: int, depth: int) -> None:
        self.fired.append((time_ps, depth, self.sim.pending_events))


def _execute(program, observed):
    nodes, bounds = program
    sim = Simulator()
    if observed:
        sim.observer = _Recorder(sim)
    order = []
    handles = {}
    children = {}
    for index, (parent, _delta, _kind, _cancel) in enumerate(nodes):
        children.setdefault(parent, []).append(index)

    def schedule(indices, base_ps: int) -> None:
        batch = []
        for index in indices:
            _parent, delta, kind, _cancel = nodes[index]
            callback = lambda index=index: fire(index)
            if kind == "at":
                handles[index] = sim.at(base_ps + delta, callback)
            elif kind == "after":
                handles[index] = sim.after(base_ps + delta - sim.now,
                                           callback)
            elif kind == "call_at":
                sim.call_at(base_ps + delta, callback)
            elif kind == "call_after":
                sim.call_after(base_ps + delta - sim.now, callback)
            else:
                batch.append((base_ps + delta, callback))
        if batch:
            sim.schedule_batch(batch)

    def fire(index):
        order.append((index, sim.now))
        schedule(children.get(index, ()), sim.now)
        cancel = nodes[index][3]
        if cancel is not None and cancel in handles:
            handles[cancel].cancel()

    schedule(children.get(None, ()), 0)
    for bound in bounds:
        sim.run(until_ps=bound)
    sim.run()
    assert sim.pending_events == 0
    return order, sim


@settings(max_examples=150, deadline=None)
@given(programs())
def test_observer_never_changes_dispatch(program):
    plain_order, _ = _execute(program, observed=False)
    observed_order, sim = _execute(program, observed=True)
    assert observed_order == plain_order
    fired = sim.observer.fired
    assert len(fired) == len(observed_order)
    for (time_ps, depth, pending), (_index, now) in zip(fired,
                                                        observed_order):
        assert time_ps == now
        assert depth == pending


@pytest.mark.parametrize("seed", range(16))
def test_perturbed_children_follow_instant_queue(seed):
    """Same-instant children fire after every pre-queued sibling.

    Eight events are queued for t=10 before the run.  When they fire
    they schedule children (and grandchildren) at ``now`` through
    every scheduling surface.  The perturbation may shuffle the
    pre-queued eight among themselves and the children among
    themselves, never a child ahead of a pre-queued event.
    """
    sim = Simulator()
    sim._perturb = random.Random(seed)
    order = []

    def grandchild(label):
        order.append(("grandchild", label))

    def child(label):
        order.append(("child", label))
        sim.call_after(0, lambda: grandchild(label))

    def parent(index):
        order.append(("queued", index))
        sim.at(sim.now, lambda: child((index, "at")))
        sim.call_at(sim.now, lambda: child((index, "call_at")))
        sim.schedule_batch([(sim.now, lambda: child((index, "batch"))),
                            (sim.now + 1, lambda: order.append(
                                ("later", index)))])

    def early():
        # Scheduled from an earlier instant, so queued for t=10 before
        # t=10's dispatch began.
        sim.call_at(10, lambda: parent(7))

    for index in range(7):
        sim.call_at(10, lambda index=index: parent(index))
    sim.call_at(5, early)
    sim.run()

    kinds = [kind for kind, _ in order]
    assert kinds[:8] == ["queued"] * 8
    assert sorted(kinds[8:56]) == ["child"] * 24 + ["grandchild"] * 24
    assert kinds[56:] == ["later"] * 8
    # Scheduler-before-scheduled: every grandchild follows its child.
    position = {entry: at for at, entry in enumerate(order)}
    for index in range(8):
        for surface in ("at", "call_at", "batch"):
            label = (index, surface)
            assert position[("child", label)] < \
                position[("grandchild", label)]
