"""Happens-before core: clocks, edges, instant boundaries."""

from repro.sanitize.hb import (
    HBTracker,
    Task,
    TrackerListener,
    VectorClock,
    happens_before,
)
from repro.sim import Delay, Event, Process, Signal


class Recorder(TrackerListener):
    """Collects the task stream and instant boundaries for asserts."""

    def __init__(self):
        self.tasks = []
        self.instants = []

    def on_task_begin(self, task):
        self.tasks.append(task)

    def on_instant_end(self, time_ps: int):
        self.instants.append(time_ps)

    def by_label(self, fragment):
        # Match against the local name only — qualnames embed the
        # enclosing test's name, which would match everything.
        [task] = [t for t in self.tasks
                  if fragment in t.label.split("<locals>.")[-1]]
        return task


def tracked(sim):
    tracker = HBTracker(sim)
    recorder = Recorder()
    tracker.listeners.append(recorder)
    sim.sanitizer = tracker
    return tracker, recorder


# -- vector clocks ----------------------------------------------------

def test_vector_clock_join_and_leq():
    a = VectorClock({1: 1})
    b = VectorClock({2: 1})
    joined = a.join(b)
    assert joined.get(1) == 1 and joined.get(2) == 1
    assert a.leq(joined) and b.leq(joined)
    assert not joined.leq(a)
    # join does not mutate its inputs
    assert a.get(2) == 0


def test_time_barrier_orders_different_instants():
    early = Task("early", ("f.py", 1), "at")
    late = Task("late", ("f.py", 2), "at")
    early.time_ps, early.tid = 100, 0
    late.time_ps, late.tid = 200, 1
    assert happens_before(early, late)
    assert not happens_before(late, early)


def test_same_instant_without_edges_is_unordered():
    a = Task("a", ("f.py", 1), "at")
    b = Task("b", ("f.py", 2), "at")
    a.time_ps = b.time_ps = 100
    a.tid, b.tid = 0, 1
    assert not happens_before(a, b)
    assert not happens_before(b, a)
    assert happens_before(a, a)  # reflexive


# -- scheduling edges on a live kernel --------------------------------

def test_scheduler_happens_before_scheduled_same_instant(sim):
    tracker, recorder = tracked(sim)

    def parent():
        sim.call_at(sim.now, child)

    def child():
        pass

    sim.call_at(100, parent)
    sim.run()
    tracker.finish()
    parent_task = recorder.by_label("parent")
    child_task = recorder.by_label("child")
    assert parent_task.time_ps == child_task.time_ps == 100
    assert happens_before(parent_task, child_task)
    assert not happens_before(child_task, parent_task)


def test_sibling_schedules_stay_unordered(sim):
    tracker, recorder = tracked(sim)
    sim.call_at(100, lambda: None)
    sim.at(100, lambda: None)
    sim.run()
    tracker.finish()
    first, second = recorder.tasks
    assert first.time_ps == second.time_ps == 100
    assert not happens_before(first, second)
    assert not happens_before(second, first)


def test_same_instant_siblings_inherit_the_scheduler_edge(sim):
    tracker, recorder = tracked(sim)

    def child_a():
        pass

    def child_b():
        pass

    def parent():
        sim.call_at(sim.now, child_a)
        sim.call_at(sim.now, child_b)

    sim.call_at(50, parent)
    sim.run()
    tracker.finish()
    parent_task = recorder.by_label("parent")
    children = [t for t in recorder.tasks if t is not parent_task]
    assert len(children) == 2
    assert all(happens_before(parent_task, child) for child in children)
    # the two siblings have no edge between each other
    assert not happens_before(children[0], children[1])


def test_transitive_chain_through_nested_schedules(sim):
    tracker, recorder = tracked(sim)

    def a():
        sim.call_at(sim.now, b)

    def b():
        sim.call_at(sim.now, c)

    def c():
        pass

    sim.call_at(10, a)
    sim.run()
    tracker.finish()
    task_a = recorder.by_label("a")
    task_c = recorder.by_label("c")
    assert happens_before(task_a, task_c)


# -- synchronization edges --------------------------------------------

def test_event_registration_orders_registrant_before_delivery(sim):
    tracker, recorder = tracked(sim)
    event = Event(sim, "go")

    def registrant():
        event.add_waiter(lambda ev: None)

    def trigger():
        event.trigger()

    sim.call_at(100, registrant)
    sim.at(100, trigger)
    sim.run()
    tracker.finish()
    reg_task = recorder.by_label("registrant")
    delivery = recorder.by_label("<- go")
    assert delivery.kind == "deliver"
    assert happens_before(reg_task, delivery)
    # the delivery also sits under its triggering task
    assert happens_before(recorder.by_label("trigger"), delivery)


def test_signal_observer_delivery_joins_registration(sim):
    tracker, recorder = tracked(sim)
    signal = Signal(sim, "level")

    def registrant():
        signal.observe(lambda value, time: None)

    sim.call_at(100, registrant)
    sim.call_at(100, lambda: signal.set(1))
    sim.run()
    tracker.finish()
    delivery = recorder.by_label("<- level")
    assert happens_before(recorder.by_label("registrant"), delivery)


def test_process_resume_is_labelled_and_points_at_spawn(sim):
    tracker, recorder = tracked(sim)

    def body():
        yield Delay(10)
        yield Delay(10)

    def spawner():
        Process(sim, body(), name="worker")

    sim.call_at(100, spawner)
    sim.run()
    tracker.finish()
    # the inline first segment keeps the spawner's identity; only the
    # two scheduled resumes carry the process label.
    spawn_task = recorder.by_label("spawner")
    resumes = [t for t in recorder.tasks
               if t.label == "process:worker"]
    assert len(resumes) == 2
    # every resume's origin points back at the Process(...) call site
    assert {t.origin_site for t in resumes} == {resumes[0].origin_site}
    assert resumes[0].origin_site[0] == spawn_task.site[0] == __file__


# -- instant boundaries -----------------------------------------------

def test_instant_end_fires_between_instants_and_at_finish(sim):
    tracker, recorder = tracked(sim)
    sim.at(100, lambda: None)
    sim.at(100, lambda: None)
    sim.at(200, lambda: None)
    sim.run()
    assert recorder.instants == [100]  # 200 still open
    tracker.finish()
    assert recorder.instants == [100, 200]
    tracker.finish()  # idempotent
    assert recorder.instants == [100, 200]


def test_tasks_run_counts_every_dispatch(sim):
    tracker, recorder = tracked(sim)
    for _ in range(3):
        sim.call_at(10, lambda: None)
    sim.run()
    tracker.finish()
    assert tracker.tasks_run == 3
    assert len(recorder.tasks) == 3
