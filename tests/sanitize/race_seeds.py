"""Runnable race seeds for the sanitizer tests.

Each ``Controller`` method schedules one shape of work that reads as a
race from source text.  Two shapes really depend on same-instant
event order and the sanitizers must catch them; the others are
ordered, exclusive or order-free at run time and must stay silent.
:func:`drive` runs one seed on a fresh simulator and returns every
piece of state a seed touches, so a perturbed re-run that reorders
anything observable shows up in the returned value.
"""

from repro.sim import Simulator

#: Module-level state that ``defer``'s scheduled lambda mutates.
PENDING = []


def enqueue(item):
    PENDING.append(item)


class Controller:
    def __init__(self, sim):
        self.sim = sim
        self.pending = []
        self.backlog = 0
        self.log = []

    def arm(self, delay):
        # Both callbacks mutate self.pending in place: order-dependent
        # when delay is 0, ordered by time otherwise.
        self.sim.call_after(delay, self.flush)
        self.sim.call_after(delay * 2, self.reset)

    def flush(self):
        self.pending.append("flush")

    def reset(self):
        self.pending.clear()

    def sample(self):
        # Same instant, one writes what the other reads.
        self.sim.call_at(1000, self.bump)
        self.sim.call_at(1000, self.observe)

    def bump(self):
        self.backlog += 1

    def observe(self):
        self.log.append(self.backlog)

    def defer(self):
        # A lone scheduled lambda mutating module-level state.
        self.sim.call_after(5, lambda: enqueue("late"))

    def storm(self, jobs):
        # Every iteration schedules the same append at one instant;
        # the result is the same in any order.
        for _job in range(jobs):
            self.sim.call_after(10, self.flush)

    def staged(self, ready):
        # Distinct delays are ordered; the if/else arms never coexist.
        self.sim.call_after(10, self.flush)
        self.sim.call_after(20, self.reset)
        if ready:
            self.sim.call_at(500, self.bump)
        else:
            self.sim.call_at(500, self.observe)


def drive(seed, *args, watch=lambda controller: controller):
    """Run one seed to completion; return all the state it can touch.

    ``watch`` wraps the controller before the seed schedules anything
    (pass a :class:`~repro.sanitize.RaceSanitizer`'s ``watch``).
    """
    del PENDING[:]
    sim = Simulator()
    controller = watch(Controller(sim))
    getattr(controller, seed)(*args)
    sim.run()
    return (list(controller.pending), controller.backlog,
            list(controller.log), list(PENDING))
