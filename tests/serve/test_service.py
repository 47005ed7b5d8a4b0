"""Fleet service end-to-end: accounting, affinity, preemption."""

import random
from dataclasses import replace
from itertools import groupby

import pytest

from repro.obs import install as obs_install
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    FleetService,
    ServeSpec,
    build_report,
    generate_requests,
)
from repro.serve.admission import SHED_INFEASIBLE, SHED_QUEUE_FULL
from repro.serve.fleet import ServiceTimeTable
from repro.serve.scheduler import FairScheduler
from repro.serve.spec import RequestSpec, TenantSpec
from repro.sim.kernel import Simulator

FAR = 1_000_000_000_000


@pytest.fixture(scope="module")
def default_table():
    # Service-time measurement is memoised process-wide, so one
    # module-scoped table keeps these tests fast.
    return ServiceTimeTable(ServeSpec())


def serve(spec, requests=None, table=None):
    service = FleetService(spec, table=table)
    if requests is None:
        rate = service.table.resolved_rate_rps()
        requests = generate_requests(spec, rate)
    return service.run(requests)


class TestAccounting:
    def test_every_request_completes_or_sheds(self, default_table):
        spec = ServeSpec(requests=300)
        outcome = serve(spec, table=default_table)
        completed = {c.request.request_id for c in outcome.completions}
        shed = {s.request.request_id for s in outcome.sheds}
        assert not completed & shed
        assert completed | shed == set(range(300))

    def test_outcome_is_sorted(self, default_table):
        spec = ServeSpec(requests=300, load=4.0, queue_limit=16,
                         tenant_limit=16)
        outcome = serve(spec, table=default_table)
        finishes = [(c.finish_ps, c.request.request_id)
                    for c in outcome.completions]
        assert finishes == sorted(finishes)
        sheds = [(s.time_ps, s.request.request_id)
                 for s in outcome.sheds]
        assert sheds == sorted(sheds)

    def test_repeat_runs_identical(self, default_table):
        spec = ServeSpec(requests=200)
        first = serve(spec, table=default_table)
        second = serve(spec, table=default_table)
        assert first.completions == second.completions
        assert first.sheds == second.sheds
        assert first.end_ps == second.end_ps


class TestWarmAffinity:
    def test_single_module_fleet_stays_warm(self, default_table):
        tenants = (TenantSpec("only", 1.0, modules=("aes_core",)),)
        spec = ServeSpec(tenants=tenants, boards=2, requests=200,
                         load=1.0)
        outcome = serve(spec, table=default_table)
        cold_batches = {(c.finish_ps, c.board_id)
                        for c in outcome.completions if not c.warm}
        # Only the first load of each board is cold.
        assert len(cold_batches) <= 2
        assert any(c.warm for c in outcome.completions)


class TestShedding:
    def test_tiny_queues_shed_queue_full(self, default_table):
        spec = ServeSpec(requests=300, load=8.0, queue_limit=2,
                         tenant_limit=2)
        outcome = serve(spec, table=default_table)
        assert outcome.sheds
        assert {s.reason for s in outcome.sheds} == {SHED_QUEUE_FULL}
        assert len(outcome.completions) + len(outcome.sheds) == 300

    def test_hopeless_deadlines_shed_infeasible(self, default_table):
        # 5 us deadlines can never cover a ~13 us cold load.
        tenants = (TenantSpec("doomed", 1.0, modules=("aes_core",),
                              deadline_us=5.0),)
        spec = ServeSpec(tenants=tenants, requests=50,
                         shed_infeasible=True)
        outcome = serve(spec, table=default_table)
        assert not outcome.completions
        assert len(outcome.sheds) == 50
        assert {s.reason for s in outcome.sheds} == {SHED_INFEASIBLE}


class TestBatching:
    def test_backlog_coalesces_into_batches(self, default_table):
        tenants = (TenantSpec("only", 1.0, modules=("aes_core",)),)
        spec = ServeSpec(tenants=tenants, boards=1, batch_limit=4)
        requests = [
            RequestSpec(request_id=i, tenant="only", module="aes_core",
                        arrival_ps=1000 + i, deadline_ps=FAR,
                        priority=2)
            for i in range(8)]
        outcome = serve(spec, requests=requests, table=default_table)
        assert len(outcome.completions) == 8
        # The first request dispatches alone; the backlog that piles
        # up behind it drains as one full and one partial batch.
        assert sorted(c.batch_size for c in outcome.completions) \
            == [1, 3, 3, 3, 4, 4, 4, 4]


def preemption_spec(preempt):
    tenants = (
        TenantSpec("bulk", 1.0, modules=("matrix_mult",), priority=3),
        TenantSpec("rt", 1.0, modules=("aes_core",), priority=0,
                   deadline_us=35.0),
    )
    return ServeSpec(tenants=tenants, boards=1, preempt=preempt)


def preemption_requests():
    # bulk occupies the only board (~47 us); rt arrives mid-flight
    # with a 30 us budget: feasible now, hopeless if it waits.
    return [
        RequestSpec(request_id=0, tenant="bulk", module="matrix_mult",
                    arrival_ps=1000, deadline_ps=FAR, priority=3),
        RequestSpec(request_id=1, tenant="rt", module="aes_core",
                    arrival_ps=5_000_000, deadline_ps=35_000_000,
                    priority=0),
    ]


class TestPreemption:
    def test_urgent_request_preempts_background(self, default_table):
        outcome = serve(preemption_spec(True),
                        requests=preemption_requests(),
                        table=default_table)
        assert outcome.preemptions == 1
        # The interrupted load's completion event fires anyway and is
        # discarded by the generation check.
        assert outcome.stale_completions == 1
        by_id = {c.request.request_id: c for c in outcome.completions}
        assert set(by_id) == {0, 1}
        assert not by_id[1].missed
        assert by_id[1].finish_ps < by_id[0].finish_ps

    def test_without_preemption_the_deadline_is_missed(
            self, default_table):
        outcome = serve(preemption_spec(False),
                        requests=preemption_requests(),
                        table=default_table)
        assert outcome.preemptions == 0
        assert outcome.stale_completions == 0
        by_id = {c.request.request_id: c for c in outcome.completions}
        assert by_id[1].missed


class TestMetrics:
    def test_serve_counters_match_outcome(self, default_table):
        registry = MetricsRegistry()
        obs_install(registry=registry)
        try:
            spec = ServeSpec(requests=200, load=4.0, queue_limit=8,
                             tenant_limit=8)
            outcome = serve(spec, table=default_table)
        finally:
            obs_install()
        counters = registry.snapshot()["counters"]
        assert counters["serve.requests.offered"] == 200
        assert counters["serve.requests.completed"] \
            == len(outcome.completions)
        assert counters.get("serve.requests.shed", 0) \
            == len(outcome.sheds)
        assert counters["serve.dispatch.cold"] >= 1
        assert counters["serve.passes"] > 0


class TestStreamOrder:
    """``run`` takes the stream in any order; ties keep list order."""

    SPEC = ServeSpec(requests=300, load=2.0, seed=9, queue_limit=32,
                     tenant_limit=16, shed_infeasible=True)

    def stream(self):
        table = ServiceTimeTable(self.SPEC)
        return generate_requests(self.SPEC, table.resolved_rate_rps())

    def digest(self, requests):
        outcome = serve(self.SPEC, requests=requests)
        assert outcome.requests == tuple(requests)
        return build_report(outcome).digest

    def test_shuffled_stream_gives_the_same_report(self):
        requests = self.stream()
        shuffled = list(requests)
        random.Random(3).shuffle(shuffled)
        assert shuffled != requests
        assert self.digest(shuffled) == self.digest(requests)

    def test_stream_with_equal_arrivals_gives_the_same_report(self):
        # Snap arrivals to a 20 us grid so requests share instants,
        # then reorder whole instants.  Each tie keeps its list order,
        # the order its requests are offered in.
        grid = 20_000_000
        requests = [replace(request,
                            arrival_ps=request.arrival_ps // grid * grid)
                    for request in self.stream()]
        groups = [list(group) for _, group in
                  groupby(requests, key=lambda r: r.arrival_ps)]
        assert any(len(group) > 1 for group in groups)
        random.Random(3).shuffle(groups)
        reordered = [request for group in groups for request in group]
        assert reordered != requests
        assert self.digest(reordered) == self.digest(requests)


class _CountingObserver:
    """Kernel observer that counts dispatched events."""

    def __init__(self):
        self.events = 0

    def run_started(self, time_ps: int, pending):
        pass

    def event_fired(self, time_ps: int, depth):
        self.events += 1

    def run_finished(self, time_ps: int, pending):
        pass


class TestEventBudget:
    """The pump puts passes and completions on the kernel, no more."""

    def test_passes_and_completions_are_the_only_events(
            self, monkeypatch):
        tenants = (
            TenantSpec("bulk", 3.0,
                       modules=("matrix_mult", "turbo_decoder"),
                       priority=3),
            TenantSpec("rt", 1.0, modules=("aes_core",), priority=0,
                       deadline_us=60.0),
        )
        spec = ServeSpec(tenants=tenants, boards=1, requests=200,
                         load=1.0, seed=5, preempt=True,
                         shed_infeasible=True)
        table = ServiceTimeTable(spec)
        requests = generate_requests(spec, table.resolved_rate_rps())

        sim = Simulator()
        sim.observer = observer = _CountingObserver()
        scheduled = []
        call_at = sim.call_at

        def recording_call_at(time_ps: int, callback):
            scheduled.append((time_ps, callback))
            call_at(time_ps, callback)

        sim.call_at = recording_call_at
        depths = []
        next_batch = FairScheduler.next_batch

        def depth_checked(scheduler, admission):
            depths.append(admission.depth)
            return next_batch(scheduler, admission)

        monkeypatch.setattr(FairScheduler, "next_batch", depth_checked)
        registry = MetricsRegistry()
        obs_install(registry=registry)
        try:
            service = FleetService(spec, table=table, sim=sim)
            outcome = service.run(requests)
        finally:
            obs_install()
        counters = registry.snapshot()["counters"]
        passes = counters["serve.passes"]
        batches = counters["serve.dispatch.batches"]
        assert outcome.stale_completions > 0  # preemption happened

        # Every event is a pass or a completion (stale ones included).
        pass_times = [time_ps for time_ps, callback in scheduled
                      if callback == service._pass]
        finish_times = [time_ps for time_ps, callback in scheduled
                        if callback != service._pass]
        assert len(finish_times) == batches
        assert observer.events == passes + batches

        # The scheduler only runs with work queued: one call a batch.
        assert len(depths) == batches
        assert min(depths) > 0

        # One pass right after each arrival and completion instant.
        expected = ({request.arrival_ps + 1 for request in requests}
                    | {finish_ps + 1 for finish_ps in finish_times})
        assert sorted(pass_times) == sorted(expected)
        assert passes == len(expected)
