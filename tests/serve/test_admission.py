"""Admission control: bounds, worst-first shedding, backpressure."""

import random
from bisect import insort

import pytest

from repro.errors import ServeError
from repro.serve import ServeSpec
from repro.serve.admission import (
    AdmissionController,
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
)
from repro.serve.spec import RequestSpec, TenantSpec

COLD_PS = 10_000_000  # 10 us nominal cold service

TENANTS = (
    TenantSpec("a", 1.0, modules=("aes_core",), priority=1,
               deadline_us=100.0),
    TenantSpec("b", 1.0, modules=("aes_core",), priority=3,
               deadline_us=100.0),
)


def controller(**kwargs):
    defaults = dict(tenants=TENANTS, queue_limit=8, tenant_limit=4)
    defaults.update(kwargs)
    return AdmissionController(ServeSpec(**defaults))


def request(request_id, tenant="a", priority=None, arrival_ps: int = 0,
            deadline_ps: int = 1_000_000_000):
    priorities = {"a": 1, "b": 3}
    return RequestSpec(
        request_id=request_id, tenant=tenant, module="aes_core",
        arrival_ps=arrival_ps, deadline_ps=deadline_ps,
        priority=priorities[tenant] if priority is None else priority)


def test_admits_and_tracks_depth():
    admission = controller()
    assert admission.offer(request(0), 0, COLD_PS) == []
    assert admission.depth == 1
    assert admission.tenant_depth("a") == 1
    assert admission.head("a").request_id == 0


def test_unknown_tenant_rejected():
    admission = controller()
    bad = RequestSpec(request_id=0, tenant="ghost",
                      module="aes_core", arrival_ps=0,
                      deadline_ps=100, priority=1)
    with pytest.raises(ServeError):
        admission.offer(bad, 0, COLD_PS)


def test_tenant_bound_sheds_worst_of_that_tenant():
    admission = controller()
    # Fill tenant a with deadlines 40..10: later offers are *more*
    # urgent, so each insertion evicts the least urgent survivor.
    for index, deadline in enumerate((40, 30, 20, 10)):
        shed = admission.offer(
            request(index, deadline_ps=deadline * 1_000_000), 0,
            COLD_PS)
        assert shed == []
    shed = admission.offer(
        request(9, deadline_ps=5_000_000), 0, COLD_PS)
    assert [(victim.request_id, reason) for victim, reason in shed] \
        == [(0, SHED_QUEUE_FULL)]  # deadline 40us was the worst
    assert admission.tenant_depth("a") == 4


def test_global_bound_sheds_lowest_urgency_tenant():
    admission = controller(queue_limit=4, tenant_limit=4)
    admission.offer(request(0, "a"), 0, COLD_PS)
    admission.offer(request(1, "a"), 0, COLD_PS)
    admission.offer(request(2, "b"), 0, COLD_PS)
    admission.offer(request(3, "b"), 0, COLD_PS)
    # The global victim is tenant b's tail (priority 3 > priority 1).
    shed = admission.offer(request(4, "a"), 0, COLD_PS)
    assert [(victim.request_id, reason) for victim, reason in shed] \
        == [(3, SHED_QUEUE_FULL)]
    assert admission.depth == 4


def test_infeasible_shed_when_enabled():
    admission = controller(shed_infeasible=True)
    hopeless = request(0, deadline_ps=COLD_PS // 2)
    shed = admission.offer(hopeless, 0, COLD_PS)
    assert [(victim.request_id, reason) for victim, reason in shed] \
        == [(0, SHED_INFEASIBLE)]
    assert admission.depth == 0


def test_infeasible_ignored_when_disabled():
    admission = controller()
    hopeless = request(0, deadline_ps=COLD_PS // 2)
    assert admission.offer(hopeless, 0, COLD_PS) == []
    assert admission.depth == 1


def test_take_removes_specific_request():
    admission = controller()
    admission.offer(request(0), 0, COLD_PS)
    admission.offer(request(1), 0, COLD_PS)
    admission.take(request(0))
    assert admission.depth == 1
    assert admission.head("a").request_id == 1
    with pytest.raises(ServeError):
        admission.take(request(0))


def test_match_merges_tenants_by_urgency():
    admission = controller()
    admission.offer(request(0, "b"), 0, COLD_PS)
    admission.offer(request(1, "a"), 0, COLD_PS)
    admission.offer(request(2, "a"), 0, COLD_PS)
    riders = admission.match("aes_core", limit=2, exclude_id=1)
    # Priority 1 (tenant a) outranks priority 3 (tenant b).
    assert [r.request_id for r in riders] == [2, 0]


def test_backpressure_high_water():
    admission = controller(queue_limit=10, tenant_limit=10)
    for index in range(7):
        admission.offer(request(index), 0, COLD_PS)
    assert not admission.backpressure
    admission.offer(request(7), 0, COLD_PS)
    assert admission.backpressure  # 8/10 >= 80%


def test_queued_returns_dispatch_order():
    admission = controller()
    admission.offer(request(0, deadline_ps=90_000_000), 0, COLD_PS)
    admission.offer(request(1, deadline_ps=10_000_000), 0, COLD_PS)
    assert [r.request_id for r in admission.queued("a")] == [1, 0]


def test_unknown_module_rejected():
    admission = controller()
    bad = RequestSpec(request_id=0, tenant="a", module="ghost_core",
                      arrival_ps=0, deadline_ps=100, priority=1)
    with pytest.raises(ServeError, match="unknown module"):
        admission.offer(bad, 0, COLD_PS)
    assert admission.depth == 0


def test_take_accepts_an_equal_but_distinct_request():
    admission = controller()
    queued = request(0)
    admission.offer(queued, 0, COLD_PS)
    twin = request(0)
    assert twin == queued and twin is not queued
    admission.take(twin)
    assert admission.depth == 0
    assert admission.queued("a") == []
    assert admission.match("aes_core", limit=4, exclude_id=-1) == []


def test_take_of_an_unqueued_request_leaves_depth_unchanged():
    admission = controller()
    admission.offer(request(0), 0, COLD_PS)
    admission.offer(request(1, "b"), 0, COLD_PS)
    # Same id as a queued request but a different deadline: not queued.
    for stranger in (request(2), request(0, deadline_ps=7),
                     request(1, "a", priority=3)):
        with pytest.raises(ServeError, match="not queued"):
            admission.take(stranger)
        assert admission.depth == 2
    assert [r.request_id for r in admission.queued("a")] == [0]
    assert [r.request_id for r in admission.queued("b")] == [1]


class LinearAdmission:
    """Reference model: tenant queues only, linear ``take``/``match``.

    The admission controller before it gained its per-module index;
    the indexed controller must agree with it on every observable.
    """

    def __init__(self, spec):
        self._spec = spec
        self._queues = {tenant.name: [] for tenant in spec.tenants}
        self.tenant_names = tuple(sorted(self._queues))
        self.depth = 0

    def head(self, tenant):
        queue = self._queues[tenant]
        return queue[0][1] if queue else None

    def queued(self, tenant):
        return [request for _, request in self._queues[tenant]]

    def offer(self, request, now_ps: int, cold_service_ps: int):
        if self._spec.shed_infeasible \
                and now_ps + cold_service_ps > request.deadline_ps:
            return [(request, SHED_INFEASIBLE)]
        shed = []
        queue = self._queues[request.tenant]
        insort(queue, (request.sort_key, request))
        self.depth += 1
        if len(queue) > self._spec.tenant_limit:
            shed.append((self._evict(request.tenant), SHED_QUEUE_FULL))
        if self.depth > self._spec.queue_limit:
            victim = max((queue[-1][0], tenant)
                         for tenant, queue in self._queues.items()
                         if queue)[1]
            shed.append((self._evict(victim), SHED_QUEUE_FULL))
        return shed

    def _evict(self, tenant):
        self.depth -= 1
        return self._queues[tenant].pop()[1]

    def take(self, request):
        queue = self._queues[request.tenant]
        entry = (request.sort_key, request)
        for index, candidate in enumerate(queue):
            if candidate == entry:
                del queue[index]
                self.depth -= 1
                return
        raise ServeError(f"request {request.request_id} is not queued")

    def match(self, module, limit, exclude_id):
        found = [request for tenant in self.tenant_names
                 for _, request in self._queues[tenant]
                 if request.module == module
                 and request.request_id != exclude_id]
        found.sort(key=lambda request: request.sort_key)
        return found[:limit]


INDEX_TENANTS = (
    TenantSpec("a", 1.0, modules=("aes_core", "fir_filter"), priority=1,
               deadline_us=100.0),
    TenantSpec("b", 2.0, modules=("fir_filter", "viterbi"), priority=0,
               deadline_us=100.0),
    TenantSpec("c", 1.0, modules=("aes_core", "viterbi", "fft_engine"),
               priority=3, deadline_us=100.0),
)
INDEX_MODULES = ("aes_core", "fir_filter", "viterbi", "fft_engine")


def ids(requests):
    return [request.request_id for request in requests]


@pytest.mark.parametrize("seed", range(12))
def test_module_index_matches_the_linear_reference(seed):
    rng = random.Random(seed)
    spec = ServeSpec(tenants=INDEX_TENANTS,
                     queue_limit=rng.choice((4, 9, 16)),
                     tenant_limit=rng.choice((3, 6, 16)),
                     shed_infeasible=rng.random() < 0.5)
    indexed = AdmissionController(spec)
    linear = LinearAdmission(spec)
    issued = []
    for step in range(400):
        roll = rng.random()
        if roll < 0.55:
            tenant = rng.choice(INDEX_TENANTS)
            arrival = rng.randrange(0, 1_000)
            offered = RequestSpec(
                request_id=len(issued), tenant=tenant.name,
                module=rng.choice(tenant.modules), arrival_ps=arrival,
                deadline_ps=arrival + rng.randrange(1, 60),
                priority=rng.randrange(0, 4))
            issued.append(offered)
            now, cold = rng.randrange(0, 1_000), rng.randrange(1, 30)
            assert [(victim.request_id, reason) for victim, reason
                    in indexed.offer(offered, now, cold)] \
                == [(victim.request_id, reason) for victim, reason
                    in linear.offer(offered, now, cold)], step
        elif roll < 0.8:
            # Mostly queued requests, sometimes one already gone.
            queued = [request for name in linear.tenant_names
                      for request in linear.queued(name)]
            pool = queued if queued and rng.random() < 0.85 else issued
            if not pool:
                continue
            victim = rng.choice(pool)
            try:
                linear.take(victim)
            except ServeError:
                with pytest.raises(ServeError):
                    indexed.take(victim)
            else:
                indexed.take(victim)
        else:
            module = rng.choice(INDEX_MODULES)
            limit = rng.randrange(0, 8)
            exclude = rng.randrange(-1, len(issued) + 1)
            assert ids(indexed.match(module, limit, exclude)) \
                == ids(linear.match(module, limit, exclude)), step
        assert indexed.depth == linear.depth, step
        for name in linear.tenant_names:
            assert ids(indexed.queued(name)) == ids(linear.queued(name))
            assert indexed.head(name) == linear.head(name)
        for module in INDEX_MODULES:
            assert ids(indexed.match(module, 1_000, -1)) \
                == ids(linear.match(module, 1_000, -1)), step
