"""Admission control: bounded queues, deterministic shedding.

The admission controller owns the serve queues — one sorted list per
tenant — and is the only component that drops work.  Policy is
*insert-then-enforce*: an arriving request is always inserted in its
tenant's queue first, then the per-tenant bound and the global bound
are enforced by shedding the **worst** queued request (highest
:attr:`~repro.serve.spec.RequestSpec.sort_key`, i.e. lowest urgency).
A new urgent request therefore displaces queued background work
rather than being turned away by it.

Every decision is a pure function of queue contents, so shedding is
deterministic: ties cannot occur (``sort_key`` ends in the unique
request id) and global-bound victims are compared by
``(sort_key, tenant name)``.

Next to the tenant queues sits a second index over the same entries:
one sorted list per catalog module.  Dispatch reads a queue's head,
eviction its tail, and batch matching a module's most urgent prefix,
so sorted lists serve all three ends; removal is a ``bisect`` on the
unique sort key, never a scan.

Backpressure is explicit: :attr:`AdmissionController.backpressure`
reports when total depth crosses the high-water mark (80% of the
global bound), and the service mirrors it into the
``serve.queue.backpressure`` gauge so an operator can see saturation
before sheds start.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.serve.spec import RequestSpec, ServeSpec

__all__ = ["AdmissionController", "SHED_INFEASIBLE", "SHED_QUEUE_FULL"]

#: Shed because a queue bound was exceeded.
SHED_QUEUE_FULL = "queue_full"
#: Shed because the deadline cannot be met even if dispatched now.
SHED_INFEASIBLE = "infeasible"

#: Queue entry: the sort key first, so ``insort`` keeps tenant queues
#: ordered by dispatch urgency.
_Entry = Tuple[Tuple[int, int, int, int], RequestSpec]


class AdmissionController:
    """Bounded per-tenant queues with worst-first shedding."""

    def __init__(self, spec: ServeSpec) -> None:
        self._spec = spec
        self._queues: Dict[str, List[_Entry]] = {
            tenant.name: [] for tenant in spec.tenants}
        #: The same entries indexed by module, for batch matching.
        self._by_module: Dict[str, List[_Entry]] = {
            name: [] for name in spec.module_names}
        #: Tenant names in deterministic iteration order.
        self.tenant_names: Tuple[str, ...] = tuple(sorted(self._queues))
        self._depth = 0

    # -- queue state ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Total queued requests across all tenants."""
        return self._depth

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    @property
    def backpressure(self) -> bool:
        """True once depth crosses 80% of the global bound."""
        return self._depth * 5 >= self._spec.queue_limit * 4

    def head(self, tenant: str) -> Optional[RequestSpec]:
        """The tenant's most urgent queued request, if any."""
        queue = self._queues[tenant]
        return queue[0][1] if queue else None

    def queued(self, tenant: str) -> List[RequestSpec]:
        """The tenant's queue in dispatch order (copy)."""
        return [request for _, request in self._queues[tenant]]

    # -- admission -----------------------------------------------------

    def offer(self, request: RequestSpec, now_ps: int,
              cold_service_ps: int,
              ) -> List[Tuple[RequestSpec, str]]:
        """Admit one request; return the resulting shed decisions.

        The shed victim of a bound violation is usually *not* the
        offered request — insert-then-enforce evicts the worst queued
        entry, which may be older background work.
        """
        if request.tenant not in self._queues:
            raise ServeError(f"request {request.request_id}: unknown "
                             f"tenant {request.tenant!r}")
        module_queue = self._by_module.get(request.module)
        if module_queue is None:
            raise ServeError(f"request {request.request_id}: unknown "
                             f"module {request.module!r}")
        if self._spec.shed_infeasible \
                and now_ps + cold_service_ps > request.deadline_ps:
            return [(request, SHED_INFEASIBLE)]
        shed: List[Tuple[RequestSpec, str]] = []
        queue = self._queues[request.tenant]
        entry = (request.sort_key, request)
        insort(queue, entry)
        insort(module_queue, entry)
        self._depth += 1
        if len(queue) > self._spec.tenant_limit:
            shed.append((self._evict(request.tenant), SHED_QUEUE_FULL))
        if self._depth > self._spec.queue_limit:
            shed.append((self._evict_global(), SHED_QUEUE_FULL))
        return shed

    def _evict(self, tenant: str) -> RequestSpec:
        """Drop and return the tenant's worst queued request."""
        entry = self._queues[tenant].pop()
        _remove(self._by_module[entry[1].module], entry)
        self._depth -= 1
        return entry[1]

    def _evict_global(self) -> RequestSpec:
        """Drop the globally worst request, ties broken by tenant."""
        victim_tenant = ""
        victim_key = None
        for tenant in self.tenant_names:
            queue = self._queues[tenant]
            if not queue:
                continue
            key = (queue[-1][0], tenant)
            if victim_key is None or key > victim_key:
                victim_key = key
                victim_tenant = tenant
        if victim_key is None:  # pragma: no cover - depth>0 guarantees
            raise ServeError("global eviction from empty queues")
        return self._evict(victim_tenant)

    # -- removal (dispatch and preemption requeue) ---------------------

    def take(self, request: RequestSpec) -> None:
        """Remove a specific queued request (it is being dispatched)."""
        entry = (request.sort_key, request)
        queue = self._queues.get(request.tenant)
        if queue is None or not _remove(queue, entry):
            raise ServeError(f"request {request.request_id} is not queued")
        _remove(self._by_module[request.module], entry)
        self._depth -= 1

    def match(self, module: str, limit: int,
              exclude_id: int) -> List[RequestSpec]:
        """Up to ``limit`` queued ``module`` requests, most urgent first.

        Reads the head of the module's index (already in ``sort_key``
        order across tenants); used by the scheduler to coalesce a
        batch.  ``exclude_id`` skips the request that seeded the batch.
        """
        head = self._by_module.get(module, [])[:limit + 1]
        return [request for _, request in head
                if request.request_id != exclude_id][:limit]


def _remove(queue: List[_Entry], entry: _Entry) -> bool:
    """Delete ``entry`` from a sorted queue; False if it is absent.

    Sort keys are unique, so the only candidate sits where the key
    bisects (a 1-tuple sorts before every entry that extends it).
    """
    index = bisect_left(queue, (entry[0],))
    if index < len(queue) and queue[index] == entry:
        del queue[index]
        return True
    return False
