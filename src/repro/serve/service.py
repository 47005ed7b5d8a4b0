"""The fleet service: an event-driven pump over the sim kernel.

One :class:`FleetService` drives a board fleet against a pre-generated
request stream on a single :class:`~repro.sim.kernel.Simulator`.  The
design goal is *order-independence under same-instant perturbation*
(the S903 determinism contract) while still putting real concurrency
on the kernel — several boards complete at one instant, arrivals
collide with completions — so the race sanitizers have something to
check.

The structure that achieves it:

* All shared scheduler state (queues, deficits, board bookkeeping) is
  owned by **pass** events.  At most one pass runs per instant (a set
  of scheduled pass times dedupes requests), so passes never race.
* Arrival and completion callbacks are pure mailbox appends: they
  record themselves and request a pass at ``now + 1``.  They touch no
  queue, no board, no counter.
* A pass at instant ``T`` consumes only mailbox items stamped
  **strictly before** ``T``.  Same-instant callbacks can only append
  items stamped ``T``, so the set a pass processes — and everything
  downstream of it — is independent of the order the kernel fired
  those callbacks in.  Items stamped ``T`` wait for the pass at
  ``T + 1`` that their own callback requested.
* Mailboxes are drained in sorted order (arrival time; then
  ``(finish, board)``), never in append order.  Callbacks append at
  the current sim time, so each mailbox is nondecreasing in its stamp
  and the items a pass consumes are a prefix, cut off in place.
* Preemption never cancels events: the board's ``service_generation``
  is bumped, and the stale completion is discarded when drained.

Pass processing order is fixed — completions, admissions, preemption,
dispatch — so freed boards are visible to the dispatcher within the
same pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import current_registry
from repro.obs.metrics import Counter
from repro.obs.tracing import TraceScope
from repro.serve.admission import AdmissionController
from repro.serve.fleet import ServiceTimeTable, build_fleet
from repro.serve.scheduler import Batch, FairScheduler
from repro.serve.spec import RequestSpec, ServeSpec
from repro.sim.kernel import Simulator

__all__ = ["CompletionRecord", "FleetService", "ServeOutcome",
           "ShedRecord"]

#: Latency histogram bucket bounds, in microseconds.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0,
    12800.0,
)


@dataclass(frozen=True)
class CompletionRecord:
    """One request served: where, when, and how."""

    request: RequestSpec
    finish_ps: int
    board_id: int
    warm: bool
    batch_size: int

    @property
    def latency_ps(self) -> int:
        return self.finish_ps - self.request.arrival_ps

    @property
    def missed(self) -> bool:
        return self.finish_ps > self.request.deadline_ps


@dataclass(frozen=True)
class ShedRecord:
    """One request dropped, with the admission decision behind it."""

    request: RequestSpec
    reason: str
    time_ps: int


@dataclass(frozen=True)
class ServeOutcome:
    """Everything a serve run produced, in deterministic order."""

    spec: ServeSpec
    requests: Tuple[RequestSpec, ...]
    completions: Tuple[CompletionRecord, ...]
    sheds: Tuple[ShedRecord, ...]
    end_ps: int
    preemptions: int
    stale_completions: int


@dataclass
class _Service:
    """One in-flight reconfiguration on one board."""

    generation: int
    batch: Batch
    finish_ps: int
    warm: bool
    started_ps: int

    @property
    def priority(self) -> int:
        """The batch's urgency: its most urgent rider."""
        return min(request.priority for request in self.batch.requests)


class FleetService:
    """Run one :class:`ServeSpec` scenario to completion."""

    def __init__(self, spec: ServeSpec,
                 table: Optional[ServiceTimeTable] = None,
                 sim: Optional[Simulator] = None,
                 scope: Optional[TraceScope] = None) -> None:
        self._spec = spec
        self._table = table if table is not None else ServiceTimeTable(spec)
        self._sim = sim if sim is not None else Simulator()
        self._fleet = build_fleet(spec)
        self._admission = AdmissionController(spec)
        self._scheduler = FairScheduler(spec, self._table)
        self._metrics = current_registry()
        self._scope = scope
        self._tracks = {}
        if scope is not None:
            self._tracks = {board.board_id:
                            scope.track(board.name, cat="serve")
                            for board in self._fleet}
        # Mailboxes (append-only from callbacks, drained by passes).
        self._inbox: List[RequestSpec] = []
        self._done_inbox: List[Tuple[int, int, int]] = []
        self._scheduled_passes: Set[int] = set()
        # Pass-owned state.
        self._busy: Dict[int, _Service] = {}
        self._completions: List[CompletionRecord] = []
        self._sheds: List[ShedRecord] = []
        self._preemptions = 0
        self._stale = 0
        # Per-pass instruments, bound when the first pass can run;
        # name-formatted ones are bound on first use, so an instrument
        # that is never hit is never created.
        self._passes = self._depth_gauge = self._backpressure = None
        self._shed_counters: Dict[str, Tuple[Counter, Counter]] = {}
        self._board_counters: Dict[int, Counter] = {}

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def table(self) -> ServiceTimeTable:
        return self._table

    # -- top level -----------------------------------------------------

    def run(self, requests: List[RequestSpec]) -> ServeOutcome:
        """Serve the whole stream; returns when the fleet drains."""
        arrivals = [(request.arrival_ps, partial(self._arrive, request))
                    for request in requests]
        self._sim.schedule_batch(arrivals)
        if arrivals:  # an empty stream runs no pass and counts none
            self._passes = self._metrics.counter("serve.passes")
            self._depth_gauge = self._metrics.gauge("serve.queue.depth")
            self._backpressure = self._metrics.gauge(
                "serve.queue.backpressure")
        end_ps = self._sim.run()
        self._completions.sort(
            key=lambda record: (record.finish_ps,
                                record.request.request_id))
        self._sheds.sort(
            key=lambda record: (record.time_ps,
                                record.request.request_id))
        return ServeOutcome(
            spec=self._spec,
            requests=tuple(requests),
            completions=tuple(self._completions),
            sheds=tuple(self._sheds),
            end_ps=end_ps,
            preemptions=self._preemptions,
            stale_completions=self._stale,
        )

    # -- callbacks (mailbox appends only) ------------------------------

    def _arrive(self, request: RequestSpec) -> None:
        self._inbox.append(request)
        self._request_pass(self._sim.now + 1)

    def _finish(self, finish_ps: int, board_id: int,
                generation: int) -> None:
        self._done_inbox.append((finish_ps, board_id, generation))
        self._request_pass(finish_ps + 1)

    def _request_pass(self, time_ps: int) -> None:
        if time_ps not in self._scheduled_passes:
            self._scheduled_passes.add(time_ps)
            self._sim.call_at(time_ps, self._pass)

    def _schedule_completion(self, finish_ps: int, board_id: int,
                             generation: int) -> None:
        self._sim.call_at(finish_ps, partial(self._finish, finish_ps,
                                             board_id, generation))

    # -- the pass ------------------------------------------------------

    def _pass(self) -> None:
        now = self._sim.now
        self._scheduled_passes.discard(now)
        self._passes.inc()
        self._drain_completions(now)
        self._admit_due(now)
        if self._spec.preempt:
            self._preempt_urgent(now)
        self._dispatch(now)
        self._depth_gauge.high_water(self._admission.depth)
        self._backpressure.set(1 if self._admission.backpressure else 0)

    def _drain_completions(self, now: int) -> None:
        inbox = self._done_inbox
        cut = bisect_left(inbox, (now,))
        if not cut:
            return
        ready = inbox[:cut]
        del inbox[:cut]
        latency = self._metrics.histogram("serve.latency_us",
                                          bounds=LATENCY_BUCKETS_US)
        for finish_ps, board_id, generation in sorted(ready):
            board = self._fleet[board_id]
            service = self._busy.get(board_id)
            if service is None or service.generation != generation \
                    or board.service_generation != generation:
                self._stale += 1
                self._metrics.counter("serve.completions.stale").inc()
                continue
            del self._busy[board_id]
            track = self._tracks.get(board_id)
            if track is not None:
                track.exit()
            size = len(service.batch.requests)
            for request in service.batch.requests:
                record = CompletionRecord(
                    request=request, finish_ps=finish_ps,
                    board_id=board_id, warm=service.warm,
                    batch_size=size)
                self._completions.append(record)
                self._metrics.counter("serve.requests.completed").inc()
                latency.observe(record.latency_ps / 1e6)
                if record.missed:
                    self._metrics.counter("serve.deadline.missed").inc()

    def _admit_due(self, now: int) -> None:
        inbox = self._inbox
        cut = 0
        for request in inbox:
            if request.arrival_ps >= now:
                break
            cut += 1
        if not cut:
            return
        due = inbox[:cut]
        del inbox[:cut]
        due.sort(key=lambda request: request.arrival_ps)
        offered = self._metrics.counter("serve.requests.offered")
        for request in due:
            offered.inc()
            self._offer(request, now)

    def _offer(self, request: RequestSpec, now: int) -> None:
        cold = self._table.service_ps(request.module, warm=False)
        for victim, reason in self._admission.offer(request, now, cold):
            self._sheds.append(ShedRecord(victim, reason, now))
            counters = self._shed_counters.get(reason)
            if counters is None:
                counters = self._shed_counters[reason] = (
                    self._metrics.counter("serve.requests.shed"),
                    self._metrics.counter(f"serve.requests.shed.{reason}"))
            for counter in counters:
                counter.inc()

    def _preempt_urgent(self, now: int) -> None:
        """Preempt a background board for a deadline-critical request.

        Only when every board is busy, only for priority-0 work that
        would miss by waiting but can still make it now, and only at
        the expense of a batch with no priority-0 riders.
        """
        while len(self._busy) >= len(self._fleet):
            urgent = self._scheduler.urgent_head(self._admission)
            if urgent is None:
                return
            cold = self._table.service_ps(urgent.module, warm=False)
            if now + cold > urgent.deadline_ps:
                return  # already infeasible; preempting gains nothing
            earliest = min(service.finish_ps
                           for service in self._busy.values())
            if earliest + 1 + cold <= urgent.deadline_ps:
                return  # waiting for a natural completion still works
            victim_id = self._preemption_victim()
            if victim_id is None:
                return
            self._preempt(victim_id, now)

    def _preemption_victim(self) -> Optional[int]:
        """The busy board running the least urgent preemptable batch."""
        best: Optional[Tuple[int, int, int]] = None
        for board_id in sorted(self._busy):
            service = self._busy[board_id]
            if service.priority == 0:
                continue  # never preempt urgent work
            key = (service.priority, service.finish_ps, board_id)
            if best is None or key > best:
                best = key
        return best[2] if best is not None else None

    def _preempt(self, board_id: int, now: int) -> None:
        service = self._busy.pop(board_id)
        board = self._fleet[board_id]
        board.invalidate()  # stale-ify the in-flight completion
        self._preemptions += 1
        self._metrics.counter("serve.preemptions").inc()
        track = self._tracks.get(board_id)
        if track is not None:
            track.exit()
        # The interrupted requests rejoin the queues as fresh offers
        # (they keep their original arrival, so their latency keeps
        # accruing); bounds may shed them.
        for request in service.batch.requests:
            self._offer(request, now)

    def _dispatch(self, now: int) -> None:
        while len(self._busy) < len(self._fleet):
            batch = self._scheduler.next_batch(self._admission)
            if batch is None:
                return
            free = [board for board in self._fleet
                    if board.board_id not in self._busy]
            board, warm = FairScheduler.pick_board(free, batch.module)
            duration = self._table.service_ps(batch.module, warm)
            self._scheduler.charge(batch, duration)
            generation = board.service_generation
            board.loaded_module = batch.module
            if not warm:
                board.reconfigurations += 1
            finish = now + duration
            self._busy[board.board_id] = _Service(
                generation=generation, batch=batch, finish_ps=finish,
                warm=warm, started_ps=now)
            self._metrics.counter("serve.dispatch.batches").inc()
            self._metrics.counter(
                "serve.dispatch.warm" if warm
                else "serve.dispatch.cold").inc()
            dispatches = self._board_counters.get(board.board_id)
            if dispatches is None:
                dispatches = self._board_counters[board.board_id] = \
                    self._metrics.counter(
                        f"serve.board.{board.board_id}.dispatches")
            dispatches.inc()
            self._metrics.gauge("serve.inflight").high_water(
                len(self._busy))
            track = self._tracks.get(board.board_id)
            if track is not None:
                track.enter(batch.module, warm=warm,
                            requests=len(batch.requests))
            self._schedule_completion(finish, board.board_id,
                                      generation)
