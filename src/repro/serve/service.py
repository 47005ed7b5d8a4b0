"""The fleet service: an event-driven pump over the sim kernel.

One :class:`FleetService` drives a board fleet against a pre-generated
request stream on a single :class:`~repro.sim.kernel.Simulator`.  The
design goal is *order-independence under same-instant perturbation*
(the S903 determinism contract) while still putting real concurrency
on the kernel — several boards complete at one instant, completions
collide with passes — so the race sanitizers have something to check.

The structure that achieves it:

* All shared scheduler state (queues, deficits, board bookkeeping) is
  owned by **pass** events.  At most one pass runs per instant (a set
  of scheduled pass times dedupes requests), so passes never race.
* Arrivals are not events.  The stream is stable-sorted by arrival
  once, and a cursor walks it: a pass at ``T`` admits the prefix with
  ``arrival_ps < T`` and requests the pass at ``next.arrival_ps + 1``.
  Every distinct arrival instant ``a`` therefore gets exactly one pass
  at ``a + 1`` — the instants an arrival callback would have asked
  for — and equal arrivals are offered in list order.
* Completion callbacks are pure mailbox appends: they record
  themselves and request a pass at ``finish + 1``.  They touch no
  queue, no board, no counter.
* A pass at instant ``T`` consumes only completions stamped **strictly
  before** ``T``.  Same-instant callbacks can only append items
  stamped ``T``, so the set a pass processes — and everything
  downstream of it — is independent of the order the kernel fired
  those callbacks in.  Items stamped ``T`` wait for the pass at
  ``T + 1`` that their own callback requested.
* The completion mailbox is drained in sorted ``(finish, board)``
  order, never in append order.  Callbacks append at the current sim
  time, so the mailbox is nondecreasing in its stamp and the items a
  pass consumes are a prefix, cut off in place.
* Preemption never cancels events: the board's ``service_generation``
  is bumped, and the stale completion is discarded when drained.

Pass processing order is fixed — completions, admissions, preemption,
dispatch — so freed boards are visible to the dispatcher within the
same pass.  Preemption and dispatch consult the scheduler only while
requests are queued, so an idle pass never calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import current_registry
from repro.obs.metrics import Counter, Gauge, Histogram
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
        # The arrival-sorted stream and the cursor passes advance.
        self._stream: List[RequestSpec] = []
        self._cursor = 0
        # Completion mailbox (append-only from callbacks, drained by
        # passes).
        self._done_inbox: List[Tuple[int, int, int]] = []
        self._scheduled_passes: Set[int] = set()
        # Pass-owned state.
        self._busy: Dict[int, _Service] = {}
        self._completions: List[CompletionRecord] = []
        self._sheds: List[ShedRecord] = []
        self._preemptions = 0
        self._stale = 0
        # Per-pass instruments, bound when the first pass can run;
        # dispatch and completion instruments are bound on first use,
        # so an instrument that is never hit is never created.
        self._passes = self._offered = None
        self._depth_gauge = self._backpressure = None
        self._latency: Optional[Histogram] = None
        self._batches: Optional[Counter] = None
        self._inflight: Optional[Gauge] = None
        self._completed: Optional[Counter] = None
        self._missed: Optional[Counter] = None
        self._dispatch_counters: Dict[bool, Counter] = {}
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
        """Serve the whole stream; returns when the fleet drains.

        ``requests`` may come in any order: the cursor walks a stable
        sort by arrival, so equal arrivals are offered in list order.
        """
        self._stream = sorted(requests,
                              key=lambda request: request.arrival_ps)
        if self._stream:  # an empty stream runs no pass and counts none
            self._passes = self._metrics.counter("serve.passes")
            self._offered = self._metrics.counter(
                "serve.requests.offered")
            self._depth_gauge = self._metrics.gauge("serve.queue.depth")
            self._backpressure = self._metrics.gauge(
                "serve.queue.backpressure")
            self._request_pass(self._stream[0].arrival_ps + 1)
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
        inbox = self._done_inbox
        if inbox and inbox[0][0] < now:
            self._drain_completions(now)
        stream = self._stream
        if self._cursor < len(stream) \
                and stream[self._cursor].arrival_ps < now:
            self._admit_due(now)
        if self._spec.preempt:
            self._preempt_urgent(now)
        self._dispatch(now)
        admission = self._admission
        self._depth_gauge.high_water(admission.depth)
        self._backpressure.set(1 if admission.backpressure else 0)

    def _drain_completions(self, now: int) -> None:
        """Retire the completions stamped before ``now``.

        Only called when the mailbox head is due, so the prefix cut
        off here is never empty.
        """
        inbox = self._done_inbox
        cut = bisect_left(inbox, (now,))
        ready = inbox[:cut]
        del inbox[:cut]
        latency = self._latency
        if latency is None:
            latency = self._latency = self._metrics.histogram(
                "serve.latency_us", bounds=LATENCY_BUCKETS_US)
        completed = self._completed
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
            if completed is None:
                completed = self._completed = self._metrics.counter(
                    "serve.requests.completed")
            size = len(service.batch.requests)
            completed.inc(size)
            for request in service.batch.requests:
                record = CompletionRecord(
                    request=request, finish_ps=finish_ps,
                    board_id=board_id, warm=service.warm,
                    batch_size=size)
                self._completions.append(record)
                latency.observe(record.latency_ps / 1e6)
                if record.missed:
                    if self._missed is None:
                        self._missed = self._metrics.counter(
                            "serve.deadline.missed")
                    self._missed.inc()

    def _admit_due(self, now: int) -> None:
        """Offer the stream prefix that arrived before ``now``.

        Only the pass at ``arrival + 1`` of the cursor's request gets
        here, so the prefix is that request and its equal-arrival
        followers; the pass for the next arrival is requested.
        """
        stream = self._stream
        start = end = self._cursor
        while end < len(stream) and stream[end].arrival_ps < now:
            end += 1
        self._cursor = end
        if end < len(stream):
            self._request_pass(stream[end].arrival_ps + 1)
        self._offered.inc(end - start)
        for request in stream[start:end]:
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
        while self._admission.depth \
                and len(self._busy) >= len(self._fleet):
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
        while self._admission.depth \
                and len(self._busy) < len(self._fleet):
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
            if self._batches is None:
                self._batches = self._metrics.counter(
                    "serve.dispatch.batches")
                self._inflight = self._metrics.gauge("serve.inflight")
            self._batches.inc()
            warmth = self._dispatch_counters.get(warm)
            if warmth is None:
                warmth = self._dispatch_counters[warm] = \
                    self._metrics.counter("serve.dispatch.warm" if warm
                                          else "serve.dispatch.cold")
            warmth.inc()
            dispatches = self._board_counters.get(board.board_id)
            if dispatches is None:
                dispatches = self._board_counters[board.board_id] = \
                    self._metrics.counter(
                        f"serve.board.{board.board_id}.dispatches")
            dispatches.inc()
            self._inflight.high_water(len(self._busy))
            track = self._tracks.get(board.board_id)
            if track is not None:
                track.enter(batch.module, warm=warm,
                            requests=len(batch.requests))
            self._schedule_completion(finish, board.board_id,
                                      generation)
