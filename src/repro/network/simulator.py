"""The discrete-event network simulator.

The simulator owns a priority queue of events (message deliveries and timers),
a clock, and the set of :class:`Process` instances standing in for replicas.
Delays come from a :class:`~repro.network.delays.DelayModel`; randomness comes
from a single seeded :class:`random.Random` so every run is reproducible.

The design keeps protocol code synchronous and callback-driven: a process
reacts to :meth:`Process.on_message` and timer callbacks, possibly sending new
messages, and the simulator interleaves everything in timestamp order.

The event kernel is **fan-out-aware**: a broadcast enqueues a single event
carrying the full per-recipient delivery schedule (delays sampled in one
:meth:`~repro.network.delays.DelayModel.sample_many` call, in recipient
order — exactly the RNG consumption order of a per-recipient submission
loop, so seeded runs are bit-identical either way).  The event re-inserts
itself until every recipient is served, keeping the heap proportional to the
number of *pending broadcasts* rather than the number of pending deliveries —
and when consecutive recipients of the same broadcast would be popped
back-to-back anyway, the run loop chains them inline without the heap
round-trip (same delivery order, same counters, fewer heap operations).

The heap holds ``(time, seq, event)`` tuples, not events: ``seq`` comes from
one counter and is unique, so two entries always differ within their first two
fields and ordering is a C tuple compare that never reaches the event object
(events define no ordering at all).  ``seq`` is also the submission order —
timers and deliveries due at the same instant fire in the order they were
submitted — and a broadcast that re-enters the heap, whether displaced by an
earlier event or parked when a run stops, does so as ``(next_time, seq,
event)`` with its **original** ``seq``: its remaining recipients tie-break
exactly as the per-recipient events they stand for would have.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError
from repro.common.types import ReplicaId
from repro.network.delays import ConstantDelay, DelayModel
from repro.network.faults import LinkFaults
from repro.network.message import Message
from repro.network.transport import Process, Transport
from repro.obs import core as obs_core
from repro.obs.core import TICK_S, Probe

__all__ = [
    "NetworkSimulator",
    "Process",
    "SimulationResult",
    "QUEUE_DEPTH_SAMPLE_EVERY",
]

#: Queue depth is sampled every this many processed events (power of two so
#: the hot loop's modulo is a mask); sampling keeps enabled-mode overhead low
#: while still tracing how the backlog evolves.  Note the sampled value counts
#: heap entries: a pending broadcast is one entry regardless of fan-out.
QUEUE_DEPTH_SAMPLE_EVERY = 64


class _Event:
    """Internal event record; its ``(time, seq)`` key lives in the heap entry.

    Two kinds share the class: TIMER callbacks and BROADCAST fan-out events
    (a point-to-point message is a fan-out of one).  A broadcast event
    carries its whole delivery schedule (``deliveries`` is a list of
    ``(time, order, recipient)`` sorted by delivery time) and re-enters the
    heap, keeping its sequence number, until ``cursor`` reaches the end —
    which reproduces exactly the ordering a per-recipient event scheme would
    yield, with one heap entry.
    """

    __slots__ = (
        "kind",
        "message",
        "callback",
        "cancelled",
        "deliveries",
        "fanout",
        "cursor",
        "owner",
        "trace_ctx",
    )

    TIMER = "timer"
    BROADCAST = "broadcast"

    def __init__(
        self,
        kind: str,
        message: Optional[Message] = None,
        callback: Optional[Callable[[], None]] = None,
    ):
        self.kind = kind
        self.message = message
        self.callback = callback
        self.cancelled = False
        self.deliveries: Optional[List[Tuple[float, int, ReplicaId]]] = None
        #: ``len(deliveries)``, kept so re-entering the run loop costs no call.
        self.fanout = 0
        self.cursor = 0
        #: Timer bookkeeping: scheduling replica and, when tracing is
        #: enabled, the trace context captured at scheduling time (restored
        #: around the callback so delayed continuations stay causal).
        self.owner: Optional[ReplicaId] = None
        self.trace_ctx = None


class NetworkSimulator(Transport):
    """Deterministic discrete-event :class:`Transport` backend.

    Implements the full transport seam (submit/broadcast/timers/clock/
    membership) on top of a priority queue of events and virtual time; the
    real-network counterpart is
    :class:`~repro.network.asyncio_transport.AsyncioTransport`.
    """

    def __init__(
        self,
        delay_model: Optional[DelayModel] = None,
        config: Optional[SimulationConfig] = None,
        probe: Optional[Probe] = None,
        faults: Optional[LinkFaults] = None,
    ):
        self.delay_model = delay_model or ConstantDelay(0.01)
        self.config = config or SimulationConfig()
        #: The run's link faults; replace them only between runs.
        self.faults = faults if faults is not None else LinkFaults()
        #: The run's probe, or None (uninstrumented — the default).  Falls
        #: back to the probe installed by ``obs.activate`` so a scenario cell
        #: can instrument the whole stack it builds.  Instrumentation is
        #: observational only — it consumes no randomness and schedules
        #: nothing, so seeded runs are bit-identical with it on or off.
        self.probe = probe if probe is not None else obs_core.current()
        #: Simulated time of the probe's next tick (every ``TICK_S``).
        self.next_tick = 0.0
        self.rng = random.Random(self.config.seed)
        self._queue: List[Tuple[float, int, _Event]] = []
        self._sequence = itertools.count()
        self._processes: Dict[ReplicaId, Process] = {}
        #: Cached sorted membership view, rebuilt only when membership changes.
        self._membership_view: Tuple[ReplicaId, ...] = ()
        self._timers: Dict[int, _Event] = {}
        self._now: float = 0.0
        self._started = False
        #: Live count of queued, non-cancelled deliveries and timers
        #: (broadcasts count one per still-undelivered recipient), maintained
        #: on push/cancel/pop so :meth:`pending_events` is O(1).
        self._pending = 0
        # Observability counters.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.events_processed = 0

    # -- membership ----------------------------------------------------------

    def add_process(self, process: Process) -> None:
        """Register a process; its ``on_start`` runs when the simulation starts."""
        if process.replica_id in self._processes:
            raise SimulationError(
                f"replica {process.replica_id} already registered"
            )
        process.bind(self)
        self._processes[process.replica_id] = process
        self._membership_view = tuple(sorted(self._processes))
        if self._started:
            process.on_start()

    def membership_view(self) -> Tuple[ReplicaId, ...]:
        """Cached sorted tuple of registered replica ids (do not mutate)."""
        return self._membership_view

    def process_for(self, replica_id: ReplicaId) -> Process:
        """Return the process registered for ``replica_id``."""
        try:
            return self._processes[replica_id]
        except KeyError:
            raise SimulationError(f"no process registered for {replica_id}") from None

    # -- event submission ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def submit(self, message: Message) -> None:
        """Queue ``message`` for delivery after a sampled delay (a fan-out of
        one: the same draws, event and counters as a one-target broadcast)."""
        self.submit_broadcast(message, (message.recipient,))

    def submit_broadcast(
        self, message: Message, targets: Sequence[ReplicaId]
    ) -> None:
        """Queue one broadcast envelope for delivery to every target.

        Per-recipient delays are sampled immediately, in target order — the
        same RNG consumption order as submitting one message per recipient —
        and the schedule rides a single heap event.
        """
        count = len(targets)
        if count == 0:
            return
        self.messages_sent += count
        probe = self.probe
        if probe is not None:
            # One stamped envelope serves every recipient; each delivery then
            # opens its own child span under the shared context.
            probe.on_send(message, self._now, count)
        sender = message.sender
        faults = self.faults
        if faults.cut_replicas or faults.loss_rate:
            # Faults drop before sampling: the scalar submission loop never
            # consumed delay randomness for dropped recipients, and the
            # batched path must not either (seeded-run parity).
            reachable = faults.reachable(sender, targets)
            dropped = count - len(reachable)
            if dropped:
                self.messages_dropped += dropped
                if probe is not None:
                    probe.on_drop(message, self._now, dropped)
            if not reachable:
                return
            delays = self.delay_model.sample_many(
                sender, [target for _, target in reachable], self.rng
            )
        else:
            reachable = list(enumerate(targets))
            delays = self.delay_model.sample_many(sender, targets, self.rng)
        if min(delays) < 0:
            raise SimulationError(f"negative delay {min(delays)} sampled")
        now = self._now
        deliveries = sorted(
            [
                (now + delay, order, target)
                for (order, target), delay in zip(reachable, delays)
            ]
        )
        event = _Event(_Event.BROADCAST, message)
        event.deliveries = deliveries
        event.fanout = fanout = len(deliveries)
        heapq.heappush(self._queue, (deliveries[0][0], next(self._sequence), event))
        self._pending += fanout

    def schedule(
        self, delay: float, callback: Callable[[], None], owner: Optional[ReplicaId] = None
    ) -> int:
        """Schedule ``callback`` after ``delay`` seconds; returns a timer id."""
        if delay < 0:
            raise SimulationError("timer delay must be non-negative")
        event = _Event(_Event.TIMER, callback=callback)
        event.owner = owner
        probe = self.probe
        if probe is not None:
            # Capture the active context so the callback runs on the causal
            # chain that scheduled it (e.g. the delivery that armed a grace
            # timer), not on whatever happens to be active when it fires.
            event.trace_ctx = probe.timer_context()
        seq = next(self._sequence)
        heapq.heappush(self._queue, (self._now + delay, seq, event))
        self._timers[seq] = event
        self._pending += 1
        return seq

    def cancel(self, timer_id: int) -> None:
        """Cancel a pending timer; firing or fired timers are ignored."""
        event = self._timers.get(timer_id)
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._pending -= 1

    # -- execution -----------------------------------------------------------

    def _start_processes(self) -> None:
        if not self._started:
            self._started = True
            for replica_id in sorted(self._processes):
                self._processes[replica_id].on_start()

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> "SimulationResult":
        """Process events until the queue drains, a deadline, or a predicate.

        Args:
            until: absolute simulated time at which to stop (defaults to the
                configured ``max_time``).
            stop_when: optional predicate evaluated after every event; the run
                stops as soon as it returns True.
            max_events: optional cap on the number of events processed in this
                call (defaults to the configured ``max_events``).
        """
        self._start_processes()
        deadline = self.config.max_time if until is None else until
        budget = self.config.max_events if max_events is None else max_events
        probe = self.probe
        metrics = probe.metrics if probe is not None else None
        processed = 0
        queue = self._queue
        # Both containers are only ever mutated in place, never rebound.
        cut = self.faults.cut_replicas
        processes = self._processes
        while queue and processed < budget:
            time, seq, event = queue[0]
            if time > deadline:
                break
            heapq.heappop(queue)
            kind = event.kind
            if kind == _Event.TIMER:
                # Drop the bookkeeping entry whether the timer fires or was
                # cancelled — cancelled entries must not outlive their event.
                self._timers.pop(seq, None)
                if event.cancelled:
                    continue
            if time > self._now:
                self._now = time
            if probe is not None and self._now >= self.next_tick:
                self.next_tick = self._now + TICK_S
                probe.tick(self._now, self.events_processed)
            processed += 1
            self.events_processed += 1
            self._pending -= 1
            if (
                metrics is not None
                and self.events_processed % QUEUE_DEPTH_SAMPLE_EVERY == 0
            ):
                metrics.observe("net.queue_depth", len(queue))
            if kind == _Event.TIMER:
                assert event.callback is not None
                if probe is None:
                    event.callback()
                else:
                    probe.fire_timer(
                        event.callback, event.trace_ctx, self._now, event.owner
                    )
            else:
                deliveries = event.deliveries
                assert deliveries is not None and event.message is not None
                cursor = event.cursor
                message = event.message
                total = event.fanout
                while True:
                    recipient = deliveries[cursor][2]
                    message.recipient = recipient
                    cursor += 1
                    if recipient in cut or recipient not in processes:
                        self.messages_dropped += 1
                        if probe is not None:
                            probe.on_drop(message, self._now)
                    else:
                        self.messages_delivered += 1
                        if probe is None:
                            processes[recipient].on_message(message)
                        else:
                            # Counts the delivery and, when tracing,
                            # dispatches inside a child span of the
                            # message's context (one span per recipient).
                            probe.deliver(processes[recipient], message, self._now)
                    if cursor == total:
                        break
                    next_time = deliveries[cursor][0]
                    # Park the rest under the original ``seq`` when the
                    # run is out of budget, past the deadline or stopped
                    # (the post-event check below ends it; stop predicates
                    # are pure, so the extra call is harmless), or when a
                    # queued entry — including any the delivery above just
                    # submitted — orders before (next_time, seq).  Heap
                    # keys are unique, so pushing after the delivery pops
                    # in the same order as pushing before it, and ties
                    # break exactly as per-recipient events would.
                    if (
                        processed >= budget
                        or next_time > deadline
                        or (stop_when is not None and stop_when())
                        or (queue and queue[0] < (next_time, seq))
                    ):
                        event.cursor = cursor
                        heapq.heappush(queue, (next_time, seq, event))
                        break
                    # Chain the next recipient in line, replaying the
                    # per-event bookkeeping the outer loop would have
                    # done for it.  The sampled queue depth is identical
                    # to the heap round-trip scheme: the pop there
                    # happened before the sample, so this in-flight
                    # broadcast never counted.
                    if next_time > self._now:
                        self._now = next_time
                    if probe is not None and self._now >= self.next_tick:
                        self.next_tick = self._now + TICK_S
                        probe.tick(self._now, self.events_processed)
                    processed += 1
                    self.events_processed += 1
                    self._pending -= 1
                    if (
                        metrics is not None
                        and self.events_processed % QUEUE_DEPTH_SAMPLE_EVERY == 0
                    ):
                        metrics.observe("net.queue_depth", len(queue))
            if stop_when is not None and stop_when():
                break
        else:
            if queue and processed >= budget:
                return SimulationResult(
                    time=self._now, events=processed, exhausted_budget=True
                )
        return SimulationResult(time=self._now, events=processed, exhausted_budget=False)

    def pending_events(self) -> int:
        """Number of queued (non-cancelled) deliveries and timers, O(1).

        Maintained as a live counter on push/cancel/pop; a queued broadcast
        counts one pending event per recipient not yet served.
        """
        return self._pending


class SimulationResult:
    """Summary returned by :meth:`NetworkSimulator.run`."""

    def __init__(self, time: float, events: int, exhausted_budget: bool):
        self.time = time
        self.events = events
        self.exhausted_budget = exhausted_budget

    def __repr__(self) -> str:
        return (
            f"SimulationResult(time={self.time:.3f}s, events={self.events}, "
            f"exhausted_budget={self.exhausted_budget})"
        )
