"""The real-network transport: asyncio sockets behind the transport seam.

:class:`AsyncioTransport` implements the same :class:`~repro.network.transport.
Transport` surface as the discrete-event simulator, but over real I/O:

* **Sockets** — TCP or UNIX-domain stream sockets between OS processes (one
  listening endpoint per replica, one outgoing connection per peer).
* **Frames** — every envelope is encoded by :mod:`repro.network.codec` and
  written as a 4-byte big-endian length prefix plus payload; readers rebuild
  :class:`~repro.network.message.Message` objects on the far side.
* **Time** — ``now`` is the event loop's monotonic wall clock and timers are
  ``loop.call_later`` handles, so protocol timeouts are real seconds.

Protocol code is unchanged: a :class:`~repro.zlb.node.ZLBReplica` bound to
this transport runs the exact same ASMR/SBC/RBC stack it runs inside the
simulator.  Delivery stays single-threaded (everything happens on the event
loop), so the by-reference sharing assumptions *within* one process still
hold; across processes the codec produces equal, independently-verifiable
copies.

The instrumentation seam is the simulator's, across process boundaries: the
bound :class:`~repro.obs.core.Probe` stamps the active
:class:`~repro.obs.trace.TraceContext` onto every outgoing envelope
(``on_send``), the codec carries it on the wire, deliveries open child spans
under the decoded context, and timer callbacks restore the context captured
at ``schedule`` time — so one payment's causal span tree crosses every worker
process it touches.  The same hooks feed the same counters
(``net.messages_sent`` and ``net.bytes_sent`` by protocol group and kind,
``net.messages_delivered``, ``net.messages_dropped``) as the simulator's, so
snapshots from a real cluster and a simulated run line up column for
column.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import struct
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.logging import get_logger
from repro.common.types import ReplicaId
from repro.network.codec import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_BYTES,
    CodecError,
    decode_message,
    frame_message,
)
from repro.network.faults import LinkFaults
from repro.network.message import Message
from repro.network.transport import Process, Transport

log = get_logger("repro.net")

#: How often a blocked :meth:`AsyncioTransport.connect` retries a peer dial.
CONNECT_RETRY_S = 0.05


@dataclasses.dataclass(frozen=True)
class Endpoint:
    """Where a replica listens: a TCP address or a UNIX-domain socket path."""

    kind: str  # "tcp" | "uds"
    host: str = "127.0.0.1"
    port: int = 0
    path: str = ""

    @staticmethod
    def tcp(host: str, port: int) -> "Endpoint":
        return Endpoint(kind="tcp", host=host, port=port)

    @staticmethod
    def uds(path: str) -> "Endpoint":
        return Endpoint(kind="uds", path=path)

    def describe(self) -> str:
        if self.kind == "uds":
            return f"uds:{self.path}"
        return f"tcp:{self.host}:{self.port}"


class AsyncioTransport(Transport):
    """Wall-clock transport over asyncio TCP/UNIX-domain stream sockets.

    One instance is one node's network stack: it listens on its own
    :class:`Endpoint`, dials every peer in ``endpoints`` and serves whatever
    local :class:`Process` instances were added (normally exactly one
    replica).  Several transports can share one event loop — the in-process
    cluster tests run a whole committee that way — or live in separate OS
    processes (``python -m repro.cluster``).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        endpoints: Dict[ReplicaId, Endpoint],
        probe=None,
        faults: Optional[LinkFaults] = None,
    ):
        if replica_id not in endpoints:
            raise SimulationError(f"no endpoint declared for replica {replica_id}")
        self.replica_id = replica_id
        self.endpoints: Dict[ReplicaId, Endpoint] = dict(endpoints)
        self.probe = probe
        #: The link faults this node's sends and deliveries obey (the
        #: transports of an in-process committee may share one).
        self.faults = faults if faults is not None else LinkFaults()
        self._membership: Tuple[ReplicaId, ...] = tuple(sorted(endpoints))
        self._processes: Dict[ReplicaId, Process] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[ReplicaId, asyncio.StreamWriter] = {}
        # Frames queued per peer until our outgoing dial to it completes.
        # Peers connect (and start sending) in arbitrary order, so a replica
        # can be asked to respond to a message before its own connect() loop
        # has reached the responder's peer; dropping those frames would stall
        # the broadcast protocols, buffering them preserves delivery.
        self._pending: Dict[ReplicaId, List[bytes]] = {
            peer: [] for peer in self._membership if peer != replica_id
        }
        self._dropped_peers: Set[ReplicaId] = set()
        self._readers: List[asyncio.Task] = []
        self._timer_ids = itertools.count()
        self._timers: Dict[int, asyncio.TimerHandle] = {}
        self._started = False
        self._closed = False
        # Observability counters (same meaning as the simulator's).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # -- membership ----------------------------------------------------------

    def add_process(self, process: Process) -> None:
        if process.replica_id in self._processes:
            raise SimulationError(f"replica {process.replica_id} already registered")
        process.bind(self)
        self._processes[process.replica_id] = process
        if self._started:
            process.on_start()

    def membership_view(self) -> Tuple[ReplicaId, ...]:
        return self._membership

    def connected_peers(self) -> List[ReplicaId]:
        """Peers with a live outgoing connection (obs frames report these)."""
        return sorted(
            peer
            for peer, writer in self._writers.items()
            if not writer.is_closing()
        )

    # -- clock and timers ----------------------------------------------------

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds of the bound event loop."""
        loop = self._loop
        if loop is None:
            return 0.0
        return loop.time()

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        owner: Optional[ReplicaId] = None,
    ) -> int:
        if delay < 0:
            raise SimulationError("timer delay must be non-negative")
        loop = self._require_loop()
        timer_id = next(self._timer_ids)
        probe = self.probe
        # Capture the context active *now*, restore it around the firing —
        # same contract as the simulator's timer events, so delayed
        # continuations stay on their causal chain under real time too.
        ctx = probe.timer_context() if probe is not None else None

        def _fire() -> None:
            self._timers.pop(timer_id, None)
            try:
                if probe is None:
                    callback()
                else:
                    probe.fire_timer(callback, ctx, self.now, owner)
            except Exception:  # noqa: BLE001 - a timer must not kill the loop
                log.exception("timer callback failed at replica %s", owner)

        self._timers[timer_id] = loop.call_later(delay, _fire)
        return timer_id

    def cancel(self, timer_id: int) -> None:
        handle = self._timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    # -- lifecycle -----------------------------------------------------------

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise SimulationError("transport is not started (call start() first)")
        return self._loop

    async def start(self) -> None:
        """Bind the listening socket of this replica's endpoint."""
        self._loop = asyncio.get_running_loop()
        endpoint = self.endpoints[self.replica_id]
        if endpoint.kind == "uds":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=endpoint.path
            )
        elif endpoint.kind == "tcp":
            self._server = await asyncio.start_server(
                self._handle_connection, host=endpoint.host, port=endpoint.port
            )
        else:
            raise SimulationError(f"unknown endpoint kind {endpoint.kind!r}")

    async def connect(self, timeout: float = 30.0) -> None:
        """Dial every peer, retrying until its listener is up or ``timeout``."""
        loop = self._require_loop()
        deadline = loop.time() + timeout
        for peer in self._membership:
            if peer == self.replica_id:
                continue
            endpoint = self.endpoints[peer]
            while True:
                try:
                    if endpoint.kind == "uds":
                        _, writer = await asyncio.open_unix_connection(endpoint.path)
                    else:
                        _, writer = await asyncio.open_connection(
                            endpoint.host, endpoint.port
                        )
                    self._writers[peer] = writer
                    for frame in self._pending.pop(peer, ()):
                        writer.write(frame)
                    break
                except (ConnectionError, FileNotFoundError, OSError):
                    if loop.time() >= deadline:
                        raise SimulationError(
                            f"replica {self.replica_id} could not reach peer "
                            f"{peer} at {endpoint.describe()} within {timeout}s"
                        )
                    await asyncio.sleep(CONNECT_RETRY_S)

    def start_processes(self) -> None:
        """Run every local process's ``on_start`` hook (once)."""
        if not self._started:
            self._started = True
            for replica_id in sorted(self._processes):
                self._processes[replica_id].on_start()

    async def close(self) -> None:
        """Tear down timers, connections and the listener (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for task in self._readers:
            task.cancel()
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- sending -------------------------------------------------------------

    def _count_sent(self, message: Message, count: int) -> None:
        self.messages_sent += count
        self.bytes_sent += message.size_bytes() * count
        probe = self.probe
        if probe is not None:
            probe.on_send(message, self.now, count)

    def _count_dropped(self, message: Optional[Message], count: int = 1) -> None:
        self.messages_dropped += count
        if self.probe is not None:
            if message is None:  # an undecodable frame
                self.probe.count("net.messages_dropped", count)
            else:
                self.probe.on_drop(message, self.now, count)

    def _write_frame(self, recipient: ReplicaId, frame: bytes) -> bool:
        writer = self._writers.get(recipient)
        if writer is None:
            pending = self._pending.get(recipient)
            if pending is not None:
                pending.append(frame)
                return True
        if writer is None or writer.is_closing():
            if recipient not in self._dropped_peers:
                self._dropped_peers.add(recipient)
                log.warning(
                    "replica %s dropping frames to peer %s (%s)",
                    self.replica_id,
                    recipient,
                    "never connected" if writer is None else "connection closed",
                )
            return False
        writer.write(frame)
        return True

    def _deliver_local(self, message: Message) -> None:
        if self._closed:
            return
        process = self._processes.get(message.recipient)
        if process is None or message.recipient in self.faults.cut_replicas:
            self._count_dropped(message)
            return
        self._dispatch(process, message)

    def _dispatch(self, process: Process, message: Message) -> None:
        self.messages_delivered += 1
        probe = self.probe
        try:
            if probe is None:
                process.on_message(message)
            else:
                probe.deliver(process, message, self.now)
        except Exception:  # noqa: BLE001 - a bad message must not kill the loop
            log.exception(
                "replica %s failed handling %s", process.replica_id, message.describe()
            )

    def submit(self, message: Message) -> None:
        """Send a point-to-point message (local loopback or socket frame)."""
        if self.probe is not None:
            self.probe.stamp(message)
        faults = self.faults
        if (faults.cut_replicas or faults.loss_rate) and not faults.reachable(
            message.sender, (message.recipient,)
        ):
            self._count_dropped(message)
        elif message.recipient in self._processes:
            # Local delivery stays asynchronous (never re-entrant from send),
            # matching the simulator's queue semantics.
            self._require_loop().call_soon(self._deliver_local, message)
        elif not self._write_frame(message.recipient, frame_message(message)):
            self._count_dropped(message)
        self._count_sent(message, 1)

    def submit_broadcast(self, message: Message, targets: Sequence[ReplicaId]) -> None:
        """Fan a broadcast envelope out to every target.

        The envelope is encoded once (with ``recipient`` unset — receivers
        stamp themselves): the frame is written to each remote peer, and
        building it memoises the size the byte counters read, which is why
        the send is counted last.  Local targets get a recipient-stamped copy
        of the envelope through the loopback path.
        """
        count = len(targets)
        if count == 0:
            return
        if self.probe is not None:
            self.probe.stamp(message)
        faults = self.faults
        if faults.cut_replicas or faults.loss_rate:
            reachable = [
                target for _, target in faults.reachable(message.sender, targets)
            ]
            if len(reachable) < count:
                self._count_dropped(message, count - len(reachable))
            targets = reachable  # the send is still counted in full below
        frame: Optional[bytes] = None
        loop = self._require_loop()
        for target in targets:
            if target in self._processes:
                loop.call_soon(self._deliver_local, message.with_recipient(target))
                continue
            if frame is None:
                frame = frame_message(message)
            if not self._write_frame(target, frame):
                self._count_dropped(message)
        self._count_sent(message, count)

    # -- receiving -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._readers.append(task)
        try:
            while True:
                header = await reader.readexactly(FRAME_HEADER_SIZE)
                (length,) = struct.unpack(">I", header)
                if length > MAX_FRAME_BYTES:
                    log.warning(
                        "replica %s dropping oversized frame (%d bytes)",
                        self.replica_id,
                        length,
                    )
                    break
                payload = await reader.readexactly(length)
                try:
                    message = decode_message(payload)
                except CodecError:
                    log.exception(
                        "replica %s received an undecodable frame", self.replica_id
                    )
                    self._count_dropped(None)
                    continue
                if message.recipient is None:
                    message.recipient = self.replica_id
                self._deliver_local(message)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away — crash detection is the launcher's job
        except asyncio.CancelledError:
            pass  # transport closing — reader tasks end quietly
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
