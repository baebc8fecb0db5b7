"""The asyncio transport backend: sockets, framing, timers, failure paths.

Runs whole mini-clusters of transports inside one event loop (each transport
owning one process, exactly like the multi-process deployment) over both UDS
and TCP, so the socket data path — codec frames included — is exercised
without spawning subprocesses.
"""

import asyncio
import os
import struct

import pytest

from repro.network.asyncio_transport import PENDING_PER_PEER, AsyncioTransport, Endpoint
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.network.transport import Process, Transport


class Recorder(Process):
    def __init__(self, rid):
        super().__init__(rid)
        self.got = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, message):
        self.got.append((message.sender, message.kind, dict(message.body)))
        if message.kind == "PING":
            self.send_to(message.sender, "proto", "PONG", {"x": message.body["x"] + 1})


async def _boot(endpoints, timeout=10.0):
    transports, processes = [], []
    for replica_id in sorted(endpoints):
        transport = AsyncioTransport(replica_id, endpoints)
        process = Recorder(replica_id)
        transport.add_process(process)
        await transport.start()
        transports.append(transport)
        processes.append(process)
    for transport in transports:
        await transport.connect(timeout=timeout)
    for transport in transports:
        transport.start_processes()
    return transports, processes


async def _close_all(transports):
    for transport in transports:
        await transport.close()


def _uds_endpoints(tmp_path, n):
    return {
        i: Endpoint.uds(os.path.join(str(tmp_path), f"replica-{i}.sock"))
        for i in range(n)
    }


class TestAsyncioTransport:
    def test_is_a_transport(self, tmp_path):
        transport = AsyncioTransport(0, _uds_endpoints(tmp_path, 1))
        assert isinstance(transport, Transport)

    def test_uds_broadcast_and_reply(self, tmp_path):
        async def scenario():
            transports, processes = await _boot(_uds_endpoints(tmp_path, 3))
            processes[0].broadcast("proto", "PING", {"x": 10})
            await asyncio.sleep(0.3)
            try:
                for process in processes:
                    assert process.started
                    assert (0, "PING", {"x": 10}) in process.got
                pongs = [g for g in processes[0].got if g[1] == "PONG"]
                assert sorted(g[0] for g in pongs) == [0, 1, 2]
                assert all(g[2] == {"x": 11} for g in pongs)
            finally:
                await _close_all(transports)

        asyncio.run(scenario())

    def test_tcp_broadcast_and_reply(self, unused_tcp_base_port):
        endpoints = {
            i: Endpoint.tcp("127.0.0.1", unused_tcp_base_port + i) for i in range(3)
        }

        async def scenario():
            transports, processes = await _boot(endpoints)
            processes[1].broadcast("proto", "PING", {"x": 1})
            await asyncio.sleep(0.3)
            try:
                for process in processes:
                    assert (1, "PING", {"x": 1}) in process.got
            finally:
                await _close_all(transports)

        asyncio.run(scenario())

    def test_counters_and_telemetry_names_match_simulator(self, tmp_path):
        from repro.obs import Probe, TelemetryRegistry

        async def scenario():
            endpoints = _uds_endpoints(tmp_path, 2)
            telemetry = TelemetryRegistry()
            t0 = AsyncioTransport(0, endpoints, probe=Probe(metrics=telemetry))
            t1 = AsyncioTransport(1, endpoints)
            p0, p1 = Recorder(0), Recorder(1)
            t0.add_process(p0)
            t1.add_process(p1)
            await t0.start()
            await t1.start()
            await t0.connect()
            await t1.connect()
            p0.send_to(1, "proto", "HELLO", {})
            await asyncio.sleep(0.2)
            try:
                assert t0.messages_sent == 1
                assert t0.bytes_sent > 0
                assert t1.messages_delivered == 1
                counters = telemetry.snapshot()["counters"]
                assert any("net.messages_sent" in key for key in counters)
                assert any("net.bytes_sent" in key for key in counters)
            finally:
                await _close_all([t0, t1])

        asyncio.run(scenario())

    def test_frames_buffered_until_peer_dialed(self, tmp_path):
        # The startup race: a replica may need to send before its own dial
        # to the target completed; frames must queue and flush, not drop.
        async def scenario():
            endpoints = _uds_endpoints(tmp_path, 2)
            t0 = AsyncioTransport(0, endpoints)
            t1 = AsyncioTransport(1, endpoints)
            p0, p1 = Recorder(0), Recorder(1)
            t0.add_process(p0)
            t1.add_process(p1)
            await t0.start()
            await t1.start()
            p0.send_to(1, "proto", "EARLY", {})  # before any dial
            assert t0.messages_dropped == 0
            await t0.connect()
            await t1.connect()
            await asyncio.sleep(0.2)
            try:
                assert [g[:2] for g in p1.got] == [(0, "EARLY")]
            finally:
                await _close_all([t0, t1])

        asyncio.run(scenario())

    def test_a_peer_that_never_dials_holds_a_bounded_queue(self, tmp_path):
        """Frames to a peer this node has not dialed queue up to
        ``PENDING_PER_PEER``; each one past it is dropped and counted, in
        ``messages_dropped`` and ``net.messages_dropped`` alike."""

        async def scenario():
            telemetry = TelemetryRegistry()
            t0 = AsyncioTransport(0, _uds_endpoints(tmp_path, 2), probe=Probe(metrics=telemetry))
            p0 = Recorder(0)
            t0.add_process(p0)
            await t0.start()
            try:
                for x in range(PENDING_PER_PEER + 3):
                    p0.send_to(1, "proto", "EARLY", {"x": x})
                assert len(t0._pending[1]) == PENDING_PER_PEER
                assert t0.messages_dropped == 3 and t0.messages_sent == PENDING_PER_PEER + 3
                dropped = telemetry.snapshot()["counters"]
                assert sum(v for k, v in dropped.items() if k.startswith("net.messages_dropped")) == 3
            finally:
                await t0.close()

        asyncio.run(scenario())

    def test_wall_clock_timers_fire_and_cancel(self, tmp_path):
        async def scenario():
            transports, processes = await _boot(_uds_endpoints(tmp_path, 1))
            fired = []
            t0 = transports[0]
            t0.schedule(0.02, lambda: fired.append("a"))
            cancelled = t0.schedule(0.02, lambda: fired.append("b"))
            t0.cancel(cancelled)
            before = t0.now
            await asyncio.sleep(0.1)
            try:
                assert fired == ["a"]
                assert t0.now > before  # the clock is the loop's wall clock
            finally:
                await _close_all(transports)

        asyncio.run(scenario())

    def test_local_delivery_is_never_reentrant(self, tmp_path):
        # Matches the simulator's queue semantics: a send from on_message must
        # not recurse into the recipient synchronously.
        async def scenario():
            transports, processes = await _boot(_uds_endpoints(tmp_path, 1))
            depth = {"current": 0, "max": 0}
            process = processes[0]

            def on_message(message):
                depth["current"] += 1
                depth["max"] = max(depth["max"], depth["current"])
                if message.kind == "PING":
                    process.send_to(0, "proto", "PONG", {})
                depth["current"] -= 1

            process.on_message = on_message
            process.send_to(0, "proto", "PING", {})
            await asyncio.sleep(0.1)
            try:
                assert depth["max"] == 1
            finally:
                await _close_all(transports)

        asyncio.run(scenario())

    def test_an_undecodable_envelope_costs_one_drop_not_the_connection(self, tmp_path):
        # A recipient of the wrong type used to reach _deliver_local, whose
        # set lookup raised TypeError and killed the reader: every later
        # frame from that peer was lost, and none was counted as dropped.
        from repro.network.codec import encode_value

        async def scenario():
            endpoints = _uds_endpoints(tmp_path, 1)
            transports, processes = await _boot(endpoints)
            try:
                _, writer = await asyncio.open_unix_connection(endpoints[0].path)
                for index, recipient in enumerate((None, [], None)):
                    payload = encode_value((7, recipient, "proto", "HELLO", {"x": index}))
                    writer.write(struct.pack(">I", len(payload)) + payload)
                await writer.drain()
                await asyncio.sleep(0.2)
                assert processes[0].got == [(7, "HELLO", {"x": 0}), (7, "HELLO", {"x": 2})]
                assert transports[0].messages_dropped == 1
                writer.close()
            finally:
                await _close_all(transports)

        asyncio.run(scenario())

    def test_closed_transport_drops_cleanly(self, tmp_path):
        async def scenario():
            transports, processes = await _boot(_uds_endpoints(tmp_path, 2))
            await _close_all(transports)
            # Post-close sends are counted as drops, never an exception.
            processes[0].send_to(1, "proto", "LATE", {})
            assert transports[0].messages_dropped >= 1

        asyncio.run(scenario())


@pytest.fixture
def unused_tcp_base_port():
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestEncodeOnce:
    """The socket path encodes each outgoing envelope exactly once."""

    @staticmethod
    def _count_encodes(monkeypatch):
        from repro.network import codec

        calls = []
        original = codec.encode_message

        def counting(message, include_trace=True):
            calls.append(message.kind)
            return original(message, include_trace)

        monkeypatch.setattr(codec, "encode_message", counting)
        return calls

    @pytest.mark.parametrize("traced", [False, True])
    def test_one_encode_per_broadcast_and_exact_bare_size(
        self, tmp_path, monkeypatch, traced
    ):
        from repro.network.codec import message_frame_size
        from repro.network.message import Message
        from repro.obs import Probe, TelemetryRegistry
        from repro.obs.trace import TraceRuntime

        async def scenario():
            endpoints = _uds_endpoints(tmp_path, 3)
            probe = Probe(
                metrics=TelemetryRegistry(),
                trace=TraceRuntime.enabled() if traced else None,
            )
            transports, processes = [], []
            for replica_id in sorted(endpoints):
                transport = AsyncioTransport(
                    replica_id, endpoints, probe=probe if replica_id == 0 else None
                )
                process = Recorder(replica_id)
                transport.add_process(process)
                await transport.start()
                transports.append(transport)
                processes.append(process)
            for transport in transports:
                await transport.connect()
            try:
                if traced:
                    tracer = probe.trace.tracer
                    span = tracer.start_span("test", 0, 0.0)
                    tracer.activate(span.ctx)
                calls = self._count_encodes(monkeypatch)
                body = {"payload": list(range(200))}
                processes[0].broadcast("proto", "DATA", body)
                processes[0].send_to(2, "proto", "DATA", body)
                assert calls == ["DATA", "DATA"]
                # Counted from the frame just built: 3 + 1 bare envelopes (the
                # broadcast one with no recipient stamped), the trace tail
                # excluded whether or not one rode along.
                bare_broadcast = Message(0, None, "proto", "DATA", body)
                bare_unicast = Message(0, 2, "proto", "DATA", body)
                assert transports[0].bytes_sent == 3 * message_frame_size(
                    bare_broadcast
                ) + message_frame_size(bare_unicast)
                await asyncio.sleep(0.2)
                assert [kind for _, kind, _ in processes[2].got] == ["DATA", "DATA"]
            finally:
                await _close_all(transports)

        asyncio.run(scenario())
