"""The link-fault seam: one ``LinkFaults`` decides, on both backends, which
messages a cut replica or a lossy link drops.

Every behaviour runs on the discrete-event simulator and on a committee of
asyncio transports over UNIX-domain sockets (one event loop, one shared
``LinkFaults``), driven the same way: sends from outside any handler, then
``settle`` until every sent message was delivered or dropped.
"""

import asyncio
import os

import pytest

from repro.common.config import FaultConfig, SimulationConfig
from repro.common.errors import ConfigurationError
from repro.network.asyncio_transport import AsyncioTransport, Endpoint
from repro.network.delays import ConstantDelay, GammaDelay, delay_model_from_name
from repro.network.faults import LinkFaults
from repro.network.simulator import NetworkSimulator
from repro.network.transport import Process
from repro.obs import Probe, TelemetryRegistry
from repro.zlb.system import LOSSY_LOSS_RATE, AttackSpec, ZLBSystem


class Recorder(Process):
    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.got = []

    def on_message(self, message):
        self.got.append((message.sender, message.kind, dict(message.body)))


class DropProbe(Probe):
    """Counts ``net.messages_dropped`` and tallies what ``on_drop`` reported."""

    def __init__(self):
        super().__init__(metrics=TelemetryRegistry())
        self.reported = 0

    def on_drop(self, message, now, count=1):
        self.reported += count
        super().on_drop(message, now, count)

    def counted(self):
        return self.metrics.snapshot()["counters"].get("net.messages_dropped", 0)


class SimulatorNet:
    """``n`` recorders on one simulator."""

    def __init__(self, n, faults, probe, tmp_path):
        self.sim = NetworkSimulator(
            ConstantDelay(0.01), SimulationConfig(seed=1), probe=probe, faults=faults
        )
        self.processes = [Recorder(i) for i in range(n)]
        for process in self.processes:
            self.sim.add_process(process)

    async def start(self):
        pass

    async def settle(self):
        self.sim.run()

    async def close(self):
        pass

    def counters(self):
        sim = self.sim
        return sim.messages_sent, sim.messages_delivered, sim.messages_dropped


class SocketNet:
    """``n`` recorders, one asyncio transport each, over UNIX-domain sockets."""

    def __init__(self, n, faults, probe, tmp_path):
        endpoints = {
            i: Endpoint.uds(os.path.join(str(tmp_path), f"r{i}.sock")) for i in range(n)
        }
        self.transports = [
            AsyncioTransport(i, endpoints, probe=probe, faults=faults) for i in range(n)
        ]
        self.processes = [Recorder(i) for i in range(n)]
        for transport, process in zip(self.transports, self.processes):
            transport.add_process(process)

    async def start(self):
        for transport in self.transports:
            await transport.start()
        for transport in self.transports:
            await transport.connect(timeout=10.0)
        for transport in self.transports:
            transport.start_processes()

    async def settle(self):
        for _ in range(500):
            sent, delivered, dropped = self.counters()
            if sent == delivered + dropped:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"messages still in flight: {self.counters()}")

    async def close(self):
        for transport in self.transports:
            await transport.close()

    def counters(self):
        return tuple(
            sum(getattr(t, name) for t in self.transports)
            for name in ("messages_sent", "messages_delivered", "messages_dropped")
        )


BACKENDS = {"simulator": SimulatorNet, "sockets": SocketNet}


def run_on(backend, tmp_path, n, body, faults=None, probe=None):
    """Boot ``n`` recorders on ``backend``, run ``body(net)``, tear down."""

    async def scenario():
        net = BACKENDS[backend](n, faults or LinkFaults(), probe, tmp_path)
        await net.start()
        try:
            return await body(net)
        finally:
            await net.close()

    return asyncio.run(scenario())


def kinds(process):
    return [(sender, kind) for sender, kind, _ in process.got]


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


def test_a_cut_drops_both_directions_and_heal_restores_delivery(backend, tmp_path):
    faults = LinkFaults()

    async def body(net):
        a, b, c = net.processes
        faults.cut(1)
        a.send_to(1, "p", "LOST", {})
        await net.settle()
        assert net.counters()[2] == 1
        assert b.got == []
        b.send_to(0, "p", "MUTE", {})
        b.broadcast("p", "MUTE", {})
        a.broadcast("p", "CAST", {})
        await net.settle()
        # Everything from the cut replica and the cast's copy to it is
        # dropped; the cast reaches 0 and 2.
        assert net.counters() == (8, 2, 6)
        assert b.got == [] and kinds(a) == kinds(c) == [(0, "CAST")]
        faults.heal(1)
        a.send_to(1, "p", "FOUND", {})
        b.send_to(2, "p", "BACK", {})
        await net.settle()
        assert kinds(b) == [(0, "FOUND")] and kinds(c)[-1] == (1, "BACK")
        assert net.counters() == (10, 4, 6)

    run_on(backend, tmp_path, 3, body, faults)


def test_a_message_in_flight_to_a_newly_cut_recipient_is_dropped_at_delivery(
    backend, tmp_path
):
    faults = LinkFaults()
    probe = DropProbe()

    async def body(net):
        a, b, c = net.processes
        a.send_to(1, "p", "DIRECT", {})
        a.broadcast("p", "CAST", {})
        faults.cut(1)  # after both sends, before any delivery
        await net.settle()
        assert b.got == []
        assert kinds(a) == kinds(c) == [(0, "CAST")]
        assert net.counters() == (4, 2, 2)
        assert probe.reported == probe.counted() == 2

    run_on(backend, tmp_path, 3, body, faults, probe)


def test_a_loss_is_counted_reported_and_drained(backend, tmp_path):
    faults = LinkFaults(loss_rate=0.5, seed=3)
    probe = DropProbe()

    async def body(net):
        for i in range(10):
            net.processes[i % 4].broadcast("p", "X", {"i": i})
            net.processes[i % 4].send_to((i + 1) % 4, "p", "Y", {"i": i})
        if backend == "simulator":
            # A lost message never enters the queue.
            sent, _, dropped = net.counters()
            assert net.sim.pending_events() == sent - dropped
        await net.settle()
        sent, delivered, dropped = net.counters()
        assert sent == 50 and dropped > 0 and sent == delivered + dropped
        assert delivered == sum(len(p.got) for p in net.processes)
        assert probe.reported == probe.counted() == dropped
        if backend == "simulator":
            assert net.sim.pending_events() == 0 and not net.sim._queue

    run_on(backend, tmp_path, 4, body, faults, probe)


def _lost(backend, tmp_path, seed, n=4, rounds=100):
    """The ``(sender, round, recipient)`` triples lost at a 25 % loss rate."""

    async def body(net):
        for k in range(rounds):
            for process in net.processes:
                process.broadcast("p", "X", {"k": k})
        await net.settle()
        got = {
            (sender, fields["k"], process.replica_id)
            for process in net.processes
            for sender, _, fields in process.got
        }
        sent = {(s, k, r) for s in range(n) for k in range(rounds) for r in range(n)}
        assert net.counters() == (len(sent), len(got), len(sent - got))
        return sent - got

    directory = tmp_path / f"{backend}-{seed}"
    directory.mkdir(exist_ok=True)
    return run_on(backend, directory, n, body, LinkFaults(0.25, seed=seed))


def test_the_observed_rate_is_the_loss_rate_and_a_seed_fixes_the_lost_set(tmp_path):
    lost = _lost("simulator", tmp_path, seed=1)
    assert 0.2 < len(lost) / 1_600 < 0.3
    # The draw is the seam's, not a backend's: sockets lose the same set.
    assert _lost("sockets", tmp_path, seed=1) == lost
    assert _lost("simulator", tmp_path, seed=2) != lost


def test_an_invalid_loss_rate_is_rejected():
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            LinkFaults(loss_rate=rate)


def test_lossy_is_a_link_fault_not_a_delay_model():
    system = ZLBSystem.create(FaultConfig(n=4), seed=1, delay="lossy")
    assert isinstance(system.simulator.delay_model, GammaDelay)
    assert system.simulator.faults.loss_rate == LOSSY_LOSS_RATE
    with pytest.raises(ConfigurationError):
        delay_model_from_name("lossy")
    with pytest.raises(ConfigurationError):
        AttackSpec(cross_partition_delay="lossy").resolve_cross_delay()
