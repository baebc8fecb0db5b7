"""The transport seam: contract tests plus the regression pin.

The refactor that carved :class:`~repro.network.transport.Transport` out of
:class:`~repro.network.simulator.NetworkSimulator` must be byte-identically
behaviour-preserving: the fixed-seed fig4 golden cell is asserted here *again*
(in addition to ``tests/scenarios/test_fig4_golden.py``) so a transport-layer
change that shifts the event schedule fails next to the code that caused it.
"""

from repro.common.errors import SimulationError
from repro.network.message import Message
from repro.network.simulator import NetworkSimulator
from repro.network.transport import Clock, Process, Transport
from repro.scenarios import run_system

from tests.scenarios.test_fig4_golden import GOLDEN, GOLDEN_SPEC


class Recorder(Process):
    def __init__(self, rid):
        super().__init__(rid)
        self.got = []

    def on_message(self, message):
        self.got.append((message.sender, message.kind))


class TestSeam:
    def test_simulator_is_a_transport(self):
        simulator = NetworkSimulator()
        assert isinstance(simulator, Transport)
        assert isinstance(simulator, Clock)

    def test_process_binds_and_exposes_aliases(self):
        simulator = NetworkSimulator()
        process = Recorder(0)
        simulator.add_process(process)
        assert process.transport is simulator
        assert process.now == simulator.now

    def test_unbound_process_raises(self):
        process = Recorder(7)
        try:
            process.transport
        except SimulationError as exc:
            assert "7" in str(exc)
        else:
            raise AssertionError("expected SimulationError")

    def test_point_to_point_and_broadcast_through_the_seam(self):
        simulator = NetworkSimulator()
        procs = [Recorder(i) for i in range(3)]
        for proc in procs:
            simulator.add_process(proc)
        procs[0].send_to(1, "t", "PING", {})
        procs[0].broadcast("t", "ALL", {})
        simulator.run()
        assert ("0", "PING") not in procs[2].got  # p2p stays p2p
        assert (0, "PING") in procs[1].got
        for proc in procs:
            assert (0, "ALL") in proc.got

    def test_membership_view_matches_registered_processes(self):
        simulator = NetworkSimulator()
        for i in (3, 1, 2):
            simulator.add_process(Recorder(i))
        assert tuple(sorted(simulator.membership_view())) == (1, 2, 3)

    def test_process_importable_from_simulator_module(self):
        # router.py and older tests import Process from its pre-seam home.
        from repro.network.simulator import Process as LegacyProcess

        assert LegacyProcess is Process


class TestGoldenPin:
    """Fixed-seed fig4 cell must stay byte-identical across the seam."""

    def test_simulator_as_transport_keeps_fig4_golden(self):
        result = run_system(GOLDEN_SPEC)
        assert result.disagreements == GOLDEN["disagreements"]
        assert result.excluded == GOLDEN["excluded"]
        assert result.included == GOLDEN["included"]
        assert (
            result.committed_transactions == GOLDEN["committed_transactions"]
        )
        assert result.messages_sent == GOLDEN["messages_sent"]
        assert result.messages_delivered == GOLDEN["messages_delivered"]
        # Bit-exact final clock: the seeded RNG consumption order is pinned.
        assert result.simulated_time == GOLDEN["simulated_time"]


class TestSizeBytesTelemetryParity:
    def test_simulator_byte_counters_use_codec_frame_sizes(self):
        from repro.network.codec import message_frame_size

        message = Message(sender=0, recipient=1, protocol="t", kind="K", body={"x": 1})
        assert message.size_bytes() == message_frame_size(message)
