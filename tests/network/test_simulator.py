"""Unit tests for the discrete-event network simulator."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError
from repro.network.delays import ConstantDelay, UniformDelay
from repro.network.message import Message
from repro.network import simulator as simulator_module
from repro.network.simulator import NetworkSimulator, Process
from repro.obs.core import Probe


class Recorder(Process):
    """A process that records every delivered message with its arrival time."""

    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.received = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, message):
        self.received.append((self.now, message))


class Echoer(Recorder):
    """Replies to every PING with a PONG back to the sender."""

    def on_message(self, message):
        super().on_message(message)
        if message.kind == "PING":
            self.send_to(message.sender, message.protocol, "PONG", {})


class TestSimulatorBasics:
    def test_point_to_point_delivery(self):
        sim = NetworkSimulator(ConstantDelay(0.5))
        alice, bob = Recorder(0), Recorder(1)
        sim.add_process(alice)
        sim.add_process(bob)
        alice.bind(sim)
        sim.submit(Message(sender=0, recipient=1, protocol="t", kind="HELLO"))
        result = sim.run()
        assert len(bob.received) == 1
        arrival, message = bob.received[0]
        assert arrival == pytest.approx(0.5)
        assert message.kind == "HELLO"
        assert result.events == 1

    def test_on_start_invoked(self):
        sim = NetworkSimulator()
        p = Recorder(0)
        sim.add_process(p)
        sim.run()
        assert p.started

    def test_broadcast_reaches_all(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(5)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {"x": 1})
        sim.run()
        for p in processes:
            assert len(p.received) == 1

    def test_broadcast_exclude_self(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(3)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {}, include_self=False)
        sim.run()
        assert len(processes[0].received) == 0
        assert len(processes[1].received) == 1

    def test_broadcast_restricted_recipients(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(4)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {}, recipients=[1, 2])
        sim.run()
        assert len(processes[1].received) == 1
        assert len(processes[2].received) == 1
        assert len(processes[3].received) == 0

    def test_request_reply_round_trip(self):
        sim = NetworkSimulator(ConstantDelay(0.1))
        alice, bob = Echoer(0), Echoer(1)
        sim.add_process(alice)
        sim.add_process(bob)
        alice.send_to(1, "rpc", "PING", {})
        sim.run()
        assert [m.kind for _, m in bob.received] == ["PING"]
        assert [m.kind for _, m in alice.received] == ["PONG"]
        assert alice.received[0][0] == pytest.approx(0.2)

    def test_duplicate_registration_rejected(self):
        sim = NetworkSimulator()
        sim.add_process(Recorder(0))
        with pytest.raises(SimulationError):
            sim.add_process(Recorder(0))

    def test_unattached_process_cannot_send(self):
        p = Recorder(0)
        with pytest.raises(SimulationError):
            p.send_to(1, "x", "Y", {})

    def test_message_to_unknown_replica_dropped(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        a = Recorder(0)
        sim.add_process(a)
        a.send_to(99, "p", "X", {})
        sim.run()
        assert sim.messages_dropped == 1


class TestTimers:
    def test_timer_fires_in_order(self):
        sim = NetworkSimulator()
        fired = []
        sim.add_process(Recorder(0))
        sim.schedule(0.5, lambda: fired.append("late"))
        sim.schedule(0.1, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == pytest.approx(0.5)

    def test_cancelled_timer_does_not_fire(self):
        sim = NetworkSimulator()
        fired = []
        timer_id = sim.schedule(0.2, lambda: fired.append("x"))
        sim.cancel(timer_id)
        sim.run()
        assert fired == []

    def test_process_set_timer(self):
        sim = NetworkSimulator()
        p = Recorder(0)
        sim.add_process(p)
        fired = []
        p.set_timer(0.3, lambda: fired.append(p.now))
        sim.run()
        assert fired == [pytest.approx(0.3)]

    def test_negative_delay_rejected(self):
        sim = NetworkSimulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_cancelled_timers_do_not_leak_bookkeeping(self):
        """Regression: cancelled timer entries must leave ``_timers`` once
        their event is popped, or long runs accumulate one dict entry per
        cancelled timeout."""
        sim = NetworkSimulator()
        for _ in range(50):
            timer_id = sim.schedule(0.1, lambda: None)
            sim.cancel(timer_id)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert sim._timers == {}


class TestRunControl:
    def test_until_deadline(self):
        sim = NetworkSimulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.pending_events() == 1

    def test_stop_when_predicate(self):
        sim = NetworkSimulator()
        fired = []
        for delay in (0.1, 0.2, 0.3, 0.4):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [0.1, 0.2]

    def test_event_budget(self):
        sim = NetworkSimulator()
        for i in range(10):
            sim.schedule(0.1 * i, lambda: None)
        result = sim.run(max_events=3)
        assert result.events == 3
        assert result.exhausted_budget

    def test_max_time_from_config(self):
        sim = NetworkSimulator(config=SimulationConfig(max_time=1.0))
        fired = []
        sim.schedule(2.0, lambda: fired.append("never"))
        sim.run()
        assert fired == []


class TestBroadcastFanOut:
    """The fan-out-aware broadcast kernel and the cached membership view."""

    def test_single_heap_event_serves_all_recipients(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(6)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {"x": 1})
        # One queued heap entry, but six pending deliveries.
        assert len(sim._queue) == 1
        assert sim.pending_events() == 6
        sim.run()
        assert all(len(p.received) == 1 for p in processes)
        assert sim.messages_sent == 6
        assert sim.messages_delivered == 6

    def test_membership_view_tracks_late_add(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        for i in (3, 1, 2):
            sim.add_process(Recorder(i))
        assert sim.membership_view() == (1, 2, 3)
        late = Recorder(0)
        sim.add_process(late)
        assert sim.membership_view() == (0, 1, 2, 3)

    def test_broadcast_after_membership_change_uses_fresh_view(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(2)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {})
        late = Recorder(2)
        sim.add_process(late)
        processes[0].broadcast("proto", "HI", {})
        sim.run()
        assert len(processes[0].received) == 2
        assert len(processes[1].received) == 2
        assert len(late.received) == 1

    def test_equivocating_restricted_broadcasts(self):
        """Regression: per-partition (restricted-recipient) broadcasts must
        keep delivering different bodies to different partitions — the seam
        every coalition attack equivocates through."""
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(5)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("bin:0:0", "AUX", {"value": 0}, recipients=[1, 2])
        processes[0].broadcast("bin:0:0", "AUX", {"value": 1}, recipients=[3, 4])
        sim.run()
        values = {
            p.replica_id: [m.body["value"] for _, m in p.received] for p in processes
        }
        assert values == {0: [], 1: [0], 2: [0], 3: [1], 4: [1]}

    def test_empty_recipient_list_is_noop(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        sim.add_process(Recorder(0))
        sim.process_for(0).broadcast("proto", "HI", {}, recipients=[])
        assert sim.pending_events() == 0
        sim.run()
        assert sim.messages_sent == 0


class TestPendingEventsCounter:
    """pending_events() is a live O(1) counter, not an O(n) queue scan."""

    def test_counts_timers_and_deliveries(self):
        sim = NetworkSimulator(ConstantDelay(0.5))
        a, b = Recorder(0), Recorder(1)
        sim.add_process(a)
        sim.add_process(b)
        sim.schedule(1.0, lambda: None)
        a.send_to(1, "p", "X", {})
        assert sim.pending_events() == 2

    def test_cancelled_timer_leaves_count(self):
        sim = NetworkSimulator()
        keep = sim.schedule(0.5, lambda: None)
        drop = sim.schedule(0.5, lambda: None)
        sim.cancel(drop)
        assert sim.pending_events() == 1
        # Cancelling twice must not double-decrement.
        sim.cancel(drop)
        assert sim.pending_events() == 1
        sim.cancel(keep)
        assert sim.pending_events() == 0
        sim.run()
        assert sim.pending_events() == 0

    def test_count_drains_with_run(self):
        sim = NetworkSimulator(ConstantDelay(0.01))
        processes = [Recorder(i) for i in range(4)]
        for p in processes:
            sim.add_process(p)
        processes[0].broadcast("proto", "HI", {})
        sim.schedule(5.0, lambda: None)
        assert sim.pending_events() == 5
        sim.run(until=1.0)
        assert sim.pending_events() == 1
        sim.run(until=10.0)
        assert sim.pending_events() == 0


class TestEventOrdering:
    """The heap is keyed by ``(time, seq)``: ``seq`` is the submission order,
    it is unique, and a broadcast keeps the one it was submitted under."""

    class _Logger(Process):
        def __init__(self, replica_id, log):
            super().__init__(replica_id)
            self.log = log

        def on_message(self, message):
            self.log.append((round(self.now, 9), message.kind, self.replica_id))

    def _committee(self, delay_model, size=6, seed=3):
        sim = NetworkSimulator(delay_model, SimulationConfig(seed=seed))
        log = []
        processes = [self._Logger(i, log) for i in range(size)]
        for process in processes:
            sim.add_process(process)
        return sim, processes, log

    def test_same_instant_fires_in_submission_order(self):
        sim, processes, log = self._committee(ConstantDelay(0.5), size=3)
        processes[0].send_to(1, "p", "first", {})
        sim.schedule(0.5, lambda: log.append("timer-a"))
        processes[0].broadcast("p", "cast", {})
        sim.schedule(0.5, lambda: log.append("timer-b"))
        processes[2].send_to(0, "p", "last", {})
        sim.run()
        assert log == [
            (0.5, "first", 1),
            "timer-a",
            (0.5, "cast", 0),
            (0.5, "cast", 1),
            (0.5, "cast", 2),
            "timer-b",
            (0.5, "last", 0),
        ]

    @pytest.mark.parametrize("gone", [None, "cut", "cut in flight"])
    def test_a_send_to_is_a_fan_out_of_one(self, gone):
        def run(submit):
            sim, processes, log = self._committee(UniformDelay.from_mean(0.2), size=3)
            if gone == "cut":
                sim.faults.cut(1)
            processes[0].send_to(2, "p", "before", {})
            submit(processes[0])
            processes[2].send_to(1, "p", "after", {})
            queued = sim.pending_events()
            if gone == "cut in flight":
                sim.faults.cut(1)
            events = sim.run().events
            counters = (sim.messages_sent, sim.messages_delivered, sim.messages_dropped)
            return log, queued, events, sim.now, counters, sim.pending_events()

        direct = run(lambda process: process.send_to(1, "p", "x", {}))
        cast = run(lambda process: process.broadcast("p", "x", {}, recipients=[1]))
        assert direct == cast
        log, queued, events, _, (sent, delivered, dropped), left = direct
        assert (sent, left, sent - dropped) == (3, 0, delivered) and delivered == len(log)
        assert sorted(kind for _, kind, _ in log) == (
            ["before"] if gone else ["after", "before", "x"]
        )
        assert queued == events == (1 if gone == "cut" else 3)

    def _load(self, sim, processes, log):
        """Two interleaving broadcasts, a point-to-point and two timers."""
        processes[0].broadcast("p", "A", {})
        sim.schedule(0.2, lambda: log.append("timer-1"))
        processes[1].broadcast("p", "B", {})
        processes[2].send_to(3, "p", "C", {})
        sim.schedule(0.35, lambda: log.append("timer-2"))

    @staticmethod
    def _queued_seqs(sim):
        return {
            event.message.kind: seq
            for _, seq, event in sim._queue
            if event.message is not None
        }

    @pytest.mark.parametrize("delays", [UniformDelay.from_mean(0.2), ConstantDelay(0.25)])
    def test_parked_broadcast_resumes_with_its_seq_and_recipient_order(self, delays):
        sim, processes, expected = self._committee(delays)
        self._load(sim, processes, expected)
        submitted = self._queued_seqs(sim)
        assert submitted == {"A": 0, "B": 2, "C": 3}
        total = sim.run().events
        assert total == len(expected) == 6 + 6 + 1 + 2

        def replay(step):
            sim, processes, log = self._committee(delays)
            self._load(sim, processes, log)
            parked = 0
            while sim.pending_events():
                step(sim, log)
                queued = self._queued_seqs(sim)
                parked += len(queued)
                # Whatever is still queued kept the seq it was submitted under.
                assert queued.items() <= submitted.items()
            assert parked and log == expected
            assert sim.events_processed == total

        # max_events: every budget from one event a call upwards parks a
        # broadcast somewhere in its schedule.
        for budget in range(1, 6):
            replay(lambda sim, log: sim.run(max_events=budget))
        # until: advance the deadline in steps finer than the delays (the
        # clock only moves with events, so the deadline is the test's own).
        deadlines = (0.03 * step for step in range(1, 1000))
        replay(lambda sim, log: sim.run(until=next(deadlines)))
        # stop_when: stop after every single delivery or timer.
        def one_more(sim, log):
            seen = len(log)
            sim.run(stop_when=lambda: len(log) > seen)
        replay(one_more)

    def test_equal_time_events_never_compare_event_objects(self, monkeypatch):
        def compared(self, other):
            raise AssertionError("two _Event objects were compared")

        # ``heapq`` orders with ``<`` alone.
        monkeypatch.setattr(simulator_module._Event, "__lt__", compared, raising=False)
        sim, processes, log = self._committee(ConstantDelay(0.1), size=4)
        for index in range(250):
            sim.schedule(0.1, lambda index=index: log.append(index))
            processes[index % 4].send_to(0, "p", "unicast", {"index": index})
            processes[index % 4].broadcast("p", "cast", {})
            sim.schedule(0.1, lambda: None)
        assert len(sim._queue) == 1000
        assert len({time for time, _, _ in sim._queue}) == 1
        assert sim.run().events == 250 * (1 + 1 + 4 + 1)
        # Pops came out in submission order: timer, unicast, 4-way broadcast.
        assert log[:6] == [
            0,
            (0.1, "unicast", 0),
            (0.1, "cast", 0),
            (0.1, "cast", 1),
            (0.1, "cast", 2),
            (0.1, "cast", 3),
        ]
        assert [entry for entry in log if isinstance(entry, int)] == list(range(250))


class TestFanOutDelivery:
    """The run loop delivers a fan-out's recipients itself: whoever went away
    between ``submit_broadcast`` and its turn is dropped and counted there, and
    the rest of that fan-out is served as scheduled."""

    class _Probe(Probe):
        def __init__(self):
            super().__init__()
            self.dropped = []

        def on_drop(self, message, now, count=1):
            self.dropped.append((message.kind, message.recipient, count))
            super().on_drop(message, now, count)

    def _run(self, delays, probe=None, victims=()):
        """Two interleaving six-way broadcasts; the first delivery of all
        cuts both ``victims``."""
        sim = NetworkSimulator(delays, SimulationConfig(seed=5), probe=probe)
        log = []

        class Logger(Process):
            def on_message(self, message):
                log.append((message.kind, self.replica_id))
                if victims and len(log) == 1:
                    for victim in victims:
                        sim.faults.cut(victim)

        processes = [Logger(i) for i in range(6)]
        for process in processes:
            sim.add_process(process)
        processes[0].broadcast("p", "A", {})
        processes[1].broadcast("p", "B", {})
        sim.run()
        assert sim.pending_events() == 0
        return sim, log

    @pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
    @pytest.mark.parametrize("delays", [UniformDelay.from_mean(0.2), ConstantDelay(0.25)])
    def test_recipients_gone_before_their_turn_are_dropped_and_the_rest_served(
        self, delays, probed
    ):
        _, schedule = self._run(delays)
        assert len(schedule) == 12
        # The third and the fifth recipient of A: both broadcasts still owe
        # them a delivery, and A has recipients to serve after each.
        order_of_a = [recipient for kind, recipient in schedule if kind == "A"]
        victims = (order_of_a[2], order_of_a[4])
        probe = self._Probe() if probed else None
        sim, log = self._run(delays, probe, victims)
        expected = schedule[:1] + [entry for entry in schedule[1:] if entry[1] not in victims]
        dropped = [entry for entry in schedule[1:] if entry[1] in victims]
        assert log == expected and len(dropped) >= 3
        assert [recipient for kind, recipient in log if kind == "A"][-1] == order_of_a[5]
        assert sim.messages_sent == 12
        assert sim.messages_delivered == len(expected)
        assert sim.messages_dropped == len(dropped)
        assert sim.messages_sent == sim.messages_delivered + sim.messages_dropped
        if probed:
            assert probe.dropped == [(kind, recipient, 1) for kind, recipient in dropped]


class TestDeterminism:
    def _run_once(self, seed):
        sim = NetworkSimulator(
            UniformDelay.from_mean(0.2), SimulationConfig(seed=seed)
        )
        recorders = [Recorder(i) for i in range(4)]
        for r in recorders:
            sim.add_process(r)
        for sender in range(4):
            recorders[sender].broadcast("p", "HI", {"from": sender})
        sim.run()
        return [
            [(round(t, 9), m.sender) for t, m in r.received] for r in recorders
        ]

    def test_same_seed_same_schedule(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_schedule(self):
        assert self._run_once(7) != self._run_once(8)


class TestMessageHelpers:
    def test_with_recipient(self):
        original = Message(sender=0, recipient=1, protocol="p", kind="K", body={"a": 1})
        copy = original.with_recipient(2)
        assert copy.recipient == 2
        assert copy.body == original.body
        assert copy.uid != original.uid

    def test_describe(self):
        message = Message(sender=0, recipient=1, protocol="p", kind="K")
        assert "p/K" in message.describe()
