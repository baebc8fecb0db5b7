"""Unit tests for the Topic envelope keys and the hierarchical Router."""

import pickle

import pytest

from repro.network.message import Message
from repro.network.router import RoutedProcess, Router
from repro.network.simulator import NetworkSimulator
from repro.network.topic import Topic, as_topic, topic
from repro.obs.metrics import protocol_group


class TestTopic:
    def test_interning_returns_same_object(self):
        assert topic("sbc", 0, 3) is topic("sbc", 0, 3)
        assert topic("sbc", 0, 3) is Topic.of("sbc", 0, 3)

    def test_child_extends_and_interns(self):
        base = topic("sbc", 0, 3)
        assert base.child("rbc", 5) is topic("sbc", 0, 3, "rbc", 5)

    def test_canonical_string_round_trips(self):
        original = topic("sbc", 0, 3, "rbc", 5)
        assert str(original) == "sbc:0:3:rbc:5"
        assert Topic.parse(str(original)) is original

    def test_parse_converts_decimal_segments(self):
        parsed = as_topic("excl:1:bin:4")
        assert parsed.segments == ("excl", 1, "bin", 4)

    def test_as_topic_accepts_tuple_and_topic(self):
        from_tuple = as_topic(("asmr", "confirm", 2))
        assert from_tuple is topic("asmr", "confirm", 2)
        assert as_topic(from_tuple) is from_tuple

    def test_equality_and_hash(self):
        assert topic("a", 1) == topic("a", 1)
        assert topic("a", 1) != topic("a", 2)
        assert hash(topic("a", 1)) == hash(topic("a", 1))

    def test_pickle_reinterns(self):
        original = topic("sbc", 7, 1, "bin", 2)
        clone = pickle.loads(pickle.dumps(original))
        assert clone is original

    def test_protocol_group_cached_per_topic(self):
        instance = topic("sbc", 0, 3, "rbc", 5)
        assert protocol_group(instance) == "sbc:rbc"
        # The group is memoised on the interned topic object.
        assert instance._group == "sbc:rbc"
        assert protocol_group(topic("asmr", "confirm", 2)) == "asmr:confirm"

    def test_message_normalises_protocol(self):
        message = Message(sender=0, recipient=1, protocol="sbc:0:1:bin:2", kind="AUX")
        assert message.topic is topic("sbc", 0, 1, "bin", 2)
        assert message.protocol == "sbc:0:1:bin:2"


class TestRouter:
    def _record(self, log, name):
        return lambda t, sender, kind, body: log.append((name, t, sender, kind))

    def test_exact_dispatch(self):
        router = Router()
        log = []
        router.register(topic("a", "b"), self._record(log, "ab"))
        assert router.dispatch(topic("a", "b"), 1, "K", {})
        assert log == [("ab", topic("a", "b"), 1, "K")]

    def test_prefix_dispatch(self):
        router = Router()
        log = []
        router.register(topic("sbc"), self._record(log, "root"))
        assert router.dispatch(topic("sbc", 0, 3, "rbc", 5), 2, "ECHO", {})
        assert log[0][0] == "root"

    def test_deeper_prefix_shadows_shallower(self):
        router = Router()
        log = []
        router.register(topic("sbc"), self._record(log, "fallback"))
        router.register(topic("sbc", 0, 3), self._record(log, "instance"))
        router.dispatch(topic("sbc", 0, 3, "bin", 1), 0, "AUX", {})
        router.dispatch(topic("sbc", 0, 4, "bin", 1), 0, "AUX", {})
        assert [name for name, *_ in log] == ["instance", "fallback"]

    def test_unmatched_returns_false(self):
        router = Router()
        router.register(topic("sbc"), lambda *a: None)
        assert not router.dispatch(topic("asmr", "pofs"), 0, "POFS", {})

    def test_unregister_restores_fallback(self):
        router = Router()
        log = []
        router.register(topic("excl"), self._record(log, "buffer"))
        router.register(topic("excl", 0), self._record(log, "change"))
        router.dispatch(topic("excl", 0, "rbc", 1), 0, "INIT", {})
        assert router.unregister(topic("excl", 0))
        router.dispatch(topic("excl", 0, "rbc", 1), 0, "INIT", {})
        assert [name for name, *_ in log] == ["change", "buffer"]

    def test_unregister_unknown_prefix_is_false(self):
        router = Router()
        assert not router.unregister(topic("nope"))

    def test_unregister_prunes_trie(self):
        """Unregister leaves no empty table behind: a router that has lost
        every prefix of some length stops probing that length."""
        router = Router()
        router.register(topic("a"), lambda *a: None)
        router.register(topic("a", "b", "c"), lambda *a: None)
        assert [length for length, _ in router._tables] == [3, 1]
        assert router.unregister(topic("a", "b", "c"))
        assert [length for length, _ in router._tables] == [1]
        assert not router.unregister(topic("a", "b", "c"))
        assert router.unregister(topic("a"))
        assert router._tables == []

    def test_deeper_prefix_registered_later_takes_the_next_message(self):
        """Nothing is remembered per topic: a prefix registered after a
        shallower one already served that very topic shadows it at once, and
        unregistering it falls back."""
        router = Router()
        log = []
        routed = topic("sbc", 0, 3, "rbc", 5)
        router.register(topic("sbc"), self._record(log, "fallback"))
        router.dispatch(routed, 0, "INIT", {})
        router.register(topic("sbc", 0, 3), self._record(log, "instance"))
        router.dispatch(routed, 0, "ECHO", {})
        assert router.unregister(topic("sbc", 0, 3))
        router.dispatch(routed, 0, "READY", {})
        assert [(name, kind) for name, _, _, kind in log] == [
            ("fallback", "INIT"),
            ("instance", "ECHO"),
            ("fallback", "READY"),
        ]

    def test_root_prefix_catches_everything(self):
        router = Router()
        log = []
        router.register((), self._record(log, "root"))
        router.register(topic("sbc", 0), self._record(log, "epoch"))
        assert router.dispatch(topic("anything", 7), 0, "K", {})
        assert router.dispatch(topic("sbc"), 0, "K", {})
        assert router.dispatch(topic("sbc", 0, 1), 0, "K", {})
        assert [name for name, *_ in log] == ["root", "root", "epoch"]
        assert router.resolve(()) is router.resolve(topic("sbc", 1))

    def test_a_topic_shorter_than_a_registered_prefix_does_not_match_it(self):
        router = Router()
        router.register(topic("sbc", 0, 3), lambda *a: None)
        assert not router.dispatch(topic("sbc", 0), 0, "K", {})
        assert router.resolve(topic("sbc")) is None

    def test_unknown_topics_leave_the_tables_the_size_they_were(self):
        """A peer inventing instances costs a lookup each and no memory: the
        tables hold registered prefixes, never topics seen."""
        router = Router()
        seen = []
        router.register(topic("sbc"), lambda t, *rest: seen.append(t))
        router.register(topic("sbc", 0, 3), lambda *a: None)
        router.register(topic("sbc", 0, 3, "bin", 1), lambda *a: None)
        router.register(topic("asmr", "confirm"), lambda *a: None)

        def sizes():
            return [(length, len(table)) for length, table in router._tables]

        before = sizes()
        for instance in range(10_000):
            # Built directly: interning would park them in the topic table.
            unknown = Topic(("sbc", 0, 4 + instance, "bin", 1))
            assert router.dispatch(unknown, 0, "AUX", {})
            assert not router.dispatch(Topic(("nope", instance)), 0, "AUX", {})
        assert len(seen) == 10_000
        assert sizes() == before == [(5, 1), (3, 1), (2, 1), (1, 1)]

    def test_reregister_replaces_handler(self):
        router = Router()
        log = []
        router.register(topic("x"), self._record(log, "old"))
        router.register(topic("x"), self._record(log, "new"))
        router.dispatch(topic("x", 1), 0, "K", {})
        assert [name for name, *_ in log] == ["new"]

    def test_resolve_reports_effective_handler(self):
        router = Router()
        fallback = lambda *a: None
        deep = lambda *a: None
        router.register(topic("sbc"), fallback)
        router.register(topic("sbc", 0, 1), deep)
        assert router.resolve(topic("sbc", 0, 1, "rbc", 2)) is deep
        assert router.resolve(topic("sbc", 9)) is fallback
        assert router.resolve(topic("other")) is None


class _Routed(RoutedProcess):
    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.seen = []
        self.router.register(topic("ping"), self._on_ping)

    def _on_ping(self, t, sender, kind, body):
        self.seen.append((sender, kind))


class TestRoutedProcess:
    def test_routes_and_counts_unrouted(self):
        sim = NetworkSimulator()
        a, b = _Routed(0), _Routed(1)
        sim.add_process(a)
        sim.add_process(b)
        a.send_to(1, topic("ping"), "PING", {})
        a.send_to(1, topic("unknown", 7), "X", {})
        sim.run()
        assert b.seen == [(0, "PING")]
        assert b.unrouted_messages == 1

    def test_teardown_unregister_stops_dispatch(self):
        sim = NetworkSimulator()
        a, b = _Routed(0), _Routed(1)
        sim.add_process(a)
        sim.add_process(b)
        b.router.unregister(topic("ping"))
        a.send_to(1, topic("ping"), "PING", {})
        sim.run()
        assert b.seen == []
        assert b.unrouted_messages == 1
