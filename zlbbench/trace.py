"""Benchmark-side span recorder around the layers' public entry points.

Nothing under ``src/repro`` knows about these spans: :meth:`Tracer.install`
rebinds the public functions and methods listed in :func:`_targets` to
wrappers defined here and :meth:`Tracer.uninstall` puts the originals back.
``repro.telemetry``, ``repro.tracing`` and ``repro.obs`` are deliberately not
used as the measuring instrument, so these numbers survive their collapse.

A span is ``(name, start_ns, end_ns, span_id, parent_id, instance)``; spans of
one consensus instance share ``instance``.  A span's *self* time is its
duration minus the time its child spans cover, so self times add up to the
time spent inside root spans and a layer's share is the sum over its names.
Everything is single-threaded (one event loop, or the simulator's run loop),
so one stack is enough.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

Span = Tuple[str, int, int, int, int, Optional[int]]


def topic_instance(topic: Any) -> Optional[int]:
    """The consensus instance a topic belongs to, if it names one.

    ``("sbc", epoch, instance, ...)`` and ``("asmr", "confirm", instance)``
    carry it in the third segment; membership and gossip topics do not.
    """
    segments = topic.segments
    if len(segments) > 2 and segments[0] in ("sbc", "asmr"):
        instance = segments[2]
        if isinstance(instance, int):
            return instance
    return None


def topic_group(topic: Any) -> str:
    """Protocol group of a topic for the byte shares: rbc, bin, asmr or other."""
    segments = topic.segments
    if segments and segments[0] == "asmr":
        return "asmr"
    if len(segments) > 3 and segments[3] in ("rbc", "bin"):
        return segments[3]
    return "other"


class Tracer:
    """Records spans in memory; writes them out only when asked."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_ns: Dict[str, int] = collections.defaultdict(int)
        self.counts: Dict[str, int] = collections.defaultdict(int)
        #: Open frames, innermost last: ``[span_id, child_ns, instance, name]``.
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        function: Callable,
        name: str,
        namer: Optional[Callable[..., Tuple[str, Optional[int]]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Return ``function`` bracketed by a span.

        ``namer(*args)`` picks the span name and instance per call (router
        dispatch is named after the topic it routes); ``after(*args)`` runs
        inside the span once the call returned and feeds :attr:`counts`.
        """
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns

        def traced(*args, **kwargs):
            span_name, instance = namer(*args) if namer is not None else (name, None)
            if stack:
                parent = stack[-1]
                parent_id = parent[0]
                if instance is None:
                    instance = parent[2]
            else:
                parent = None
                parent_id = -1
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0, instance, span_name]
            stack.append(frame)
            start = _now()
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(*args)
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self_ns[span_name] += duration - frame[1]
                spans.append((span_name, start, end, span_id, parent_id, instance))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module: Any, attribute: str, name: str, **options) -> None:
        """Wrap a module-level function and every by-name binding of it.

        ``from repro.x import f`` copies the binding into the importing
        module, so the wrapper has to be installed in each of them.
        """
        original = getattr(module, attribute)
        replacement = self.wrap(original, name, **options)
        for candidate in list(sys.modules.values()):
            if candidate is None or not getattr(candidate, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._patch(candidate, key, replacement)

    def _patch_method(self, cls: type, attribute: str, name: str, **options) -> None:
        if attribute in cls.__dict__:
            self._patch(cls, attribute, self.wrap(cls.__dict__[attribute], name, **options))

    def install(self) -> None:
        """Rebind every public entry point listed in :func:`_targets`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for kind, owner, attribute, name, options in _targets(self):
            if kind == "function":
                self._patch_function(owner, attribute, name, **options)
            elif kind == "method":
                self._patch_method(owner, attribute, name, **options)
            else:
                self._patch(owner, attribute, options["replacement"])

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def layer_self_ns(self, prefix: str) -> int:
        """Self time of every span named ``prefix`` or ``prefix.<something>``."""
        dotted = prefix + "."
        return sum(
            ns
            for name, ns in self.self_ns.items()
            if name == prefix or name.startswith(dotted)
        )

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def durations_ms(self, name: str) -> List[float]:
        return [(end - start) / 1e6 for n, start, end, _, _, _ in self.spans if n == name]

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def layer_metrics(self, busy_ns: float, instances: int) -> Dict[str, float]:
        """The traced per-layer metrics both backends share.

        ``busy_ns`` is the CPU time of the traced stretch (shares are of the
        time the process worked, not of the time it waited for a socket);
        ``instances`` counts consensus instances decided in it, summed over
        replicas.
        """

        def share(*prefixes: str) -> float:
            return sum(self.layer_self_ns(prefix) for prefix in prefixes) / busy_ns

        def median_ms(name: str) -> float:
            durations = self.durations_ms(name)
            return statistics.median(durations) if durations else 0.0

        counts = self.counts
        sent_bytes = sum(
            value for key, value in counts.items() if key.startswith("transport.bytes.")
        )
        per_instance = max(1, instances)
        return {
            "crypto.self_share": share("crypto"),
            "codec.self_share": share("codec"),
            "router.self_share": share("router"),
            "simulator.self_share": share("simulator"),
            "transport.self_share": share("transport"),
            "timers.self_share": share("timers"),
            "rbc.self_share": share("rbc"),
            "consensus.binary_self_share": share("consensus.binary"),
            "consensus.sbc_self_share": share("consensus.sbc"),
            "smr.confirm_self_share": share("smr.confirm", "smr.pofs", "smr.catchup"),
            "smr.membership_self_share": share("smr.membership"),
            "adversary.self_share": share("adversary"),
            "ledger.self_share": share("ledger"),
            "zlb.self_share": share("zlb"),
            "zlb.validate_proposal_ms": median_ms("zlb.validate_proposal"),
            "zlb.commit_decision_ms": median_ms("zlb.commit_decision"),
            "zlb.merge_remote_ms": median_ms("zlb.merge_remote_decision"),
            "codec.encodes_per_broadcast": (
                counts["codec.encodes_in_broadcast"] / max(1, counts["transport.broadcasts"])
            ),
            "transport.bytes_share.rbc": counts["transport.bytes.rbc"] / max(1, sent_bytes),
            "transport.bytes_share.bin": counts["transport.bytes.bin"] / max(1, sent_bytes),
            "transport.bytes_share.asmr": counts["transport.bytes.asmr"] / max(1, sent_bytes),
            "rbc.msgs_per_instance": self.calls("rbc.handle") / per_instance,
            "consensus.binary_msgs_per_instance": (
                self.calls("consensus.binary.handle") / per_instance
            ),
        }

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Write every span kept in memory, with the self times and counters."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_ns", "end_ns", "id", "parent", "instance"],
                    "spans": self.spans,
                    "self_ns": dict(self.self_ns),
                    "counts": dict(self.counts),
                },
                handle,
            )


def _targets(tracer: Tracer):
    """The wrapped entry points: ``(kind, owner, attribute, span name, options)``.

    ``function`` wraps a module-level function and its by-name bindings,
    ``method`` wraps a method on its class, ``replace`` installs the given
    replacement as is.

    Imported lazily so that importing this module starts nothing and so the
    list is resolved against whatever ``repro`` is on the path at run time.
    """
    from repro.consensus.binary import BinaryConsensus
    from repro.consensus.sbc import SetByzantineConsensus
    from repro.crypto import hashing
    from repro.crypto.keys import KeyRegistry
    from repro.crypto.signatures import Signer
    from repro.adversary.behaviors import AttackStrategy
    from repro.ledger.merge import BlockchainRecord
    from repro.network import codec
    from repro.network.asyncio_transport import AsyncioTransport
    from repro.network.router import Router
    from repro.network.simulator import NetworkSimulator
    from repro.rbc.bracha import ReliableBroadcast
    from repro.smr.membership import MembershipChange
    from repro.zlb.blockchain_manager import BlockchainManager

    counts = tracer.counts

    def name_dispatch(router, topic, *rest):
        segments = topic.segments
        if len(segments) > 1 and segments[0] == "asmr":
            # Confirmation, PoF gossip and catch-up handlers are private
            # methods of the replica; naming the dispatch after the topic
            # attributes their time to the accountability layer.
            return "smr." + str(segments[1]), topic_instance(topic)
        return "router.dispatch", topic_instance(topic)

    def name_by_message(label):
        def namer(transport, message, *rest):
            return label, topic_instance(message.topic)

        return namer

    def count_socket_send(transport, message, targets=None):
        fanout = 1 if targets is None else len(targets)
        # ``size_bytes`` is memoised by the transport's own byte counter, so
        # reading it here costs a slot load, not an encode.
        counts["transport.bytes." + topic_group(message.topic)] += (
            message.size_bytes() * fanout
        )
        if targets is not None:
            counts["transport.broadcasts"] += 1

    def wrap_timer(schedule):
        def scheduling(transport, delay, callback, owner=None):
            return schedule(transport, delay, tracer.wrap(callback, "timers.callback"), owner)

        return scheduling

    def count_encode(*args):
        counts["codec.encodes"] += 1
        if any(frame[3] == "transport.submit_broadcast" for frame in tracer._stack):
            counts["codec.encodes_in_broadcast"] += 1

    targets = [
        ("function", codec, "encode_message", "codec.encode_message", {"after": count_encode}),
        ("function", codec, "decode_message", "codec.decode_message", {}),
        ("function", codec, "frame_message", "codec.frame_message", {}),
        ("function", hashing, "hash_payload", "crypto.hash_payload", {}),
        ("method", KeyRegistry, "verify_digest", "crypto.verify_digest", {}),
        ("method", Router, "dispatch", "router.dispatch", {"namer": name_dispatch}),
        ("method", ReliableBroadcast, "handle", "rbc.handle", {}),
        ("method", BinaryConsensus, "handle", "consensus.binary.handle", {}),
        ("method", SetByzantineConsensus, "handle", "consensus.sbc.handle", {}),
        ("method", MembershipChange, "handle", "smr.membership.handle", {}),
    ]
    for signer in _all_subclasses(Signer):
        targets.append(("method", signer, "sign", "crypto.sign", {}))
    for strategy in [AttackStrategy, *_all_subclasses(AttackStrategy)]:
        for attribute in ("filter_incoming", "rewrite_broadcast"):
            targets.append(("method", strategy, attribute, "adversary." + attribute, {}))
    for attribute in (
        "submit_transaction",
        "next_proposal",
        "validate_proposal",
        "commit_decision",
        "merge_remote_decision",
    ):
        targets.append(("method", BlockchainManager, attribute, "zlb." + attribute, {}))
    for attribute in ("filter_for_append", "append_block", "merge_block"):
        targets.append(("method", BlockchainRecord, attribute, "ledger." + attribute, {}))
    for transport, layer, counter in (
        (AsyncioTransport, "transport", count_socket_send),
        (NetworkSimulator, "simulator", None),
    ):
        for attribute in ("submit", "submit_broadcast"):
            label = f"{layer}.{attribute}"
            targets.append(
                ("method", transport, attribute, label,
                 {"namer": name_by_message(label), "after": counter})
            )
        # Timer callbacks run protocol code outside any dispatch; wrapping the
        # callback at ``schedule`` time gives that time a name of its own.
        targets.append(
            ("replace", transport, "schedule", "timers.callback",
             {"replacement": wrap_timer(transport.__dict__["schedule"])})
        )
    targets.append(("method", NetworkSimulator, "run", "simulator.run", {}))
    return targets


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found
