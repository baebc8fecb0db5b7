"""The two coalition attacks of Appendix B.

Both attacks equivocate towards the partitions of honest replicas defined by a
:class:`~repro.adversary.coalition.CoalitionPlan`:

* :class:`BinaryConsensusAttack` rewrites the coalition's BVAL/AUX votes on the
  binary consensus instances of the attacked slots so that each partition is
  pushed towards a different bit — "deceitful replicas vote for each binary
  value in each of two partitions for the same binary consensus".
* :class:`ReliableBroadcastAttack` rewrites the coalition's INIT/ECHO/READY
  messages on the reliable broadcasts of the coalition's own proposal slots so
  that each partition delivers a different proposal — "deceitful replicas
  misbehave during the reliable broadcast by sending different proposals to
  different partitions".

Because every rewritten vote is *signed* by the deceitful replica, the
equivocation leaves exactly the cryptographic trace that the accountability
layer later turns into proofs of fraud.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import ReplicaId
from repro.adversary.behaviors import AttackStrategy
from repro.adversary.coalition import CoalitionPlan
from repro.consensus.binary import BinaryConsensus, value_digest
from repro.consensus.certificates import VoteKind, make_vote
from repro.crypto.hashing import hash_payload
from repro.network.topic import TopicLike, as_topic
from repro.rbc.bracha import ReliableBroadcast


#: Accepted names for the two attacks (the paper's and common spellings).
BINARY_ATTACK_NAMES = ("binary", "binary-consensus", "binary_consensus")
RBC_ATTACK_NAMES = ("rbbcast", "reliable-broadcast", "reliable_broadcast", "rbc")


def _slot_of(protocol: TopicLike, layer: str) -> Optional[int]:
    """The slot of an RBC/binary topic (``(..., layer, slot)``), else None."""
    segments = as_topic(protocol).segments
    if len(segments) >= 2 and segments[-2] == layer and isinstance(segments[-1], int):
        return segments[-1]
    return None


class BinaryConsensusAttack(AttackStrategy):
    """Per-partition equivocation on the binary consensus of attacked slots.

    For an attacked slot ``j`` and a partition ``p``, the coalition votes 0
    when ``j % branches == p`` and 1 otherwise, so each partition is steered
    towards a different subset of included proposals (up to ``branches``
    distinct decisions, the Appendix B bound).  1 is round 1's fallback: every
    partition but one decides the slot in round 1, before a cross-partition
    message can land, and partition ``j % branches`` decides 0 in round 2.
    Pushing 1 to the one partition instead leaves ``branches - 1`` partitions
    two rounds to decide in, and the count stops rising with the partition
    delay (``sec53``, n = 12: 4 disagreements at 5 s, 2 at 10 s).
    """

    name = "binary-consensus"

    def __init__(self, plan: CoalitionPlan, attacked_slots: Optional[Sequence[ReplicaId]] = None):
        self.plan = plan
        self.attacked_slots = (
            frozenset(attacked_slots)
            if attacked_slots is not None
            else frozenset(plan.deceitful)
        )
        if not self.attacked_slots:
            raise ConfigurationError("binary consensus attack needs attacked slots")

    def value_for(self, slot: ReplicaId, partition_index: int) -> int:
        """The bit the coalition pushes for ``slot`` towards ``partition_index``."""
        branches = max(1, self.plan.num_branches)
        return 0 if slot % branches == partition_index else 1

    def filter_incoming(self, replica: Any, message: Any) -> bool:
        """Ignore DECIDE certificates on attacked slots.

        Adopting one partition's decision would make the coalition stop voting
        and starve the other partition's later rounds; a real attacker keeps
        equivocating until every partition has decided its pushed value.
        """
        slot = _slot_of(message.topic, "bin")
        if slot is not None and slot in self.attacked_slots:
            if message.kind == BinaryConsensus.DECIDE:
                return False
        return True

    def rewrite_broadcast(
        self,
        replica: Any,
        protocol: TopicLike,
        kind: str,
        body: Dict[str, Any],
        recipients: Sequence[ReplicaId],
    ) -> bool:
        slot = _slot_of(protocol, "bin")
        if slot is None or slot not in self.attacked_slots:
            return False
        if kind == BinaryConsensus.DECIDE:
            # Suppress the coalition's own decide broadcasts on attacked slots:
            # a valid certificate would pull both partitions to the same value.
            return True
        if kind not in (BinaryConsensus.BVAL, BinaryConsensus.AUX):
            return False
        round_number = body["round"]
        recipient_set = set(recipients)
        for partition_index, partition in enumerate(self.plan.partition.partitions):
            value = self.value_for(slot, partition_index)
            targets = [r for r in partition if r in recipient_set]
            if not targets:
                continue
            if kind == BinaryConsensus.BVAL:
                forged_body: Dict[str, Any] = {"round": round_number, "value": value}
            else:
                vote = make_vote(
                    replica, protocol, round_number, VoteKind.AUX, value_digest(value)
                )
                forged_body = {
                    "round": round_number,
                    "value": value,
                    "vote": vote,
                }
            replica.broadcast(protocol, kind, forged_body, recipients=targets)
        # Bridging replicas (the rest of the coalition and benign replicas)
        # receive the partition-0 flavour so the coalition stays coordinated.
        bridge_targets = [
            r
            for r in recipient_set
            if self.plan.partition.partition_of(r) is None
        ]
        if bridge_targets:
            value = self.value_for(slot, 0)
            if kind == BinaryConsensus.BVAL:
                forged_body = {"round": round_number, "value": value}
            else:
                vote = make_vote(
                    replica, protocol, round_number, VoteKind.AUX, value_digest(value)
                )
                forged_body = {
                    "round": round_number,
                    "value": value,
                    "vote": vote,
                }
            replica.broadcast(protocol, kind, forged_body, recipients=bridge_targets)
        return True


class ReliableBroadcastAttack(AttackStrategy):
    """Per-partition equivocation on the reliable broadcast of attacked slots.

    ``variants`` maps an attacked slot to the list of proposal payloads to
    disseminate, one per partition (index ``p`` goes to partition ``p``).  The
    whole coalition shares the same strategy object so deceitful echoers
    amplify the variant that matches each partition.
    """

    name = "reliable-broadcast"

    def __init__(self, plan: CoalitionPlan, variants: Dict[ReplicaId, List[Any]]):
        if not variants:
            raise ConfigurationError("reliable broadcast attack needs proposal variants")
        self.plan = plan
        self.variants = variants

    def variant_for(self, slot: ReplicaId, partition_index: int) -> Any:
        """The proposal variant pushed for ``slot`` towards ``partition_index``."""
        options = self.variants[slot]
        return options[partition_index % len(options)]

    def rewrite_broadcast(
        self,
        replica: Any,
        protocol: TopicLike,
        kind: str,
        body: Dict[str, Any],
        recipients: Sequence[ReplicaId],
    ) -> bool:
        slot = _slot_of(protocol, "rbc")
        if slot is None or slot not in self.variants:
            return False
        vote_kind = ReliableBroadcast.VOTE_KINDS.get(kind)
        if vote_kind is None:
            return False
        if kind == ReliableBroadcast.INIT and slot != replica.replica_id:
            # Only the proposer equivocates on INIT; other coalition members
            # never legitimately send INIT in the first place.
            return True

        def forge(value: Any, targets: List[ReplicaId]) -> None:
            # The wire shapes of rbc/bracha.py: only INIT ships the value.
            digest = hash_payload(value)
            vote = make_vote(replica, protocol, 0, vote_kind, digest)
            forged_body = {"digest": digest, "vote": vote}
            if kind == ReliableBroadcast.INIT:
                forged_body = {"value": value, **forged_body}
            replica.broadcast(protocol, kind, forged_body, recipients=targets)

        recipient_set = set(recipients)
        for partition_index, partition in enumerate(self.plan.partition.partitions):
            targets = [r for r in partition if r in recipient_set]
            if targets:
                forge(self.variant_for(slot, partition_index), targets)
        bridge_targets = [
            r for r in recipient_set if self.plan.partition.partition_of(r) is None
        ]
        if bridge_targets:
            forge(self.variant_for(slot, 0), bridge_targets)
        return True


def attack_from_name(
    name: str,
    plan: CoalitionPlan,
    variants: Optional[Dict[ReplicaId, List[Any]]] = None,
) -> AttackStrategy:
    """Build an attack strategy by the name the paper uses.

    ``"binary"`` / ``"binary-consensus"`` build the binary consensus attack;
    ``"rbbcast"`` / ``"reliable-broadcast"`` build the reliable broadcast
    attack (``variants`` is then required).
    """
    key = name.strip().lower()
    if key in BINARY_ATTACK_NAMES:
        return BinaryConsensusAttack(plan)
    if key in RBC_ATTACK_NAMES:
        if variants is None:
            raise ConfigurationError(
                "the reliable broadcast attack requires proposal variants"
            )
        return ReliableBroadcastAttack(plan, variants)
    raise ConfigurationError(f"unknown attack {name!r}")
