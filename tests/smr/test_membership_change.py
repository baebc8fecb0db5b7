"""Membership change (Alg. 1) driven directly on a small simulated committee."""

from repro.common.types import FaultKind
from repro.consensus.certificates import VoteKind, make_vote
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.network.topic import topic
from repro.smr.membership import MembershipChange
from repro.smr.pool import CandidatePool

from tests.consensus.harness import build_cluster


def _pof(replica):
    """A valid proof of fraud: ``replica`` signed two values for one step."""
    first, second = (
        make_vote(replica, "sbc:0:0:bin:0", 0, VoteKind.AUX, hash_payload(value))
        for value in ("one", "other")
    )
    return ProofOfFraud(culprit=replica.replica_id, first=first, second=second)


def _changes(n, culprits, known_to):
    """One MembershipChange per honest replica of an ``n`` committee whose
    ``culprits`` are mute; ``known_to(replica_id)`` names the culprits that
    replica holds a PoF for when its change starts.  A ``gates[replica_id]``
    returning False for a topic holds the message back in ``held``."""
    simulator, replicas, _ = build_cluster(
        n, faults={culprit: FaultKind.BENIGN for culprit in culprits}
    )
    pofs = {culprit: _pof(replicas[culprit]) for culprit in culprits}
    changes, outcomes, held = {}, {}, []
    gates = {}
    for replica in replicas:
        rid = replica.replica_id
        if rid in culprits:
            continue
        change = MembershipChange(
            host=replica,
            epoch=0,
            committee=range(n),
            pofs={culprit: pofs[culprit] for culprit in known_to(rid)},
            pool=CandidatePool(range(n, 2 * n)),
            on_complete=lambda outcome, rid=rid: outcomes.setdefault(rid, outcome),
        )
        changes[rid] = change

        def handler(message_topic, sender, kind, body, rid=rid, change=change):
            gate = gates.get(rid)
            if gate is not None and not gate(message_topic):
                held.append((rid, message_topic, sender, kind, body))
            else:
                change.handle(message_topic, sender, kind, body)

        replica.router.register(topic("excl"), handler)
        replica.router.register(topic("incl"), handler)
    return simulator, changes, outcomes, pofs, gates, held


class TestShrinkingExclusionCommittee:
    def test_a_culprit_proven_late_leaves_the_running_exclusion_consensus(self):
        # Replica 0 starts from two of the three PoFs: its C' still holds
        # replica 4, whose slot nobody else runs.
        culprits = (4, 5, 6)
        simulator, changes, outcomes, pofs, _, _ = _changes(
            7, culprits, lambda rid: (5, 6) if rid == 0 else culprits
        )
        for change in changes.values():
            change.start()
        simulator.run()
        assert changes[0].exclusion_committee == [0, 1, 2, 3, 4]
        assert sorted(outcomes) == [1, 2, 3]
        assert not changes[0].exclusion.decided
        # The third PoF reaches it (Alg. 1 lines 23-27): C' shrinks, slot 4
        # goes, and the thresholds hold over what is already here.
        changes[0].learn_pofs(pofs)
        assert changes[0].exclusion_committee == [0, 1, 2, 3]
        assert changes[0].exclusion.slots == (0, 1, 2, 3)
        assert changes[0].exclusion.decided
        simulator.run()
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert {tuple(outcome.excluded) for outcome in outcomes.values()} == {culprits}
        assert len({tuple(outcome.included) for outcome in outcomes.values()}) == 1
        assert len(outcomes[0].included) == 3

    def test_the_exclusion_consensus_decides_at_the_shrunken_quorum(self):
        # Replica 0 starts from two of the three PoFs and never hears replica
        # 3: every step holds three votes (0, 1, 2) against a quorum of 4 of
        # C' = {0..4}.
        culprits = (4, 5, 6)
        simulator, changes, outcomes, pofs, _, _ = _changes(
            7, culprits, lambda rid: (5, 6) if rid == 0 else culprits
        )
        deliver = changes[0].host.on_message
        changes[0].host.on_message = lambda message: message.sender == 3 or deliver(message)
        for change in changes.values():
            change.start()
        simulator.run()
        view = changes[0]._exclusion_host
        assert (len(view.committee()), view.quorum, view.support) == (5, 4, 2)
        assert sorted(outcomes) == [1, 2, 3] and not changes[0].exclusion.decided
        # The third PoF: C' = {0..3}, and ``drop_slots`` -> ``recheck`` finds
        # the same three votes to be the quorum of 3 they now are.
        changes[0].learn_pofs(pofs)
        assert (len(view.committee()), view.quorum, view.support) == (4, 3, 2)
        simulator.run()
        assert changes[0].exclusion.decided and sorted(outcomes) == [0, 1, 2, 3]
        decision = changes[0].exclusion.decision
        for certificate in decision.binary_certificates.values():
            assert certificate.signers() <= {0, 1, 2} and len(certificate.votes) == 3
        assert outcomes[0].excluded == outcomes[1].excluded == [4, 5, 6]

    def test_known_culprits_and_a_decided_exclusion_are_left_alone(self):
        culprits = (3,)
        simulator, changes, outcomes, pofs, _, _ = _changes(4, culprits, lambda rid: culprits)
        changes[0].learn_pofs(pofs)
        assert changes[0].exclusion_committee == [0, 1, 2]
        for change in changes.values():
            change.start()
        simulator.run()
        assert sorted(outcomes) == [0, 1, 2]
        slots = changes[0].exclusion.slots
        changes[0].learn_pofs({0: _pof(changes[0].host), **pofs})
        assert changes[0].exclusion.slots == slots


class TestEarlyInclusionTraffic:
    def test_inclusion_messages_that_beat_the_local_exclusion_are_replayed(self):
        culprits = (4, 5, 6)
        simulator, changes, outcomes, _, gates, held = _changes(
            7, culprits, lambda rid: culprits
        )
        # Replica 0 is slow: everything the others send it for the exclusion
        # consensus waits, while they decide it (3 of 4), run the inclusion
        # consensus and send replica 0 all of that as well.
        gates[0] = lambda message_topic: message_topic.segments[0] != "excl"
        for change in changes.values():
            change.start()
        simulator.run()
        assert sorted(outcomes) == [1, 2, 3]
        late = changes[0]
        assert late.inclusion is None and late._early_inclusion
        assert all(late.owns_topic(message[0]) for message in late._early_inclusion)
        # The exclusion traffic lands: replica 0 decides, starts its inclusion
        # consensus and completes it from what it kept.
        del gates[0]
        for _, message_topic, sender, kind, body in held:
            late.handle(message_topic, sender, kind, body)
        simulator.run()
        assert late._early_inclusion == []
        assert outcomes[0].excluded == outcomes[1].excluded == [4, 5, 6]
        assert outcomes[0].included == outcomes[1].included
