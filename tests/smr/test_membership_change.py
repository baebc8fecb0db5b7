"""Membership change (Alg. 1) driven directly on a small simulated committee."""

from repro.common.config import ProtocolConfig, SimulationConfig
from repro.common.types import FaultKind
from repro.consensus.certificates import VoteKind, make_vote
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.network.delays import ConstantDelay
from repro.network.simulator import NetworkSimulator
from repro.network.topic import Topic, topic
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.smr.asmr import AHEAD_PER_SENDER, ASMRReplica
from repro.smr.membership import MembershipChange
from repro.smr.pool import CandidatePool

from tests.consensus.harness import build_cluster, router_tables, tap


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
    replica holds a PoF for when its change starts.  The replicas are bare:
    each one's ``("excl",)`` / ``("incl",)`` root parks what no attached
    consensus owns and routes it again when the inclusion consensus attaches,
    and a completed change stays attached — it keeps answering a peer that is
    behind.  Returns ``(simulator, changes, outcomes, pofs)``."""
    simulator, replicas, _ = build_cluster(
        n, faults={culprit: FaultKind.BENIGN for culprit in culprits}
    )
    pofs = {culprit: _pof(replicas[culprit]) for culprit in culprits}
    changes, outcomes = {}, {}
    for replica in replicas:
        rid = replica.replica_id
        if rid in culprits:
            continue
        parked = []

        def park(*message, parked=parked):
            parked.append(message)

        def inclusion_started(replica=replica, parked=parked):
            changes[replica.replica_id].inclusion.attach(replica.router)
            early, parked[:] = list(parked), []
            for message in early:
                replica.route(*message)

        replica.router.register(topic("excl"), park)
        replica.router.register(topic("incl"), park)
        changes[rid] = MembershipChange(
            host=replica,
            epoch=0,
            committee=range(n),
            pofs={culprit: pofs[culprit] for culprit in known_to(rid)},
            pool=CandidatePool(range(n, 2 * n)),
            on_complete=lambda outcome, rid=rid: outcomes.setdefault(rid, outcome),
            on_inclusion_started=inclusion_started,
        )
        changes[rid].exclusion.attach(replica.router)
    return simulator, changes, outcomes, pofs


def _replicas(n, culprits, known_to):
    """The same committee as real ASMR replicas, each with its membership
    change started (exclusion proposal sent) from the PoFs of
    ``known_to(replica_id)``.  Returns ``(simulator, replicas, changes,
    pofs)``, the middle two by honest replica id."""
    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(ConstantDelay(0.01), SimulationConfig(seed=0))
    replicas = {}
    for rid in range(n):
        replicas[rid] = ASMRReplica(
            replica_id=rid,
            committee=list(range(n)),
            signer=keys.signer_for(rid),
            registry=keys.registry,
            pool=CandidatePool(range(n, 2 * n)),
            # Whatever a replica knows when the test begins starts its change.
            config=ProtocolConfig(pof_threshold=1),
            fault=FaultKind.BENIGN if rid in culprits else FaultKind.HONEST,
        )
        simulator.add_process(replicas[rid])
    pofs = {culprit: _pof(replicas[culprit]) for culprit in culprits}
    honest = {rid: replica for rid, replica in replicas.items() if rid not in culprits}
    for rid, replica in honest.items():
        replica.pofs.update({culprit: pofs[culprit] for culprit in known_to(rid)})
        replica._maybe_start_membership_change()
    changes = {rid: replica.membership_change for rid, replica in honest.items()}
    return simulator, honest, changes, pofs


def _outcomes(replicas):
    """The completed membership change of each replica that has one."""
    return {
        rid: replica.membership_outcomes[0]
        for rid, replica in replicas.items()
        if replica.membership_outcomes
    }


class TestShrinkingExclusionCommittee:
    def test_a_culprit_proven_late_leaves_the_running_exclusion_consensus(self):
        # Replica 0 starts from two of the three PoFs: its C' still holds
        # replica 4, whose slot nobody else runs.
        culprits = (4, 5, 6)
        simulator, changes, outcomes, pofs = _changes(
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

    def test_a_dropped_slot_loses_its_routes(self):
        culprits = (4, 5, 6)
        simulator, changes, _, pofs = _changes(
            7, culprits, lambda rid: (5, 6) if rid == 0 else culprits
        )
        # Replica 0 never hears replica 3, so its exclusion consensus is
        # still undecided once slot 4 is gone.
        replica = changes[0].host
        deliver = replica.on_message
        replica.on_message = lambda message: message.sender == 3 or deliver(message)
        for change in changes.values():
            change.start()
        simulator.run()
        exclusion, router = changes[0].exclusion, replica.router
        dropped = [exclusion._rbc[4], exclusion._binary[4]]
        assert [router.resolve(c.topic) for c in dropped] == [c.handle for c in dropped]
        changes[0].learn_pofs({4: pofs[4]})
        assert exclusion.slots == (0, 1, 2, 3) and not exclusion.decided
        assert {route.segments: handler for route, handler in exclusion.routes()} == {
            segments: handler
            for table in router_tables(router).values()
            for segments, handler in table.items()
            if segments[:2] == ("excl", 0)
        }
        # What is still sent to the slot lands on the instance prefix (not on
        # the root that parks), which drops it: nothing is answered.
        sent = simulator.messages_sent
        for component, kind in zip(dropped, ("ECHO", "BVAL")):
            assert router.resolve(component.topic) == exclusion.handle
            assert replica.route(component.topic, 1, kind, {"round": 0, "value": 1})
        assert simulator.messages_sent == sent

    def test_the_exclusion_consensus_decides_at_the_shrunken_quorum(self):
        # Replica 0 starts from two of the three PoFs and never hears replica
        # 3: every step holds three votes (0, 1, 2) against a quorum of 4 of
        # C' = {0..4}.
        culprits = (4, 5, 6)
        simulator, changes, outcomes, pofs = _changes(
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
        simulator, changes, outcomes, pofs = _changes(4, culprits, lambda rid: culprits)
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
        simulator, replicas, changes, _ = _replicas(7, culprits, lambda rid: culprits)
        # Replica 0 is slow: everything the others send it for the exclusion
        # consensus waits, while they decide it (3 of 4), run the inclusion
        # consensus and send replica 0 all of that as well.
        late = replicas[0]
        deliver, held = late.on_message, []
        late.on_message = lambda message: (
            held.append(message) if message.topic.segments[0] == "excl" else deliver(message)
        )
        simulator.run()
        assert sorted(_outcomes(replicas)) == [1, 2, 3]
        # With no inclusion consensus to hear it, all of it sits in the
        # replica's one list, in arrival order.
        parked = list(late._early.parked["membership"])
        assert changes[0].inclusion is None and parked
        assert {message[0].segments[:2] for message in parked} == {("incl", 0)}
        # The exclusion traffic lands: replica 0 decides, starts its inclusion
        # consensus, routes what it kept again — same messages, same order —
        # and completes from it.
        replayed = []
        route = late.route
        late.route = lambda *message: replayed.append(message) or route(*message)
        late.on_message = deliver
        for message in held:
            deliver(message)
        simulator.run()
        assert replayed == parked and "membership" not in late._early.parked
        outcomes = _outcomes(replicas)
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert {tuple(outcome.excluded) for outcome in outcomes.values()} == {culprits}
        assert len({tuple(outcome.included) for outcome in outcomes.values()}) == 1

    def test_a_replica_left_behind_by_detached_peers_is_stuck_in_inclusion(self):
        # The scenario of ``test_the_exclusion_consensus_decides_at_the_
        # shrunken_quorum`` on real replicas.  There the peers' completed
        # changes keep answering; a real replica detaches when it completes
        # (before PR 24: ``membership_change = None``, same effect), so
        # replica 0 — which never hears replica 3 — decides the exclusion,
        # proposes to an inclusion consensus nobody runs any more and cannot
        # fetch slot 3's value.  A known gap (ROADMAP item 1 (c)), pinned so a
        # change to it is seen; the catch-up of a late member is its fix.
        culprits = (4, 5, 6)
        simulator, replicas, changes, pofs = _replicas(
            7, culprits, lambda rid: (5, 6) if rid == 0 else culprits
        )
        deliver = replicas[0].on_message
        replicas[0].on_message = lambda message: message.sender == 3 or deliver(message)
        simulator.run()
        assert sorted(_outcomes(replicas)) == [1, 2, 3] and not changes[0].exclusion.decided
        changes[0].learn_pofs(pofs)
        simulator.run()
        assert changes[0].exclusion.decided and changes[0].excluded == [4, 5, 6]
        assert changes[0].inclusion is not None and not changes[0].inclusion.decided
        assert sorted(_outcomes(replicas)) == [1, 2, 3]
        # It hears everybody and the same late start completes.
        simulator, replicas, changes, pofs = _replicas(
            7, culprits, lambda rid: (5, 6) if rid == 0 else culprits
        )
        simulator.run()
        changes[0].learn_pofs(pofs)
        simulator.run()
        outcomes = _outcomes(replicas)
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert len({tuple(outcome.included) for outcome in outcomes.values()}) == 1

    def test_a_completed_change_leaves_only_the_root_fallbacks(self):
        culprits = (4, 5, 6)
        simulator, replicas, changes, _ = _replicas(7, culprits, lambda rid: culprits)
        started = router_tables(replicas[0].router)
        assert len(started[4]) == 2 * 4 and ("excl", 0) in started[2]
        simulator.run()
        assert sorted(_outcomes(replicas)) == [0, 1, 2, 3]
        for replica in replicas.values():
            assert replica.membership_change is None and replica.epoch == 1
            membership = [
                segments
                for table in router_tables(replica.router).values()
                for segments in table
                if segments[0] in ("excl", "incl")
            ]
            assert sorted(membership) == [("excl",), ("incl",)]
        # What the change registered and nothing else is gone.
        del started[4], started[2][("excl", 0)]
        assert router_tables(replicas[0].router) == started

    def test_traffic_of_a_finished_epoch_is_dropped_and_counted(self):
        culprits = (4, 5, 6)
        simulator, replicas, changes, _ = _replicas(7, culprits, lambda rid: culprits)
        seen = tap([replicas[0]])
        simulator.run()
        replica = replicas[0]
        replica.probe = Probe(metrics=TelemetryRegistry())
        stale = [m for m in seen if m.topic.segments[0] in ("excl", "incl")][:5]
        for message in stale:
            replica.on_message(message)
        assert len(stale) == 5 and "membership" not in replica._early.parked
        counters = replica.probe.metrics.snapshot()["counters"]
        assert counters["asmr.early_dropped{reason=stale}"] == 5
        # The next epoch's is early, not stale: it waits for that change.
        early = stale[0].topic.segments[:1] + (1,) + stale[0].topic.segments[2:]
        replica.route(Topic.of(*early), 1, stale[0].kind, stale[0].body)
        assert [message[0].segments for message in replica._early.parked["membership"]] == [early]

    def test_a_flood_of_far_epochs_is_capped_per_sender_and_counted(self):
        culprits = (4, 5, 6)
        simulator, replicas, changes, _ = _replicas(7, culprits, lambda rid: culprits)
        replica = replicas[0]
        replica.probe = Probe(metrics=TelemetryRegistry())
        far = Topic.of("excl", 10**9, "bin", 0)
        for _ in range(10_000):
            replica.route(far, 1, "BVAL", {"value": 0})
        assert len(replica._early.parked["membership"]) == AHEAD_PER_SENDER
        counters = replica.probe.metrics.snapshot()["counters"]
        assert counters["asmr.early_dropped{reason=full}"] == 10_000 - AHEAD_PER_SENDER
        # The cap is the flooding sender's alone: another peer still parks,
        # and the committee's own membership change completes.
        replica.route(far, 2, "BVAL", {"value": 0})
        assert len(replica._early.parked["membership"]) == AHEAD_PER_SENDER + 1
        # One share covers every kind: a sender that filled it with CONFIRMs
        # parks nothing else, and another's consensus and membership traffic
        # still park.
        for _ in range(AHEAD_PER_SENDER):
            replica._handle_confirm(3, {"instance": 0, "digest": "early"})
        next_epoch = Topic.of("sbc", 1, 1, "bin", 0)
        for sender in (3, 2):
            replica.route(far, sender, "BVAL", {"value": 0})
            replica.route(next_epoch, sender, "BVAL", {"value": 0})
        assert len(replica._early.parked[0]) == AHEAD_PER_SENDER
        assert len(replica._early.parked["membership"]) == AHEAD_PER_SENDER + 2
        assert [message[1] for message in replica._early.parked["ahead"]] == [2]
        flood_drops = 10_000 - AHEAD_PER_SENDER + 2
        counters = replica.probe.metrics.snapshot()["counters"]
        assert counters["asmr.early_dropped{reason=full}"] == flood_drops
        simulator.run()
        assert sorted(_outcomes(replicas)) == [0, 1, 2, 3]
        counters = replica.probe.metrics.snapshot()["counters"]
        assert counters["asmr.early_dropped{reason=full}"] == flood_drops
