"""Tests for the ASMR replica (fault-free path and confirmation phase)."""

import pytest

from repro.common.config import ProtocolConfig, SimulationConfig
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.network.delays import ConstantDelay
from repro.network.message import Message
from repro.network.simulator import NetworkSimulator
from repro.network.topic import topic
from repro.smr.asmr import ASMRReplica
from repro.smr.pool import CandidatePool

from tests.consensus.harness import of_kind, tap


def build_asmr_cluster(n=4, instances=2, seed=0, config=None):
    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(ConstantDelay(0.01), SimulationConfig(seed=seed))
    committee = list(range(n))
    replicas = []
    commits = {i: [] for i in range(n)}
    for replica_id in committee:
        replica = ASMRReplica(
            replica_id=replica_id,
            committee=committee,
            signer=keys.signer_for(replica_id),
            registry=keys.registry,
            pool=CandidatePool([]),
            config=config or ProtocolConfig(batch_size=10),
            proposal_factory=lambda k, rid=replica_id: {"instance": k, "from": rid},
            on_commit=lambda k, decision, rid=replica_id: commits[rid].append(k),
        )
        simulator.add_process(replica)
        replicas.append(replica)
    for replica in replicas:
        replica.submit_instances(instances)
    simulator.run()
    return replicas, commits, simulator


class TestASMRFaultFree:
    def test_all_replicas_decide_all_instances(self):
        replicas, commits, _ = build_asmr_cluster(n=4, instances=3)
        for replica in replicas:
            assert replica.decided_instances() == [0, 1, 2]
        for committed in commits.values():
            assert committed == [0, 1, 2]

    def test_decisions_agree_across_replicas(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=2)
        for instance in (0, 1):
            digests = {r.instances[instance].decision.digest for r in replicas}
            assert len(digests) == 1

    def test_confirmation_reached_without_disagreement(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=1)
        for replica in replicas:
            record = replica.instances[0]
            assert record.confirmed_at is not None
            assert not record.disagreed
        assert all(r.pofs == {} for r in replicas)

    def test_no_membership_change_without_pofs(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=2)
        assert all(r.membership_outcomes == [] for r in replicas)
        assert all(r.detected_at is None for r in replicas)

    def test_confirmation_disabled(self):
        replicas, _, _ = build_asmr_cluster(
            n=4,
            instances=1,
            config=ProtocolConfig(batch_size=10, confirmation_enabled=False),
        )
        for replica in replicas:
            assert replica.instances[0].decision is not None
            assert replica.instances[0].confirmed_at is None

    def test_instances_run_sequentially(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=2)
        record0 = replicas[0].instances[0]
        record1 = replicas[0].instances[1]
        assert record1.started_at >= record0.decided_at

    def test_pof_threshold_default(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=1)
        assert replicas[0].pof_threshold() == 2  # ceil(4/3)

    def test_metrics_helpers(self):
        replicas, _, _ = build_asmr_cluster(n=4, instances=1)
        assert replicas[0].history.disagreed == {}


# -- digest-only CONFIRM, proposals pulled on disagreement ----------------------


def _cluster_with_merges(n=4, instances=1):
    """A decided fault-free committee plus everything delivered and merged after."""
    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(ConstantDelay(0.01), SimulationConfig(seed=0))
    replicas, merges = [], {i: [] for i in range(n)}
    for replica_id in range(n):
        replica = ASMRReplica(
            replica_id=replica_id,
            committee=list(range(n)),
            signer=keys.signer_for(replica_id),
            registry=keys.registry,
            pool=CandidatePool([]),
            config=ProtocolConfig(batch_size=10),
            proposal_factory=lambda k, rid=replica_id: {"instance": k, "from": rid},
            on_merge=lambda k, proposals, rid=replica_id: merges[rid].append((k, proposals)),
        )
        simulator.add_process(replica)
        replicas.append(replica)
    seen = tap(replicas)
    for replica in replicas:
        replica.submit_instances(instances)
    simulator.run()
    return simulator, replicas, merges, seen


class TestConfirmationPull:
    TOPIC = topic("asmr", "confirm", 0)

    def test_confirm_carries_digests_and_agreement_pulls_nothing(self):
        _, replicas, merges, seen = _cluster_with_merges()
        confirms = of_kind(seen, "CONFIRM")
        assert confirms
        decision = replicas[0].instances[0].decision
        for message in confirms:
            assert "proposals" not in message.body
            assert message.body["proposal_digests"] == {
                slot: hash_payload(value) for slot, value in decision.proposals.items()
            }
        assert not of_kind(seen, "PULL") and not of_kind(seen, "PROPOSALS")
        assert all(not merged for merged in merges.values())

    def _forged_confirm(self, wanted):
        return {
            "instance": 0,
            "digest": "a decision nobody else made",
            "bitmask": {slot: 1 for slot in wanted},
            "proposal_digests": dict(wanted),
            "binary_certificates": {},
            "rbc_certificates": {},
        }

    def test_conflicting_proposals_are_pulled_per_confirmer_and_hash_checked(self):
        simulator, replicas, merges, seen = _cluster_with_merges()
        local = replicas[0].instances[0].decision
        wanted = {2: hash_payload("theirs")}
        # Slot 1 is confirmed under the digest decided here: nothing to pull.
        confirm = self._forged_confirm({1: local.proposal_digests[1], **wanted})
        del seen[:]
        replicas[3].send_to(0, self.TOPIC, "CONFIRM", confirm)
        replicas[3].send_to(0, self.TOPIC, "CONFIRM", confirm)
        simulator.run()
        # One request for the one (slot, digest) missing here, to whoever
        # confirmed it; the same sender confirming again is not asked again.
        pulls = of_kind(seen, "PULL")
        assert [(m.sender, m.recipient, m.body["wanted"]) for m in pulls] == [(0, 3, wanted)]
        # Replica 3 never decided that digest, so it serves nothing.
        assert not of_kind(seen, "PROPOSALS")
        assert merges[0] == []

        # Replies: from a replica that was not asked, for a slot that was not
        # asked, and with the wrong content, are dropped without being stored.
        reply = {"instance": 0, "proposals": {2: "theirs"}}
        replicas[2].send_to(0, self.TOPIC, "PROPOSALS", reply)
        replicas[3].send_to(0, self.TOPIC, "PROPOSALS", {"instance": 0, "proposals": {1: "unasked"}})
        replicas[3].send_to(0, self.TOPIC, "PROPOSALS", {"instance": 0, "proposals": {2: "forged"}})
        simulator.run()
        assert replicas[0].instances[0].pulled == {} and merges[0] == []
        # An asked sender gets one answer per slot: what it sends after the
        # forgery is not even hashed.
        replicas[3].send_to(0, self.TOPIC, "PROPOSALS", reply)
        simulator.run()
        assert replicas[0].instances[0].pulled == {} and merges[0] == []

    def test_a_withholding_confirmer_does_not_block_the_merge(self):
        simulator, replicas, merges, seen = _cluster_with_merges()
        local = replicas[0].instances[0].decision
        wanted = {2: hash_payload("theirs")}
        confirm = self._forged_confirm({1: local.proposal_digests[1], **wanted})
        del seen[:]
        # Replica 3 confirms first and never answers its PULL; replica 2
        # confirms the same digest later and is asked too; replica 1 is the
        # third confirmer of it, one more than ceil(4/3) = 2 get asked.
        for confirmer in (3, 2, 1):
            replicas[confirmer].send_to(0, self.TOPIC, "CONFIRM", confirm)
            simulator.run()
        pulls = of_kind(seen, "PULL")
        assert [(m.recipient, m.body["wanted"]) for m in pulls] == [(3, wanted), (2, wanted)]
        assert merges[0] == []
        reply = {"instance": 0, "proposals": {2: "theirs"}}
        replicas[2].send_to(0, self.TOPIC, "PROPOSALS", reply)
        replicas[2].send_to(0, self.TOPIC, "PROPOSALS", reply)
        simulator.run()
        # All three waiting merges run, with the local copy of slot 1 and the
        # pulled copy of slot 2; a fourth confirmer then needs no pull at all.
        expected = (0, {1: local.proposals[1], 2: "theirs"})
        assert merges[0] == [expected] * 3
        assert replicas[0].instances[0].pending_merges == []
        del seen[:]
        replicas[0]._handle_confirm(99, confirm)
        simulator.run()
        assert not of_kind(seen, "PULL") and merges[0] == [expected] * 4

    def test_pull_is_served_once_and_only_for_what_was_decided(self):
        simulator, replicas, _, seen = _cluster_with_merges()
        decision = replicas[0].instances[0].decision
        wanted = {2: decision.proposal_digests[2], 3: hash_payload("not decided here")}
        del seen[:]
        for _ in range(2):
            replicas[1].send_to(0, self.TOPIC, "PULL", {"instance": 0, "wanted": wanted})
        replicas[1].send_to(0, replicas[1].CONFIRM_TOPIC.child(7), "PULL", {"instance": 7, "wanted": wanted})
        replicas[1].send_to(0, self.TOPIC, "PULL", {"instance": [0], "wanted": wanted})
        replicas[1].send_to(0, self.TOPIC, "PULL", {"instance": 0, "wanted": "everything"})
        # Not a member of the instance's committee.
        replicas[0]._handle_pull(99, {"instance": 0, "wanted": wanted})
        simulator.run()
        served = of_kind(seen, "PROPOSALS")
        assert [(m.sender, m.recipient, m.body["proposals"]) for m in served] == [
            (0, 1, {2: decision.proposals[2]})
        ]


class TestInstanceRoutes:
    def test_an_unknown_slot_or_layer_of_a_live_instance_is_dropped_by_it(self):
        """The instance prefix catches what no component's topic does: not
        unrouted, not a lazy start, nothing sent in reply."""
        replicas, _, simulator = build_asmr_cluster(n=4, instances=1)
        replica = replicas[0]
        component = replica._sbc[0]
        assert [len(table) for _, table in replica.router._tables] == [2 * 4, 1, 3, 3]
        seen = tap(replicas)
        for stray in (
            topic("sbc", 0, 0, "rbc", 99),
            topic("sbc", 0, 0, "bin", "x"),
            topic("sbc", 0, 0, "pbft", 1),
            topic("sbc", 0, 0, "rbc"),
            topic("sbc", 0, 0),
        ):
            assert replica.router.resolve(stray) == component.handle
            replica.on_message(Message(1, 0, stray, "ECHO", {}))
        simulator.run()
        assert replica.unrouted_messages == 0 and sorted(replica.instances) == [0]
        assert [message for message in seen if message.sender == 0] == []
        # What a component owns goes to it without passing the instance, and
        # so does anything sent below its topic: a prefix is what a route is.
        for owned in (topic("sbc", 0, 0, "rbc", 1), topic("sbc", 0, 0, "rbc", 1, "deeper")):
            assert replica.router.resolve(owned) == component._rbc[1].handle


class TestAheadOfTarget:
    def test_messages_past_the_target_are_replayed_when_the_target_catches_up(self):
        # On real sockets each replica's driver budgets instances on its own
        # clock: three replicas run ahead, the fourth asks for the later
        # instances only afterwards and must still decide them.
        keys = KeyRegistry.provision(range(4))
        simulator = NetworkSimulator(ConstantDelay(0.01), SimulationConfig(seed=0))
        replicas = []
        for replica_id in range(4):
            replica = ASMRReplica(
                replica_id=replica_id,
                committee=list(range(4)),
                signer=keys.signer_for(replica_id),
                registry=keys.registry,
                pool=CandidatePool([]),
                config=ProtocolConfig(batch_size=10),
            )
            simulator.add_process(replica)
            replicas.append(replica)
        for replica in replicas:
            replica.submit_instances(1 if replica.replica_id == 0 else 3)
        replicas[0].set_timer(5.0, lambda: replicas[0].submit_instances(2))
        simulator.run()
        for replica in replicas:
            assert replica.decided_instances() == [0, 1, 2]
        digests = {r.instances[2].decision.digest for r in replicas}
        assert len(digests) == 1
        assert "ahead" not in replicas[0]._early.parked
