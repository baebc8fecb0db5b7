"""Retiring decided instances: a replica holds a window, not its history.

An instance ``m`` (the finalization blockdepth) behind the decided head, that
every other member confirmed and nobody disputed, drops its Set Byzantine
Consensus and keeps a decision narrowed to what a PULL, a catch-up and a late
conflicting CONFIRM still read.  Retirement sends nothing, so schedules are
pinned to the commit before it.
"""

import pytest

from repro.common.config import FaultConfig
from repro.consensus.certificates import (
    Certificate,
    VoteKind,
    certificate_from_payload,
    make_vote,
)
from repro.consensus.proofs import accountable_votes, extract_pofs_from_grouped, group_votes
from repro.crypto.hashing import hash_payload
from repro.network.message import Message
from repro.network.topic import topic
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.smr.asmr import AHEAD_PER_SENDER, AHEAD_WINDOW, _confirm_grouped_votes
from repro.zlb.system import AttackSpec, ZLBSystem

from tests.consensus.harness import build_cluster, decided_asmr_committee, of_kind

#: The finalization blockdepth every deployment and test committee uses.
M = 5


def _counters(replica):
    return replica.probe.metrics.snapshot()["counters"]


# -- a window, not a history -------------------------------------------------------


#: The 300-instance cell at the commit before retirement: every signature
#: verdict and vote-statement digest was still cached at the end, and these
#: were its outputs.  Its schedule, re-recorded when binary rounds started at
#: 1 (before: 137 294 messages, 857 committed, head ``e4910a2c…``).  Replica
#: 3's proposal misses the zero phase's grace in 288 of the 300 instances
#: (280 before), and a slot decided 0 now takes two rounds: 912 transfers are
#: included (920 before) and 94 of them do not apply at commit (63 before).
#: The memo sizes are the bounds' base and stay the pre-retirement ones.
PARENT_VERIFIED = 19_280
PARENT_VOTE_DIGESTS = 6_920
PARENT_MESSAGES_SENT = 118_098
PARENT_COMMITTED = 818
PARENT_HEAD = "f74c958491e733cfff2c645dd7ee8980b07e1a372d1d63db92636a12d64b4a2d"


def _window_cell():
    system = ZLBSystem.create(
        FaultConfig(n=4), seed=1, workload_transactions=1200, batch_size=1
    )
    return system, system.run_instances(300)


def test_a_replica_holds_a_window_of_instances_not_its_history():
    """300 instances at n=4: every table that grew by an instance's worth per
    block is O(m), the schedule is the one before retirement, and a second
    cell in the same process equals the first."""
    fingerprints = []
    for _ in range(2):
        system, result = _window_cell()
        heads = {r.blockchain.record.head_hash for r in system.honest_replicas()}
        fingerprints.append(
            (
                system.simulator.events_processed,
                result.messages_sent,
                result.messages_delivered,
                result.committed_transactions,
                result.simulated_time,
                heads,
            )
        )
        assert result.messages_sent == PARENT_MESSAGES_SENT
        assert result.committed_transactions == PARENT_COMMITTED
        assert heads == {PARENT_HEAD}
        for replica in system.honest_replicas():
            assert replica.decided_instances() == list(range(300))
            assert len(replica.instances) == 300
            assert len(replica._sbc) <= M + 1
            tables = {length: len(table) for length, table in replica.router._tables}
            assert tables[5] <= 2 * 4 * (M + 1) and tables[3] <= M + 1
        # Both generations of a memo hold about two depths of instances,
        # where it used to keep the whole run; each cell's registry holds
        # its own.
        registry = system.replicas[0].registry
        for memo, parent in (
            (registry._verified, PARENT_VERIFIED),
            (registry.vote_digests, PARENT_VOTE_DIGESTS),
        ):
            assert memo.previous
            assert len(memo) + len(memo.previous) <= (2 * M + 2) * parent / 300
    assert fingerprints[0] == fingerprints[1]


def test_a_committee_with_a_silent_member_retires_nothing():
    system = ZLBSystem.create(
        FaultConfig(n=4, benign=1), seed=1, workload_transactions=40, batch_size=1
    )
    system.run_instances(2 * M)
    for replica in system.honest_replicas():
        assert replica.decided_instances() == list(range(2 * M))
        assert sorted(replica._sbc) == list(range(2 * M))


# -- what a retired instance still answers -------------------------------------------------


def _committee_past_the_depth():
    """Four ASMR replicas that decided ``M + 2`` instances: 0 and 1 retired."""
    simulator, replicas, seen = decided_asmr_committee()
    for replica in replicas:
        replica.submit_instances(M + 1)
    simulator.run()
    for replica in replicas:
        assert sorted(replica._sbc) == list(range(2, M + 2))
        replica.probe = Probe(metrics=TelemetryRegistry())
    return simulator, replicas, seen


def test_a_retired_instance_keeps_its_decision_and_drops_its_traffic():
    simulator, replicas, seen = _committee_past_the_depth()
    replica = replicas[0]
    decision = replica.instances[0].decision
    assert decision.proposals and decision.binary_certificates and decision.rbc_certificates
    assert {vote.kind for vote in decision.justification_votes} == {
        VoteKind.AUX,
        VoteKind.RBC_READY,
    }
    # Late consensus traffic for it — a vote, a FETCH — falls to the lazy
    # fallback: not unrouted, no instance started, nothing sent back.
    del seen[:]
    for kind, body in (("ECHO", {}), ("FETCH", {"digest": decision.proposal_digests[1]})):
        replica.on_message(Message(1, 0, ("sbc", 0, 0, "rbc", 1), kind, body))
    simulator.run()
    assert [message for message in seen if message.sender == 0] == []
    assert replica.unrouted_messages == 0 and len(replica.instances) == M + 2
    assert _counters(replica)["asmr.retired_messages"] == 2
    # A PULL is still served from the decision.
    wanted = {2: decision.proposal_digests[2]}
    replicas[1].send_to(0, replicas[1].CONFIRM_TOPIC.child(0), "PULL", {"instance": 0, "wanted": wanted})
    simulator.run()
    served = of_kind(seen, "PROPOSALS")
    assert [m.body["proposals"] for m in served] == [{2: decision.proposals[2]}]


def test_a_late_conflicting_confirm_for_a_retired_instance_still_convicts():
    """Replicas 1-3 signed the other binary value of instance 0's slot 0: the
    narrowed decision still has the AUX votes that prove it."""
    _, replicas, _ = _committee_past_the_depth()
    local = replicas[0].instances[0].decision
    certificate = local.binary_certificates[0]
    other = next(
        digest
        for digest in (hash_payload(["binary-value", 0]), hash_payload(["binary-value", 1]))
        if digest != certificate.value_digest
    )
    forged = Certificate.from_votes(
        make_vote(replica, certificate.context, certificate.round, VoteKind.AUX, other)
        for replica in replicas[1:]
    )
    body = {
        "instance": 0,
        "digest": "a decision nobody else made",
        "bitmask": dict(local.bitmask),
        "proposal_digests": dict(local.proposal_digests),
        "binary_certificates": {0: forged.to_payload()},
        "rbc_certificates": {},
    }
    replicas[0]._handle_confirm(3, body)
    assert sorted(replicas[0].pofs) == [1, 2, 3]
    assert replicas[0].instances[0].disagreed


# -- CONFIRMs a peer can park --------------------------------------------------------------


def test_confirms_park_only_near_the_target_and_only_an_int_instance():
    """Far-ahead CONFIRMs were all kept, ``"abc"`` raised out of the handler
    and ``True`` was read as instance 1, a conflicting digest there."""
    simulator, replicas, _ = decided_asmr_committee()
    for replica in replicas:
        replica.submit_instances(1)
    simulator.run()
    replica = replicas[0]
    replica.probe = Probe(metrics=TelemetryRegistry())
    for instance in range(10**6, 10**6 + 10_000):
        replica._handle_confirm(1, {"instance": instance, "digest": "far ahead"})
    replica._handle_confirm(1, {"instance": "abc", "digest": "not an instance"})
    replica._handle_confirm(1, {"instance": True, "digest": "not an instance"})
    assert replica._early.parked == {}
    assert not replica.instances[1].disagreed
    assert _counters(replica)["asmr.early_dropped{reason=far}"] == 10_002
    # Within the window a sender parks at most its share.
    ahead = replica.target_instances + AHEAD_WINDOW
    for _ in range(AHEAD_PER_SENDER + 5):
        replica._handle_confirm(2, {"instance": ahead, "digest": "early"})
    assert len(replica._early.parked[ahead]) == AHEAD_PER_SENDER
    assert _counters(replica)["asmr.early_dropped{reason=full}"] == 5


@pytest.mark.parametrize(
    "epoch, past_target, flood, reason",
    [
        (1, AHEAD_WINDOW + 1, 5, "far"),
        (3, 1, 5, "far"),
        (0, 1, 5, "stale"),
        (1, AHEAD_WINDOW, AHEAD_PER_SENDER + 5, "full"),
        (2, 0, AHEAD_PER_SENDER + 5, "full"),
    ],
    ids=["past the window", "two epochs ahead", "a finished epoch", "past the share",
         "the next epoch past the share"],
)
def test_consensus_traffic_that_cannot_park_is_dropped_and_counted(
    epoch, past_target, flood, reason
):
    """In epoch 1, consensus traffic for an instance up to ``AHEAD_WINDOW``
    past the target or of epoch 2 parks, up to the sender's share; the rest
    was dropped without a count."""
    simulator, replicas, _ = decided_asmr_committee()
    replica = replicas[0]
    replica.epoch = 1
    replica.probe = Probe(metrics=TelemetryRegistry())
    message_topic = topic("sbc", epoch, replica.target_instances + past_target, "bin", 0)
    for _ in range(flood):
        replica.route(message_topic, 1, "BVAL", {"round": 0, "value": 1})
    assert len(replica._early.parked.get("ahead", [])) == flood - 5
    assert _counters(replica) == {f"asmr.early_dropped{{reason={reason}}}": 5}


# -- accountability survives retirement ------------------------------------------------------


def test_a_confirm_certificate_of_another_kind_adds_no_votes():
    """A CONFIRM's binary certificates are read for AUX votes and its RBC
    certificates for READY votes, as an honest one carries: nothing else
    reaches the cross-check, so a narrowed decision meets any CONFIRM as the
    full one did."""
    _, replicas, _ = build_cluster(4)

    def votes(kind, context):
        return [make_vote(replica, context, 0, kind, "digest") for replica in replicas[1:]]

    aux = votes(VoteKind.AUX, "sbc:0:0:bin:0")
    echo_payload = Certificate.from_votes(votes(VoteKind.RBC_ECHO, "sbc:0:0:rbc:0")).to_payload()
    aux_payload = Certificate.from_votes(aux).to_payload()
    memo = replicas[0].registry.confirm_grouped
    assert not _confirm_grouped_votes(
        memo, {"binary_certificates": {0: echo_payload}, "rbc_certificates": {0: aux_payload}}
    )
    # An AUX certificate smuggling an ECHO vote: only the AUX votes count.
    (echo,) = votes(VoteKind.RBC_ECHO, "sbc:0:0:bin:0")[:1]
    mixed = Certificate(aux[0].context, 0, VoteKind.AUX, "digest", tuple(aux) + (echo,))
    assert certificate_from_payload(mixed.to_payload()).votes[-1].kind is VoteKind.RBC_ECHO
    grouped = _confirm_grouped_votes(memo, {"binary_certificates": {0: mixed.to_payload()}})
    assert sorted(key[0] for key in grouped) == [1, 2, 3]
    assert {key[3] for key in grouped} == {VoteKind.AUX.value}


def _every_certificate_vote(body):
    return [
        vote
        for group in ("binary_certificates", "rbc_certificates")
        for payload in body.get(group, {}).values()
        for vote in certificate_from_payload(payload).votes
    ]


@pytest.mark.parametrize("kind", ["rbbcast", "binary"])
@pytest.mark.parametrize("seed", range(1, 11))
def test_a_narrowed_decision_yields_the_proofs_of_the_full_one(kind, seed):
    """Every conflicting CONFIRM an honest replica received in an n=9 attack
    cell, replayed against its decision narrowed as retirement narrows it:
    the same proofs of fraud, votes included, as the full decision against
    every vote of the CONFIRM's certificates."""
    system = ZLBSystem.create(
        FaultConfig.paper_attack(9),
        seed=seed,
        delay="aws",
        attack=AttackSpec(kind=kind, cross_partition_delay="1000ms"),
        workload_transactions=12 * 9,
        batch_size=10,
        max_time=300.0,
    )
    received = []
    for replica in system.honest_replicas():

        def extract(record, body, live=replica._extract_pofs_from_confirm):
            received.append((record.decision.justification_votes, body))
            live(record, body)

        replica._extract_pofs_from_confirm = extract
    result = system.run_instances(1, until=300.0)
    assert result.recovered and result.deposit_shortfall == 0
    assert received
    convicted = 0
    for justification, body in received:
        full = extract_pofs_from_grouped(
            group_votes(justification), group_votes(_every_certificate_vote(body))
        )
        narrowed = extract_pofs_from_grouped(
            group_votes(accountable_votes(justification)),
            _confirm_grouped_votes(system.deployment.keys.registry.confirm_grouped, body),
        )
        assert narrowed == full
        convicted += len(full)
    assert convicted
