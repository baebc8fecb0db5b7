"""Integration-style unit tests for Bracha reliable broadcast over the simulator."""

import pytest

from repro.adversary.behaviors import PassiveStrategy
from repro.common.types import FaultKind, recovery_threshold
from repro.consensus.certificates import VoteKind, make_vote
from repro.consensus.proofs import extract_pofs_from_votes
from repro.crypto.hashing import hash_payload
from repro.network.delays import UniformDelay
from repro.rbc.bracha import ReliableBroadcast

from tests.consensus.harness import attach_component, build_cluster, of_kind, tap


def _attach_rbc(replicas, context, proposer, deliveries):
    components = []
    for replica in replicas:
        component = ReliableBroadcast(
            host=replica,
            context=context,
            proposer=proposer,
            on_deliver=lambda p, value, cert, rid=replica.replica_id: deliveries.setdefault(
                rid, (p, value, cert)
            ),
        )
        attach_component(replica, component)
        components.append(component)
    return components


class TestReliableBroadcast:
    def test_all_honest_deliver_proposed_value(self):
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        components[0].broadcast({"batch": [1, 2, 3]})
        simulator.run()
        assert set(deliveries) == {0, 1, 2, 3}
        assert all(value == {"batch": [1, 2, 3]} for _, value, _ in deliveries.values())

    def test_delivery_certificate_is_quorum_of_ready_votes(self):
        simulator, replicas, _ = build_cluster(7)
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:2", 2, deliveries)
        components[2].broadcast("payload")
        simulator.run()
        _, _, certificate = deliveries[0]
        certificate.verify(replicas[0], committee=range(7))

    def test_non_proposer_init_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        # Replica 1 is not the proposer of this instance but tries to INIT.
        components[1].broadcast("forged")
        simulator.run()
        assert deliveries == {}

    def test_delivers_with_random_delays(self):
        simulator, replicas, _ = build_cluster(7, delay=UniformDelay.from_mean(0.1), seed=3)
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:1:3", 3, deliveries)
        components[3].broadcast(["tx"] * 5)
        simulator.run()
        assert len(deliveries) == 7

    def test_delivers_despite_benign_minority(self):
        # One benign (mute) replica out of 4: quorum 3 is still reachable.
        simulator, replicas, _ = build_cluster(4, faults={3: FaultKind.BENIGN})
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        components[0].broadcast("value")
        simulator.run()
        assert set(deliveries) >= {0, 1, 2}

    def test_no_delivery_without_quorum(self):
        # With 2 of 4 replicas mute the quorum of 3 READYs is unreachable.
        simulator, replicas, _ = build_cluster(
            4, faults={2: FaultKind.BENIGN, 3: FaultKind.BENIGN}
        )
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        components[0].broadcast("value")
        simulator.run()
        assert deliveries == {}

    def test_tampered_vote_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        # A message whose embedded vote does not match its claimed sender.
        from repro.consensus.certificates import VoteKind, make_vote
        from repro.crypto.hashing import hash_payload

        digest = hash_payload("evil")
        vote = make_vote(replicas[1], "rbc:0:0", 0, VoteKind.RBC_INIT, digest)
        replicas[1].broadcast(
            "rbc:0:0",
            ReliableBroadcast.INIT,
            {"value": "evil", "digest": digest, "vote": vote.to_payload()},
        )
        simulator.run()
        assert deliveries == {}

    def test_collected_votes_accumulate(self):
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        components = _attach_rbc(replicas, "rbc:0:0", 0, deliveries)
        components[0].broadcast("value")
        simulator.run()
        # Each replica saw its own INIT/ECHO/READY votes plus everyone else's.
        assert all(len(c.collected_votes) >= 6 for c in components)


# -- digest-only ECHO/READY with pull-on-miss ----------------------------------

CONTEXT = "rbc:0:0"
VALUE = {"batch": list(range(50))}
DIGEST = hash_payload(VALUE)


class _DropInit(PassiveStrategy):
    """The proposer's INIT never reaches this replica."""

    def filter_incoming(self, replica, message):
        return message.kind != ReliableBroadcast.INIT


class _LyingVoucher(PassiveStrategy):
    """Answers every FETCH with a value that does not hash to the digest."""

    def filter_incoming(self, replica, message):
        if message.kind == ReliableBroadcast.FETCH:
            replica.send_to(
                message.sender,
                message.topic,
                ReliableBroadcast.VALUE,
                {"digest": message.body["digest"], "value": "garbage"},
            )
            return False
        return True


def _vote_body(replica, kind, digest=DIGEST):
    vote = make_vote(replica, CONTEXT, 0, kind, digest)
    return {"digest": digest, "vote": vote.to_payload()}


class TestCollectedVotes:
    def test_a_replayed_echo_is_collected_once(self):
        """Resending one valid signed ECHO, before delivery or after it, adds
        nothing to what ends up in ``SBCDecision.justification_votes``; the
        same replica signing a second digest does, and the pair is the proof
        of fraud."""
        _, replicas, _ = build_cluster(4)
        component = _attach_rbc(replicas, CONTEXT, 0, {})[3]
        echo = _vote_body(replicas[1], VoteKind.RBC_ECHO)
        for delivered in (False, True):
            component.delivered = delivered
            for _ in range(500):
                component.handle(component.topic, 1, ReliableBroadcast.ECHO, echo)
        assert [vote.to_payload() for vote in component.collected_votes] == [echo["vote"]]
        other = _vote_body(replicas[1], VoteKind.RBC_ECHO, digest=hash_payload("other"))
        for _ in range(2):
            component.handle(component.topic, 1, ReliableBroadcast.ECHO, other)
        assert [vote.to_payload() for vote in component.collected_votes] == [
            echo["vote"],
            other["vote"],
        ]
        (pof,) = extract_pofs_from_votes(component.collected_votes)
        assert pof.culprit == 1 and pof.verify(replicas[0])


class TestPullOnMiss:
    @pytest.mark.parametrize("n", [4, 7])
    def test_withheld_init_is_pulled_within_the_request_cap(self, n):
        simulator, replicas, _ = build_cluster(n)
        victim = n - 1
        replicas[victim].attack_strategy = _DropInit()
        seen = tap(replicas)
        deliveries = {}
        components = _attach_rbc(replicas, CONTEXT, 0, deliveries)
        components[0].broadcast(VALUE)
        simulator.run()
        # Totality: the replica that never saw the INIT delivers the same value.
        assert set(deliveries) == set(range(n))
        assert all(value == VALUE for _, value, _ in deliveries.values())
        # It asked the first voucher, then — the READY quorum landing before
        # the answer on these equal links — the rest of the first ceil(n/3):
        # every other replica vouched, the cap held, nobody else asked.
        fetches = of_kind(seen, ReliableBroadcast.FETCH)
        assert {message.sender for message in fetches} == {victim}
        assert len(fetches) == recovery_threshold(n)
        assert len({message.recipient for message in fetches}) == len(fetches)
        values = of_kind(seen, ReliableBroadcast.VALUE)
        assert 1 <= len(values) <= recovery_threshold(n)
        assert {message.recipient for message in values} == {victim}
        # The value crossed each link once: votes carry the digest only.
        for kind in (ReliableBroadcast.ECHO, ReliableBroadcast.READY):
            assert all(set(message.body) == {"digest", "vote"} for message in of_kind(seen, kind))

    def test_a_late_init_costs_one_request_not_one_per_voucher(self):
        # Echoes of near replicas beat a far proposer's INIT: one voucher is
        # asked at the threshold, nobody else once the INIT is in.
        simulator, replicas, _ = build_cluster(7)
        seen = tap(replicas)
        deliveries = {}
        late = _attach_rbc(replicas, CONTEXT, 0, deliveries)[6]
        for signer in (1, 2, 3, 4):
            late.handle(late.topic, signer, ReliableBroadcast.ECHO, _vote_body(replicas[signer], VoteKind.RBC_ECHO))
        late.handle(
            late.topic,
            0,
            ReliableBroadcast.INIT,
            {"value": VALUE, **_vote_body(replicas[0], VoteKind.RBC_INIT)},
        )
        for signer in (0, 1, 2, 3, 4):
            late.handle(late.topic, signer, ReliableBroadcast.READY, _vote_body(replicas[signer], VoteKind.RBC_READY))
        assert late.delivered
        simulator.run()
        fetches = of_kind(seen, ReliableBroadcast.FETCH)
        assert [(message.sender, message.recipient) for message in fetches] == [(6, 1)]

    def test_the_ready_quorum_asks_every_voucher_left(self):
        simulator, replicas, _ = build_cluster(7)
        seen = tap(replicas)
        blocked = _attach_rbc(replicas, CONTEXT, 0, {})[6]
        for signer in (1, 2, 3, 4, 5):
            blocked.handle(blocked.topic, signer, ReliableBroadcast.READY, _vote_body(replicas[signer], VoteKind.RBC_READY))
            blocked.handle(blocked.topic, signer, ReliableBroadcast.ECHO, _vote_body(replicas[signer], VoteKind.RBC_ECHO))
        simulator.run()
        # The cap: the first ceil(7/3) = 3 vouchers, once each, although five
        # replicas vouched twice.
        fetches = [m for m in of_kind(seen, ReliableBroadcast.FETCH) if m.sender == 6]
        assert [message.recipient for message in fetches] == [1, 2, 3]

    def test_no_pull_when_the_init_arrives(self):
        simulator, replicas, _ = build_cluster(7)
        seen = tap(replicas)
        components = _attach_rbc(replicas, CONTEXT, 0, {})
        components[0].broadcast(VALUE)
        simulator.run()
        assert not of_kind(seen, ReliableBroadcast.FETCH)
        assert not of_kind(seen, ReliableBroadcast.VALUE)

    def test_fetch_is_served_once_per_requester_even_after_delivery(self):
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        components = _attach_rbc(replicas, CONTEXT, 0, deliveries)
        components[0].broadcast(VALUE)
        simulator.run()
        assert components[0].delivered
        seen = tap(replicas)
        for _ in range(3):
            replicas[1].send_to(0, CONTEXT, ReliableBroadcast.FETCH, {"digest": DIGEST})
        replicas[2].send_to(0, CONTEXT, ReliableBroadcast.FETCH, {"digest": DIGEST})
        simulator.run()
        served = of_kind(seen, ReliableBroadcast.VALUE)
        assert sorted(message.recipient for message in served) == [1, 2]
        assert all(message.body == {"digest": DIGEST, "value": VALUE} for message in served)

    def test_fetch_for_unknown_digest_or_from_outsider_is_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        components = _attach_rbc(replicas, CONTEXT, 0, {})
        components[0].broadcast(VALUE)
        simulator.run()
        seen = tap(replicas)
        replicas[1].send_to(
            0, CONTEXT, ReliableBroadcast.FETCH, {"digest": hash_payload("never broadcast")}
        )
        replicas[1].send_to(0, CONTEXT, ReliableBroadcast.FETCH, {"digest": ["not", "a", "digest"]})
        replicas[1].send_to(0, CONTEXT, ReliableBroadcast.FETCH, {})
        # Replica 99 is not in the committee (and not on the network: a served
        # request would fail loudly in the simulator).
        components[0].handle(components[0].topic, 99, ReliableBroadcast.FETCH, {"digest": DIGEST})
        simulator.run()
        assert not of_kind(seen, ReliableBroadcast.VALUE)
        assert components[0]._served == {} and components[0]._waiting == {}

    def test_value_nobody_asked_for_is_not_stored(self):
        simulator, replicas, _ = build_cluster(4)
        components = _attach_rbc(replicas, CONTEXT, 0, {})
        # Correct hash, but replica 3 never asked replica 2 for anything.
        replicas[2].send_to(
            3, CONTEXT, ReliableBroadcast.VALUE, {"digest": DIGEST, "value": VALUE}
        )
        simulator.run()
        assert components[3]._values == {}

    def test_mismatching_value_is_dropped_and_a_correct_voucher_still_serves(self):
        simulator, replicas, _ = build_cluster(4)
        victim, liar = 3, 0
        replicas[victim].attack_strategy = _DropInit()
        replicas[liar].attack_strategy = _LyingVoucher()
        seen = tap(replicas)
        deliveries = {}
        components = _attach_rbc(replicas, CONTEXT, 0, deliveries)
        components[0].broadcast(VALUE)
        simulator.run()
        lies = [
            message
            for message in of_kind(seen, ReliableBroadcast.VALUE)
            if message.body["value"] == "garbage"
        ]
        assert [message.recipient for message in lies] == [victim]
        # The lie came first, so it met the hash check, not a delivered instance.
        assert of_kind(seen, ReliableBroadcast.VALUE)[0] is lies[0]
        # Each voucher was asked once, the liar included.
        fetches = of_kind(seen, ReliableBroadcast.FETCH)
        assert sorted(message.recipient for message in fetches) == [0, 1]
        assert components[victim]._values == {DIGEST: VALUE}
        assert deliveries[victim][1] == VALUE

    def test_fetch_that_beats_the_value_is_answered_when_it_lands(self):
        # A replica can vouch by READY amplification before it holds the
        # value; a FETCH reaching it then must not be lost.
        simulator, replicas, _ = build_cluster(7)
        seen = tap(replicas)
        components = _attach_rbc(replicas, CONTEXT, 0, {})
        holder = components[6]
        for signer in (1, 2):
            holder.handle(holder.topic, signer, ReliableBroadcast.ECHO, _vote_body(replicas[signer], VoteKind.RBC_ECHO))
        holder.handle(holder.topic, 5, ReliableBroadcast.FETCH, {"digest": DIGEST})
        holder.handle(holder.topic, 5, ReliableBroadcast.FETCH, {"digest": DIGEST})
        simulator.run()
        assert not of_kind(seen, ReliableBroadcast.VALUE)
        holder.handle(
            holder.topic,
            0,
            ReliableBroadcast.INIT,
            {"value": VALUE, **_vote_body(replicas[0], VoteKind.RBC_INIT)},
        )
        simulator.run()
        served = of_kind(seen, ReliableBroadcast.VALUE)
        assert [(message.sender, message.recipient) for message in served] == [(6, 5)]

    def test_late_init_completes_a_delivery_that_waited_for_the_value(self):
        # READY quorum first, value last: the INIT itself must trigger delivery.
        simulator, replicas, _ = build_cluster(4)
        deliveries = {}
        components = _attach_rbc(replicas, CONTEXT, 0, deliveries)
        late = components[3]
        for signer in (0, 1, 2):
            late.handle(late.topic, signer, ReliableBroadcast.READY, _vote_body(replicas[signer], VoteKind.RBC_READY))
        assert not late.delivered
        late.handle(
            late.topic,
            0,
            ReliableBroadcast.INIT,
            {"value": VALUE, **_vote_body(replicas[0], VoteKind.RBC_INIT)},
        )
        assert late.delivered and late.delivered_value == VALUE
        assert late.delivered_digest == DIGEST
