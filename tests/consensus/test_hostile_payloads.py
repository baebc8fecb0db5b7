"""Type-confused signed objects are dropped by every handler, never raised.

A peer can send a vote, certificate or proof of fraud made of perfectly legal
wire primitives in the wrong places — a ``str`` where the signature bytes go,
a list for the scheme, a field too few.  Before the parsers checked field
types the str signature travelled on to ``hmac.compare_digest`` and the list
scheme into a cache key, and the ``TypeError`` came out of ``handle`` — logged
and survived on the asyncio transport, fatal to a simulator run.

A body's vote has two entry points.  Written as the codec's registered
``vote`` object, a confused one fails ``decode_message`` with ``CodecError``:
``vote_from_payload`` runs in the decoder.  Written as a bare tuple (or any
other value) under ``"vote"``, it decodes cleanly and reaches the handler,
which drops anything that is not a ``SignedVote``.  Certificates and proofs
of fraud travel as tuples, so a confused one decodes cleanly too and
``certificate_from_payload`` / ``ProofOfFraud.from_payload`` must stop it in
the handler, with the ``TypeError`` / ``ValueError`` it treats as "drop it".

Every case goes through the real codec (``encode_message`` ->
``decode_message``) into the real handler, next to the untouched body as a
control that the handler would have acted on it.
"""

import pytest

from repro.consensus.binary import BinaryConsensus, value_digest
from repro.consensus.certificates import Certificate, VoteKind, make_vote
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import SimulatedSigner
from repro.network.codec import CodecError, decode_message, encode_message, encode_value
from repro.network.message import Message
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.rbc.bracha import ReliableBroadcast
from repro.smr.asmr import ASMRReplica
from repro.smr.log import DecisionLog
from repro.smr.membership import MembershipChange
from repro.smr.pool import CandidatePool

from tests.consensus.harness import (
    build_cluster,
    decided_asmr_committee,
    of_kind,
    start_inclusion,
    tap,
)

#: The committee after a genuine membership change excluded replica 3 and
#: included replica 4.
JOINED = [0, 1, 2, 4]


def _delivered(kind, body, sender=1, topic="t"):
    """``body`` as the far side of a socket gets it."""
    return decode_message(encode_message(Message(sender, None, topic, kind, body))).body


def _vote_frame(kind, body, written, sender=1, topic="t"):
    """The frame of ``body`` with its vote, the registered ``vote`` object,
    written with ``written`` as its payload."""
    frame = encode_message(Message(sender, None, topic, kind, body))
    genuine = b"OS4;vote" + encode_value(body["vote"].to_payload())
    assert frame.count(genuine) == 1
    return frame.replace(genuine, b"OS4;vote" + encode_value(written))


def _with(payload, index, value):
    return payload[:index] + (value,) + payload[index + 1 :]


VOTE_FIELDS = (
    "context", "round", "kind", "value_digest", "signer", "signature", "scheme", "payload_hash",
)  # fmt: skip

#: name -> vote tuple -> a payload that is not a vote.
CONFUSED_VOTES = {
    "signature is a str": lambda v: _with(v, 5, v[5].hex()),
    "signature is a list": lambda v: _with(v, 5, list(v[5])),
    "scheme is a list": lambda v: _with(v, 6, [v[6]]),
    "payload hash is bytes": lambda v: _with(v, 7, v[7].encode()),
    "context is bytes": lambda v: _with(v, 0, v[0].encode()),
    "round is a str": lambda v: _with(v, 1, str(v[1])),
    "round is a bool": lambda v: _with(v, 1, bool(v[1])),
    "kind is a list": lambda v: _with(v, 2, [v[2]]),
    "kind is unknown": lambda v: _with(v, 2, "bval"),
    "value digest is an int": lambda v: _with(v, 3, 7),
    "signer is a list": lambda v: _with(v, 4, [v[4]]),
    "signature signer is a list": lambda v: v + ([v[4]],),
    "a field short": lambda v: v[:-1],
    "two fields long": lambda v: v + (v[4], v[4]),
    "a list": list,
    "the keyed dict": lambda v: dict(zip(VOTE_FIELDS, v)),
    "nothing": lambda v: (),
}

#: What a handler is handed under ``"vote"`` when the frame carried a plain
#: value there: every confused shape, and the genuine wire tuple itself —
#: a body's vote is the ``SignedVote``, never its tuple.
BARE_VOTES = {**CONFUSED_VOTES, "the genuine tuple": tuple}

#: name -> certificate tuple -> a payload that is not a certificate.
CONFUSED_CERTIFICATES = {
    "entry signature is a str": lambda c: _with(
        c, 6, [(c[6][0][0], c[6][0][1].hex()), *c[6][1:]]
    ),
    "entry signature is a list": lambda c: _with(
        c, 6, [(c[6][0][0], list(c[6][0][1])), *c[6][1:]]
    ),
    "entry signer is a list": lambda c: _with(
        c, 6, [([c[6][0][0]], c[6][0][1]), *c[6][1:]]
    ),
    "entry is a list": lambda c: _with(c, 6, [list(c[6][0]), *c[6][1:]]),
    "entry has three fields": lambda c: _with(c, 6, [c[6][0] + (0,), *c[6][1:]]),
    "entry is a confused vote": lambda c: _with(
        c, 6, [c[:4] + (c[6][0][0], c[6][0][1].hex()) + c[4:6], *c[6][1:]]
    ),
    "entries are a tuple": lambda c: _with(c, 6, tuple(c[6])),
    "entries are a dict": lambda c: _with(c, 6, dict(c[6])),
    "scheme is a list": lambda c: _with(c, 4, [c[4]]),
    "payload hash is an int": lambda c: _with(c, 5, 7),
    "round is a str": lambda c: _with(c, 1, str(c[1])),
    "kind is unknown": lambda c: _with(c, 2, "bval"),
    "a field short": lambda c: c[:-1],
    "a list": list,
    "the keyed dict": lambda c: dict(
        zip(("context", "round", "kind", "value_digest", "scheme", "payload_hash", "votes"), c)
    ),
}

#: name -> proof tuple -> a payload that is not a proof of fraud.
CONFUSED_PROOFS = {
    "culprit is a list": lambda p: _with(p, 0, [p[0]]),
    "first vote is confused": lambda p: _with(p, 1, _with(p[1], 5, p[1][5].hex())),
    "second vote is a dict": lambda p: _with(p, 2, dict(zip(VOTE_FIELDS, p[2]))),
    "a field short": lambda p: p[:-1],
    "a list": list,
    "the keyed dict": lambda p: dict(zip(("culprit", "first", "second"), p)),
}


#: name -> a BVAL / AUX ``round`` no honest replica sends.  ``int()`` raised
#: on the first four (``ValueError``, ``TypeError`` twice, ``OverflowError``)
#: and took the others for a round.
HOSTILE_ROUNDS = {
    "a str": "x",
    "None": None,
    "a list": [1],
    "an infinite float": 1e400,
    "a bool": True,
    "negative": -1,
    "zero": 0,
}


#: name -> a genuine CATCHUP body -> one of another shape, or one whose
#: membership records prove nothing.
MALFORMED_CATCHUPS = {
    "records that are not a list": lambda b: {**b, "records": 7},
    "a record that is not a dict": lambda b: {**b, "records": [1]},
    "changes that are not a list": lambda b: {**b, "changes": {0: b["changes"][0]}},
    "a change that is not a dict": lambda b: {**b, "changes": [7]},
    "a change that proves nothing": lambda b: {**b, "changes": [{}]},
    "a next instance that is a str": lambda b: {**b, "next_instance": "x"},
    "a cursor that is a str": lambda b: {**b, "cursor": "x"},
}


def confused(table):
    return pytest.mark.parametrize("confusion", sorted(table))


class TestReliableBroadcast:
    CONTEXT = "rbc:0:0"

    def _instance(self):
        simulator, replicas, _ = build_cluster(4)
        seen = tap(replicas)
        component = ReliableBroadcast(
            host=replicas[0],
            context=self.CONTEXT,
            proposer=0,
            on_deliver=lambda *delivery: None,
        )
        return simulator, replicas, seen, component

    def _body(self, replica, kind):
        digest = hash_payload("value")
        vote = make_vote(replica, self.CONTEXT, 0, kind, digest)
        return {"digest": digest, "vote": vote}

    @confused(CONFUSED_VOTES)
    def test_a_confused_vote_frame_does_not_decode(self, confusion):
        _, replicas, _, _ = self._instance()
        body = self._body(replicas[1], VoteKind.RBC_ECHO)
        genuine = body["vote"].to_payload()
        with pytest.raises(CodecError):
            decode_message(_vote_frame("ECHO", body, CONFUSED_VOTES[confusion](genuine)))
        assert decode_message(_vote_frame("ECHO", body, genuine)).body == body

    @confused(BARE_VOTES)
    def test_handle_drops_a_confused_echo(self, confusion):
        simulator, replicas, seen, component = self._instance()
        body = self._body(replicas[1], VoteKind.RBC_ECHO)
        hostile = {**body, "vote": BARE_VOTES[confusion](body["vote"].to_payload())}
        component.handle(component.topic, 1, "ECHO", _delivered("ECHO", hostile))
        simulator.run()
        assert component.collected_votes == [] and component._echo_votes == {}
        assert component._vouchers == {} and seen == []
        component.handle(component.topic, 1, "ECHO", _delivered("ECHO", body))
        assert len(component.collected_votes) == 1 and len(component._echo_votes) == 1

    @confused(BARE_VOTES)
    def test_handle_drops_a_confused_ready_after_delivery(self, confusion):
        # Votes are still collected after delivery (they are PoF material).
        simulator, replicas, seen, component = self._instance()
        component.delivered = True
        body = self._body(replicas[2], VoteKind.RBC_READY)
        hostile = {**body, "vote": BARE_VOTES[confusion](body["vote"].to_payload())}
        component.handle(component.topic, 2, "READY", _delivered("READY", hostile))
        assert component.collected_votes == []
        component.handle(component.topic, 2, "READY", _delivered("READY", body))
        assert len(component.collected_votes) == 1


class TestBinaryConsensus:
    CONTEXT = "bin:0:0"

    def _instance(self):
        simulator, replicas, _ = build_cluster(4)
        seen = tap(replicas)
        decided = []
        component = BinaryConsensus(
            host=replicas[0],
            context=self.CONTEXT,
            on_decide=lambda context, value, certificate: decided.append(value),
        )
        return simulator, replicas, seen, component, decided

    @confused(BARE_VOTES)
    def test_handle_aux_drops_a_confused_vote(self, confusion):
        simulator, replicas, seen, component, _ = self._instance()
        vote = make_vote(replicas[1], self.CONTEXT, 1, VoteKind.AUX, value_digest(1))
        body = {"round": 1, "value": 1, "vote": vote}
        hostile = {**body, "vote": BARE_VOTES[confusion](vote.to_payload())}
        component.handle(component.topic, 1, "AUX", _delivered("AUX", hostile))
        simulator.run()
        assert component.collected_votes == [] and component._rounds == {}
        assert seen == []
        component.handle(component.topic, 1, "AUX", _delivered("AUX", body))
        assert component.collected_votes == [vote]
        assert list(component._rounds) == [1] and component._rounds[1].aux_votes == {1: vote}

    @confused(HOSTILE_ROUNDS)
    def test_handle_bval_drops_a_round_that_is_not_one(self, confusion):
        simulator, replicas, seen, component, _ = self._instance()
        body = {"round": 1, "value": 1}
        hostile = {**body, "round": HOSTILE_ROUNDS[confusion]}
        component.handle(component.topic, 1, "BVAL", _delivered("BVAL", hostile))
        simulator.run()
        assert component._rounds == {} and component._bval_rounds == [] and seen == []
        component.handle(component.topic, 1, "BVAL", _delivered("BVAL", body))
        assert list(component._rounds) == [1]
        assert component._rounds[1].bval_received == (set(), {1})

    @confused(HOSTILE_ROUNDS)
    def test_handle_aux_drops_a_round_that_is_not_one(self, confusion):
        simulator, replicas, seen, component, _ = self._instance()
        vote = make_vote(replicas[1], self.CONTEXT, 1, VoteKind.AUX, value_digest(1))
        body = {"round": 1, "value": 1, "vote": vote}
        hostile = {**body, "round": HOSTILE_ROUNDS[confusion]}
        component.handle(component.topic, 1, "AUX", _delivered("AUX", hostile))
        simulator.run()
        assert component.collected_votes == [] and component._rounds == {}
        assert seen == []
        component.handle(component.topic, 1, "AUX", _delivered("AUX", body))
        assert component.collected_votes == [vote]
        assert list(component._rounds) == [1] and component._rounds[1].aux_votes == {1: vote}

    def test_a_missing_round_is_dropped_and_other_fields_read_as_their_defaults(self):
        """A BVAL or AUX that names no round is dropped, as one for round 0
        (rounds start at 1); a missing value reads as 0, and no vote is no
        AUX."""
        simulator, replicas, seen, component, _ = self._instance()
        vote = make_vote(replicas[1], self.CONTEXT, 1, VoteKind.AUX, value_digest(0))
        component.handle(component.topic, 1, "AUX", _delivered("AUX", {"vote": vote}))
        component.handle(component.topic, 2, "BVAL", _delivered("BVAL", {"value": 1}))
        assert component.collected_votes == [] and component._rounds == {}
        component.handle(component.topic, 1, "AUX", _delivered("AUX", {"round": 1, "value": 0}))
        assert component.collected_votes == [] and component._rounds == {}
        component.handle(
            component.topic, 1, "AUX", _delivered("AUX", {"round": 1, "vote": vote})
        )
        assert component.collected_votes == [vote]
        assert component._rounds[1].aux_votes == {1: vote}
        assert component._rounds[1].aux_counts == [1, 0]
        component.handle(component.topic, 2, "BVAL", _delivered("BVAL", {"round": 1}))
        assert list(component._rounds) == [1]
        assert component._rounds[1].bval_received == ({2}, set())
        simulator.run()
        assert seen == []

    @confused(CONFUSED_CERTIFICATES)
    def test_handle_decide_drops_a_confused_certificate(self, confusion):
        simulator, replicas, seen, component, decided = self._instance()
        certificate = Certificate.from_votes(
            make_vote(replica, self.CONTEXT, 0, VoteKind.AUX, value_digest(0))
            for replica in replicas[1:]
        )
        body = {"value": 0, "certificate": certificate.to_payload()}
        hostile = {
            **body, "certificate": CONFUSED_CERTIFICATES[confusion](body["certificate"])
        }
        component.handle(component.topic, 1, "DECIDE", _delivered("DECIDE", hostile))
        simulator.run()
        assert not component.decided and decided == []
        assert component.collected_votes == [] and seen == []
        component.handle(component.topic, 1, "DECIDE", _delivered("DECIDE", body))
        assert component.decided and decided == [0]


def _equivocation(replica):
    first, second = (
        make_vote(replica, "sbc:0:0:bin:0", 0, VoteKind.AUX, value_digest(value))
        for value in (0, 1)
    )
    return ProofOfFraud(culprit=replica.replica_id, first=first, second=second)


class TestAccountability:
    def _conflicting_confirm(self, replicas, seen):
        """Replica 3's CONFIRM, rewritten to a different decision whose slot-0
        certificate has replicas 1-3 sign the *other* binary value: taken at
        face value it convicts all three at replica 0."""
        body = dict(of_kind(seen, "CONFIRM")[0].body)
        local = replicas[0].instances[0].decision.binary_certificates[0]
        other = value_digest(1 - (local.value_digest == value_digest(1)))
        certificate = Certificate.from_votes(
            make_vote(replica, local.context, local.round, VoteKind.AUX, other)
            for replica in replicas[1:]
        )
        body["digest"] = "a decision nobody else made"
        body["binary_certificates"] = {
            **body["binary_certificates"], 0: certificate.to_payload()
        }
        return body

    @confused(CONFUSED_CERTIFICATES)
    def test_a_conflicting_confirm_with_a_confused_certificate_convicts_nobody(
        self, confusion
    ):
        simulator, replicas, seen = decided_asmr_committee()
        body = self._conflicting_confirm(replicas, seen)
        certificates = body["binary_certificates"]
        hostile = {
            **body,
            "binary_certificates": {
                **certificates, 0: CONFUSED_CERTIFICATES[confusion](certificates[0])
            },
        }
        del seen[:]
        replicas[0]._handle_confirm(3, _delivered("CONFIRM", hostile, sender=3))
        simulator.run()
        assert replicas[0].pofs == {} and not of_kind(seen, "POFS")
        assert replicas[0].detected_at is None
        replicas[0]._handle_confirm(2, _delivered("CONFIRM", body, sender=2))
        assert sorted(replicas[0].pofs) == [1, 2, 3]

    @confused(CONFUSED_PROOFS)
    def test_handle_pofs_drops_a_confused_proof(self, confusion):
        simulator, replicas, seen = decided_asmr_committee()
        proof = _equivocation(replicas[3]).to_payload()
        del seen[:]
        hostile = {"pofs": [CONFUSED_PROOFS[confusion](proof)]}
        replicas[0]._handle_pofs(1, _delivered("POFS", hostile))
        simulator.run()
        assert replicas[0].pofs == {} and seen == []
        replicas[0]._handle_pofs(1, _delivered("POFS", {"pofs": [proof]}))
        assert sorted(replicas[0].pofs) == [3]

    @confused(CONFUSED_PROOFS)
    def test_exclusion_proposal_with_a_confused_proof_is_invalid(self, confusion):
        _, replicas, _ = build_cluster(4)
        proof = _equivocation(replicas[3])
        change = MembershipChange(
            host=replicas[0],
            epoch=0,
            committee=range(4),
            pofs={3: proof},
            pool=CandidatePool(range(4, 8)),
            on_complete=lambda outcome: None,
            on_inclusion_started=lambda: None,
        )
        genuine = proof.to_payload()
        for proposal, valid in (
            ([CONFUSED_PROOFS[confusion](genuine)], False),
            ([genuine, CONFUSED_PROOFS[confusion](genuine)], False),
            ([genuine], True),
        ):
            value = _delivered("INIT", {"value": proposal})["value"]
            assert change._validate_exclusion_proposal(1, value) is valid
        assert sorted(change.pofs) == [3]

    @staticmethod
    def _included(instances=1, n=4):
        """``n`` members that decided ``instances`` instances, then ran a
        genuine membership change that excluded replica ``n - 1`` on a proof
        of fraud and included replica ``n`` — not a process yet, so the
        CATCHUPs the members sent it at the end were lost.  The culprit is
        healed: it can send again."""
        simulator, replicas, _ = decided_asmr_committee(n=n)
        for replica in replicas:
            replica.submit_instances(instances - 1)
        simulator.run()
        start_inclusion(simulator, replicas, culprit=n - 1, joiner=n)
        simulator.run()
        simulator.faults.heal(n - 1)
        for replica in replicas[:-1]:
            assert replica.committee() == [*range(n - 1), n]
        return simulator, replicas

    @staticmethod
    def _catchup(replica, instances, **fields):
        """The CATCHUP ``replica`` sends a standby its membership change
        included, after ``instances`` were decided, ``fields`` overriding."""
        records = replica.history.records
        body = {
            "records": [records[k].decision.to_record(0, proposals=True) for k in instances],
            "cursor": None,
            "changes": replica.history.changes,
            "next_instance": len(instances),
        }
        return {**body, **fields}

    @staticmethod
    def _standby(simulator, replicas, standby_id, target=1):
        """Replica ``standby_id``, a standby whose driver asked for
        ``target`` instances, as the members' did."""
        signer = SimulatedSigner(standby_id)
        replicas[0].registry.register_signer(signer)
        standby = ASMRReplica(
            replica_id=standby_id,
            committee=list(range(len(replicas))),
            signer=signer,
            registry=replicas[0].registry,
            pool=CandidatePool([standby_id, standby_id + 1]),
            standby=True,
        )
        simulator.add_process(standby)
        standby.probe = Probe(metrics=TelemetryRegistry())
        standby.submit_instances(target)
        return standby

    @staticmethod
    def _send(simulator, sender, standby_id, body):
        sender.emit_to(
            standby_id, sender.CATCHUP_TOPIC, "CATCHUP", _delivered("CATCHUP", body)
        )
        simulator.run()

    @confused(CONFUSED_CERTIFICATES)
    def test_a_record_with_a_confused_certificate_proves_nothing(self, confusion):
        """The first member's record of instance 0 carries a type-confused
        certificate: it is dropped and counted — the standby joins on the
        view the member's membership records prove — and, the record named,
        it fetches the instance from the members."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        bad = self._catchup(replicas[1], [0])
        certificates = bad["records"][0]["binary_certificates"]
        bad["records"][0]["binary_certificates"] = {
            **certificates, 0: CONFUSED_CERTIFICATES[confusion](certificates[0])
        }
        self._send(simulator, replicas[1], 4, bad)
        counters = standby.probe.metrics.snapshot()["counters"]
        assert not standby.standby and standby.history.live_from == 1
        assert counters.get("asmr.dropped_records") == 1 and counters.get("asmr.fetches") == 1
        assert standby.decided_instances() == [0]
        assert standby.instances[0].decision.digest == replicas[1].instances[0].decision.digest

    def test_a_bad_record_is_dropped_and_counted_and_the_joiner_joins_from_the_good_ones(self):
        """Two decided instances reach a standby over the wire, the second
        record with a type-confused certificate in both members' CATCHUPs:
        the first member's bad record is dropped and counted, nothing
        raises, and the standby joins on its CATCHUP, holding instance 0, in
        the committee and epoch the membership records prove, and fetches
        instance 1; the second member's CATCHUP is not read."""
        simulator, replicas = self._included(instances=2)
        confuse = CONFUSED_CERTIFICATES["entry signature is a str"]
        standby = self._standby(simulator, replicas, 4, target=2)
        for sender in replicas[1:3]:
            body = self._catchup(sender, [0, 1])
            certificates = body["records"][1]["binary_certificates"]
            body["records"][1]["binary_certificates"] = {
                **certificates, 0: confuse(certificates[0])
            }
            self._send(simulator, sender, 4, body)
            assert not standby.standby
        counters = standby.probe.metrics.snapshot()["counters"]
        assert counters.get("asmr.dropped_records") == 1
        assert counters.get("asmr.dropped_catchups") == counters.get("asmr.fetches") == 1
        assert standby.decided_instances() == [0, 1] and standby.history.next_commit == 2
        assert (standby.epoch, standby.committee(), standby.target_instances) == (1, JOINED, 2)
        assert standby.history.catchup_completed_at is not None

    def test_a_view_nobody_proves_is_dropped_and_counted(self):
        """CATCHUPs whose membership records prove no view naming the
        standby — none, a change whose exclusion leaves replica 3 out with
        no proof of fraud, one whose inclusion decision was rewritten to
        include replica 5 — are dropped and counted; the genuine one joins."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        (change,) = replicas[1].history.changes
        inclusion = change["inclusion"]
        rewritten = {**inclusion, "proposals": {slot: [5] for slot in inclusion["proposals"]}}
        for changes in (
            [],
            [{**change, "pofs": []}],
            [{**change, "inclusion": rewritten}],
        ):
            self._send(simulator, replicas[1], 4, self._catchup(replicas[1], [0], changes=changes))
        counters = standby.probe.metrics.snapshot()["counters"]
        assert counters.get("asmr.dropped_catchups") == 3
        assert standby.standby and standby.decided_instances() == []
        assert standby.history.epoch_committees == {0: (0, 1, 2, 3)}
        self._send(simulator, replicas[0], 4, self._catchup(replicas[0], [0]))
        assert not standby.standby and standby.decided_instances() == [0]
        assert standby.committee() == JOINED and standby.excluded_replicas == {3}
        assert standby.pool.available() == [5]

    @staticmethod
    def _forged(replicas, committees, excluded):
        """A coalition's CATCHUP: genuine records of instance 0, the view it
        wants as the committees and excluded replicas a CATCHUP once named,
        and as its membership records the decision of instance 0 replayed
        for both consensuses of a change, with no proof of fraud."""
        record = replicas[0].history.records[0].decision.to_record(0, proposals=True)
        return {
            "records": [record],
            "cursor": None,
            "epoch": max(committees),
            "committees": committees,
            "excluded": excluded,
            "changes": [{"exclusion": record, "inclusion": record, "pofs": []}],
            "next_instance": 1,
        }

    def test_two_deceitful_members_cannot_name_the_committee_a_standby_joins(self):
        """At n = 4 the coalition's two members are t + 1.  Both send a
        CATCHUP naming a committee of theirs and the standby, excluding the
        honest two: the standby stays a standby of the genesis committee,
        punishes no one, and still joins the view the membership records of
        a genuine change prove."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        punished = []
        standby.on_exclude = punished.extend
        forged = self._forged(replicas, {0: [0, 1, 2, 3], 1: [2, 3, 4]}, [0, 1])
        for sender in replicas[2:4]:
            self._send(simulator, sender, 4, forged)
        assert standby.standby and standby.decided_instances() == [] and punished == []
        assert standby.excluded_replicas == set() and standby.committee() == [0, 1, 2, 3]
        assert standby.history.epoch_committees == {0: (0, 1, 2, 3)}
        counters = standby.probe.metrics.snapshot()["counters"]
        assert counters.get("asmr.dropped_catchups") == 2
        self._send(simulator, replicas[0], 4, self._catchup(replicas[0], [0]))
        assert not standby.standby and standby.committee() == JOINED and punished == [3]

    def test_the_papers_coalition_cannot_name_a_committee_at_n_18(self):
        """At n = 18 the coalition holds d = ceil(5n/9) - 1 = 9 members.  Six
        of them (t + 1) send a forged CATCHUP excluding the nine honest
        members: nothing changes at the standby and no one is punished."""
        simulator, replicas, _ = decided_asmr_committee(n=18)
        standby = self._standby(simulator, replicas, 18)
        punished = []
        standby.on_exclude = punished.extend
        coalition = list(range(9))
        forged = self._forged(
            replicas, {0: list(range(18)), 1: [*coalition, *range(18, 27)]}, list(range(9, 18))
        )
        for sender in replicas[:6]:
            self._send(simulator, sender, 18, forged)
        assert standby.standby and standby.decided_instances() == [] and punished == []
        assert standby.excluded_replicas == set() and standby.committee() == list(range(18))
        assert standby.history.epoch_committees == {0: tuple(range(18))}
        counters = standby.probe.metrics.snapshot()["counters"]
        assert counters.get("asmr.dropped_catchups") == 6

    @pytest.mark.parametrize(
        "counter",
        [
            {"next_instance": 10**12},
            {"next_instance": 10**12, "cursor": 1},
            {"target_instances": 10**12},
            {"target_instances": 0},
        ],
        ids=["far next instance", "far next instance and a cursor", "far target", "no target"],
    )
    def test_a_hostile_counter_neither_hangs_the_joiner_nor_loses_its_history(self, counter):
        """A CATCHUP that proves its view and its record but names a next
        instance no member ran — with the rest of the history, or with a
        cursor its source never serves — or a target (a field no CATCHUP
        has): the joiner holds instance 0, runs from instance 1 with its
        driver's target and fetches nothing, and it completes the next
        membership change as a member."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        self._send(simulator, replicas[1], 4, self._catchup(replicas[1], [0], **counter))
        history = standby.history
        assert not standby.standby and standby.decided_instances() == [0]
        assert (history.next_commit, history.live_from, standby.next_instance) == (1, 1, 1)
        assert standby.target_instances == 1
        assert "asmr.fetches" not in standby.probe.metrics.snapshot()["counters"]
        start_inclusion(simulator, [*replicas[:3], standby], culprit=2, joiner=5)
        simulator.run()
        for member in (replicas[0], replicas[1], standby):
            assert member.membership_change is None
            assert (member.epoch, member.committee()) == (2, [0, 1, 4, 5])

    def test_only_a_genesis_member_s_first_catchup_is_proven(self, monkeypatch):
        """A CATCHUP from a replica outside the committee, to a member that
        runs no membership change or to a standby, and a standby's second
        CATCHUP from one member are dropped and counted with no record
        proven; another member's first one still joins."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        outsider = self._standby(simulator, replicas, 5)
        replicas[0].probe = Probe(metrics=TelemetryRegistry())
        proven = []
        prove = DecisionLog._prove
        monkeypatch.setattr(
            DecisionLog, "_prove", lambda log, *args: proven.append(log) or prove(log, *args)
        )
        good = self._catchup(replicas[1], [0])
        for recipient in (0, 4):
            self._send(simulator, outsider, recipient, good)
        assert proven == []
        (change,) = good["changes"]
        inclusion = change["inclusion"]
        rewritten = {**inclusion, "proposals": {slot: [5] for slot in inclusion["proposals"]}}
        forged = {**good, "changes": [{**change, "inclusion": rewritten}]}
        self._send(simulator, replicas[1], 4, forged)
        # Its exclusion record proves, its inclusion record does not.
        assert proven == [standby.history] * 2
        self._send(simulator, replicas[1], 4, good)
        assert proven == [standby.history] * 2 and standby.standby
        dropped = [
            replica.probe.metrics.snapshot()["counters"]["asmr.dropped_catchups"]
            for replica in (replicas[0], standby)
        ]
        assert dropped == [1, 3]
        self._send(simulator, replicas[2], 4, self._catchup(replicas[2], [0]))
        assert not standby.standby and standby.decided_instances() == [0]

    @confused(MALFORMED_CATCHUPS)
    def test_a_malformed_catchup_is_dropped_before_the_standby_changes(self, confusion):
        """A CATCHUP of any other shape, or whose membership records prove
        nothing, is dropped and counted before anything changes, and another
        member's good one still joins."""
        simulator, replicas = self._included()
        standby = self._standby(simulator, replicas, 4)
        good = self._catchup(replicas[1], [0])

        def state():
            history = standby.history
            return (
                standby.standby, standby.epoch, standby.committee(), standby.target_instances,
                standby.next_instance, history.next_commit, history.catchup_completed_at,
            )  # fmt: skip

        before = state()
        self._send(simulator, replicas[1], 4, MALFORMED_CATCHUPS[confusion](good))
        assert state() == before
        self._send(simulator, replicas[2], 4, self._catchup(replicas[2], [0]))
        counters = standby.probe.metrics.snapshot()["counters"]
        assert counters.get("asmr.dropped_catchups") == 1
        assert state()[:6] == (False, 1, JOINED, 1, 1, 1)


#: name -> a genuine fetched record -> one that proves nothing.
HOSTILE_RECORDS = {
    "a certificate that does not verify": lambda r: {
        **r,
        "binary_certificates": {
            **r["binary_certificates"],
            0: _with(
                r["binary_certificates"][0],
                6,
                [(signer, signature[::-1]) for signer, signature in r["binary_certificates"][0][6]],
            ),
        },
    },
    "a proposal that does not hash to its digest": lambda r: {
        **r, "proposals": {**r["proposals"], 0: {"instance": 0, "from": "someone else"}}
    },
    "a digest that is not the bitmask's and digests'": lambda r: {
        **r, "digest": hash_payload("a decision nobody made")
    },
    "a slot missing from the bitmask": lambda r: {
        **r, "bitmask": {slot: bit for slot, bit in r["bitmask"].items() if slot != 0}
    },
    "a proposal missing": lambda r: {
        **r, "proposals": {slot: p for slot, p in r["proposals"].items() if slot != 0}
    },
    "an epoch nobody ran": lambda r: {**r, "epoch": 7},
}


class TestFetchedRecords:
    """A replica that missed instance 0 fetches its decision record from
    t + 1 = 2 members (0 and 1).  A record that proves nothing is dropped,
    counted, and leaves the gap open; the genuine one from the other asked
    member then fills it."""

    @staticmethod
    def _gap():
        simulator, replicas, seen = decided_asmr_committee(cut_off=(3,))
        gap = replicas[3]
        gap.probe = Probe(metrics=TelemetryRegistry())
        assert gap.instances[0].decision is None
        gap._fetch(0)
        genuine = replicas[1].instances[0].decision.to_record(0, proposals=True)
        return simulator, replicas, seen, gap, genuine

    @staticmethod
    def _dropped(replica, name):
        return replica.probe.metrics.snapshot()["counters"].get(name, 0)

    def _filled_by(self, gap, genuine, sender):
        gap._handle_proposals(sender, _delivered("PROPOSALS", genuine, sender=sender))
        assert gap.instances[0].decision.digest == genuine["digest"]
        assert gap.decided_instances() == [0] and gap.history.next_commit == 1

    @confused(HOSTILE_RECORDS)
    def test_a_record_that_proves_nothing_is_dropped(self, confusion):
        simulator, replicas, seen, gap, genuine = self._gap()
        hostile = HOSTILE_RECORDS[confusion](genuine)
        gap._handle_proposals(1, _delivered("PROPOSALS", hostile))
        assert gap.instances[0].decision is None and gap.history.next_commit == 0
        assert self._dropped(gap, "asmr.dropped_records") == 1
        # Replica 1 had its one answer; what it sends next is not read.
        gap._handle_proposals(1, _delivered("PROPOSALS", genuine))
        assert gap.instances[0].decision is None
        assert self._dropped(gap, "asmr.dropped_records") == 2
        self._filled_by(gap, genuine, 0)

    @pytest.mark.parametrize("sender, instance", [(2, 0), (1, 1)], ids=["member", "instance"])
    def test_a_record_not_asked_for_is_dropped(self, sender, instance):
        simulator, replicas, seen, gap, genuine = self._gap()
        unasked = {**genuine, "instance": instance}
        gap._handle_proposals(sender, _delivered("PROPOSALS", unasked, sender=sender))
        assert gap.instances[0].decision is None and 1 not in gap.instances
        assert self._dropped(gap, "asmr.dropped_records") == 1
        self._filled_by(gap, genuine, 1)

    def test_the_fetch_goes_to_t_plus_one_members_and_fills_the_gap(self):
        simulator, replicas, seen, gap, genuine = self._gap()
        del seen[:]
        simulator.run()
        pulls = of_kind(seen, "PULL")
        assert [(m.sender, m.recipient, m.body) for m in pulls] == [
            (3, 0, {"instance": 0}), (3, 1, {"instance": 0})
        ]
        answers = of_kind(seen, "PROPOSALS")
        assert [(m.sender, m.recipient) for m in answers] == [(0, 3), (1, 3)]
        assert gap.instances[0].decision.digest == genuine["digest"]
        assert gap.decided_instances() == [0] and gap.history.next_commit == 1
        # The adopted decision is confirmed like a local one.
        assert of_kind(seen, "CONFIRM")[0].sender == 3
        assert self._dropped(gap, "asmr.dropped_records") == 0

    def test_a_confirm_decided_in_an_older_epoch_fetches_the_record(self):
        """Replica 3 restarted instance 0 in epoch 1 (as a membership change
        does with an aborted instance): a CONFIRM of epoch 0 for it is a
        decision nobody runs again.  One of its own epoch is only parked."""
        simulator, replicas, seen = decided_asmr_committee(cut_off=(3,))
        gap = replicas[3]
        confirm = replicas[1].instances[0].decision.to_record(0)
        del seen[:]
        gap._handle_confirm(1, _delivered("CONFIRM", confirm, sender=1))
        assert gap.history._fetches == {} and len(gap._early.parked[0]) == 1
        gap.epoch = gap.instances[0].epoch = 1
        gap._handle_confirm(2, _delivered("CONFIRM", confirm, sender=2))
        simulator.run()
        # The confirmers first, then the committee: t + 1 = 2 of them.
        pulls = of_kind(seen, "PULL")
        assert [(m.recipient, m.body) for m in pulls] == [(1, {"instance": 0}), (2, {"instance": 0})]
        record = gap.instances[0]
        assert record.decision.digest == confirm["digest"] and record.epoch == 0
        assert gap.history.next_commit == 1 and record.matching_confirmations == {1, 2, 3}

    def test_a_fetch_from_a_non_member_is_not_served(self):
        simulator, replicas, seen, gap, genuine = self._gap()
        server = replicas[0]
        server.probe = Probe(metrics=TelemetryRegistry())
        del seen[:]
        server._handle_pull(99, _delivered("PULL", {"instance": 0}, sender=99))
        simulator.run()
        assert [m for m in seen if m.recipient == 99] == []
        assert self._dropped(server, "asmr.dropped_fetches") == 1

    def test_a_fetch_repeated_by_one_requester_is_served_once(self):
        simulator, replicas, seen, gap, genuine = self._gap()
        server = replicas[2]
        server.probe = Probe(metrics=TelemetryRegistry())
        del seen[:]
        for _ in range(3):
            server._handle_pull(3, _delivered("PULL", {"instance": 0}, sender=3))
        simulator.run()
        served = [m for m in of_kind(seen, "PROPOSALS") if m.sender == 2]
        assert len(served) == 1 and served[0].body["digest"] == genuine["digest"]
        assert self._dropped(server, "asmr.dropped_fetches") == 2

    @pytest.mark.parametrize(
        "sender, epoch", [(99, 0), (1, -1), (1, 7)], ids=["non-member", "negative", "unknown"]
    )
    def test_a_stale_confirm_that_proves_no_epoch_fetches_nothing(self, sender, epoch):
        """Only a member of an epoch this replica knows can make it fetch,
        or be asked by a fetch; the gap it holds is then filled by the first
        real fetch."""
        simulator, replicas, seen = decided_asmr_committee(cut_off=(3,))
        gap = replicas[3]
        gap.epoch = gap.instances[0].epoch = 1
        confirm = {**replicas[1].instances[0].decision.to_record(0), "epoch": epoch}
        del seen[:]
        gap._handle_confirm(sender, _delivered("CONFIRM", confirm, sender=sender))
        simulator.run()
        assert gap.history._fetches == {} and of_kind(seen, "PULL") == []
        gap._fetch(0)
        simulator.run()
        assert {m.recipient for m in of_kind(seen, "PULL")} == {0, 1}
        assert gap.decided_instances() == [0] and gap.history.next_commit == 1

    def test_a_fetch_waits_for_a_member_that_has_not_decided(self):
        """Replica 6 asks 5, 0 and 1; 0 and 1 are down and 5 has not decided
        instance 0.  5 answers once it decides (here: by a fetch of its own,
        from 2), and 6 fills its gap from that answer."""
        simulator, replicas, seen = decided_asmr_committee(n=7, cut_off=(5, 6))
        server, gap = replicas[5], replicas[6]
        server.probe = Probe(metrics=TelemetryRegistry())
        confirm = replicas[2].instances[0].decision.to_record(0)
        gap.epoch = gap.instances[0].epoch = 1
        simulator.faults.cut(0)
        simulator.faults.cut(1)
        del seen[:]
        gap._handle_confirm(5, _delivered("CONFIRM", confirm, sender=5))
        simulator.run()
        assert [m.recipient for m in of_kind(seen, "PULL")] == [5]
        assert of_kind(seen, "PROPOSALS") == [] and gap.instances[0].decision is None
        assert self._dropped(server, "asmr.dropped_fetches") == 0
        server._fetch(0)
        simulator.run()
        answers = [(m.sender, m.recipient) for m in of_kind(seen, "PROPOSALS")]
        assert answers == [(2, 5), (5, 6)]
        assert server.decided_instances() == gap.decided_instances() == [0]
        assert gap.instances[0].decision.digest == confirm["digest"]
