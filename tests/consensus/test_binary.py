"""Tests for the accountable binary Byzantine consensus."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.types import FaultKind
from repro.consensus.binary import BinaryConsensus, value_digest
from repro.consensus.certificates import (
    Certificate,
    VoteKind,
    collect_vote,
    make_vote,
    verify_vote,
    vote_from_payload,
)
from repro.consensus.proofs import extract_pofs_from_votes
from repro.network.delays import UniformDelay

from tests.consensus.harness import attach_component, build_cluster


def _attach_binary(replicas, context, decisions):
    components = []
    for replica in replicas:
        component = BinaryConsensus(
            host=replica,
            context=context,
            on_decide=lambda ctx, value, cert, rid=replica.replica_id: decisions.setdefault(
                rid, (value, cert)
            ),
        )
        attach_component(replica, component)
        components.append(component)
    return components


def _run_binary(n, inputs, delay=None, seed=0, faults=None):
    simulator, replicas, _ = build_cluster(n, delay=delay, seed=seed, faults=faults)
    decisions = {}
    components = _attach_binary(replicas, "bin:0:0", decisions)
    for replica_id, value in inputs.items():
        components[replica_id].propose(value)
    simulator.run()
    return decisions, components, replicas


class TestBinaryConsensusAgreement:
    def test_unanimous_zero_decides_zero(self):
        decisions, _, _ = _run_binary(4, {i: 0 for i in range(4)})
        assert {v for v, _ in decisions.values()} == {0}
        assert len(decisions) == 4

    def test_unanimous_one_decides_one(self):
        decisions, _, _ = _run_binary(4, {i: 1 for i in range(4)})
        assert {v for v, _ in decisions.values()} == {1}
        assert len(decisions) == 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_inputs_agree(self, seed):
        inputs = {0: 0, 1: 1, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
        decisions, _, _ = _run_binary(
            7, inputs, delay=UniformDelay.from_mean(0.05), seed=seed
        )
        assert len(decisions) == 7
        assert len({v for v, _ in decisions.values()}) == 1

    def test_validity_unanimous_input_is_decided(self):
        # With all-honest unanimous inputs the decided value is that input.
        for value in (0, 1):
            decisions, _, _ = _run_binary(4, {i: value for i in range(4)})
            assert {v for v, _ in decisions.values()} == {value}

    def test_agreement_with_benign_minority(self):
        inputs = {0: 1, 1: 1, 2: 1, 3: 1}
        decisions, _, _ = _run_binary(4, inputs, faults={3: FaultKind.BENIGN})
        decided = {rid: v for rid, (v, _) in decisions.items() if rid != 3}
        assert len(decided) == 3
        assert set(decided.values()) == {1}

    def test_larger_committee(self):
        inputs = {i: i % 2 for i in range(10)}
        decisions, _, _ = _run_binary(10, inputs, delay=UniformDelay.from_mean(0.02))
        assert len(decisions) == 10
        assert len({v for v, _ in decisions.values()}) == 1


class TestBinaryConsensusCertificates:
    def test_decision_certificate_verifies(self):
        decisions, _, replicas = _run_binary(7, {i: 1 for i in range(7)})
        value, certificate = decisions[0]
        assert certificate.value_digest == value_digest(value)
        certificate.verify(replicas[0], committee=range(7))

    def test_decide_broadcast_lets_laggards_decide(self):
        # A replica that proposed late still decides thanks to DECIDE messages.
        simulator, replicas, _ = build_cluster(4)
        decisions = {}
        components = _attach_binary(replicas, "bin:0:0", decisions)
        for replica_id in range(3):
            components[replica_id].propose(1)
        simulator.run()
        # Replica 3 never proposed but received BVAL/AUX/DECIDE traffic.
        assert 3 in decisions
        assert decisions[3][0] == decisions[0][0]

    def test_collected_votes_include_aux(self):
        _, components, _ = _run_binary(4, {i: 1 for i in range(4)})
        assert all(
            any(v.kind.value == "aux" for v in c.collected_votes) for c in components
        )


    def test_a_replayed_aux_is_collected_once(self):
        """Resending one valid signed AUX, before the decision or after it,
        adds nothing to ``collected_votes``; the same replica signing the
        other value for the round does, and the pair is the proof of fraud."""
        _, replicas, _ = build_cluster(4)
        component = _attach_binary(replicas, "bin:0:0", {})[3]

        def aux(value):
            vote = make_vote(replicas[1], "bin:0:0", 1, VoteKind.AUX, value_digest(value))
            return vote, {"round": 1, "value": value, "vote": vote.to_payload()}

        first, body = aux(1)
        for decided in (False, True):
            component.decided = decided
            for _ in range(500):
                component.handle(component.topic, 1, BinaryConsensus.AUX, body)
        assert component.collected_votes == [first]
        second, body = aux(0)
        for _ in range(2):
            component.handle(component.topic, 1, BinaryConsensus.AUX, body)
        assert component.collected_votes == [first, second]
        (pof,) = extract_pofs_from_votes(component.collected_votes)
        assert pof.culprit == 1 and pof.verify(replicas[0])


class TestBinaryConsensusRobustness:
    def test_duplicate_propose_is_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        decisions = {}
        components = _attach_binary(replicas, "bin:0:0", decisions)
        components[0].propose(1)
        components[0].propose(0)  # second call ignored
        for replica_id in range(1, 4):
            components[replica_id].propose(1)
        simulator.run()
        assert {v for v, _ in decisions.values()} == {1}

    def test_malformed_aux_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        decisions = {}
        components = _attach_binary(replicas, "bin:0:0", decisions)
        replicas[0].broadcast("bin:0:0", BinaryConsensus.AUX, {"round": 1, "value": 1})
        for replica_id in range(4):
            components[replica_id].propose(1)
        simulator.run()
        assert {v for v, _ in decisions.values()} == {1}

    def test_forged_decide_without_certificate_ignored(self):
        simulator, replicas, _ = build_cluster(4)
        decisions = {}
        components = _attach_binary(replicas, "bin:0:0", decisions)
        replicas[0].broadcast("bin:0:0", BinaryConsensus.DECIDE, {"value": 0})
        for replica_id in range(4):
            components[replica_id].propose(1)
        simulator.run()
        assert {v for v, _ in decisions.values()} == {1}


def _digest_to_value(digest):
    return 1 if digest == value_digest(1) else 0


class _FourDictBinaryConsensus(BinaryConsensus):
    """The reference: a round's state as it was before the per-round record —
    ``_bval_sent`` / ``_bval_received`` / ``_bin_values`` / ``_aux_sent`` /
    ``_aux_votes``, each a dict by round number probed on its own — and a
    round's resolution as it was before the tally, recounting the round's
    first-AUX votes on every call.  Votes are collected as the instance under
    test collects them; everything else a message touches is overridden."""

    def __init__(self, host, context, on_decide):
        super().__init__(host, context, on_decide)
        self._bval_sent = {}
        self._bval_received = {}
        self._bin_values = {}
        self._aux_sent = {}
        self._aux_votes = {}

    def _start_round(self, round_number):
        self.round = round_number
        self._broadcast_bval(round_number, self.estimate)
        if self._bin_values.get(round_number):
            self._broadcast_aux(round_number)
            self._try_resolve_round(round_number)

    def _broadcast_bval(self, round_number, value):
        sent = self._bval_sent.setdefault(round_number, set())
        if value in sent:
            return
        sent.add(value)
        self.host.emit(self.topic, self.BVAL, {"round": round_number, "value": value})

    def _broadcast_aux(self, round_number):
        if self._aux_sent.get(round_number):
            return
        bin_values = self._bin_values.get(round_number, set())
        if not bin_values:
            return
        self._aux_sent[round_number] = True
        chosen = self.estimate if self.estimate in bin_values else sorted(bin_values)[0]
        vote = make_vote(self.host, self.context, round_number, VoteKind.AUX, value_digest(chosen))
        collect_vote(self._collected, vote)
        self.host.emit(
            self.topic,
            self.AUX,
            {"round": round_number, "value": chosen, "vote": vote.to_payload()},
        )

    def _handle_bval(self, sender, body):
        if self.decided:
            return
        round_number = body.get("round")
        if type(round_number) is not int or round_number < 1:
            return
        value = 1 if body.get("value") else 0
        per_round = self._bval_received.setdefault(round_number, {0: set(), 1: set()})
        per_round[value].add(sender)
        support = len(per_round[value])
        if support >= self.host.support:
            self._broadcast_bval(round_number, value)
        if support >= self.host.quorum:
            self._bin_values.setdefault(round_number, set()).add(value)
            if round_number == self.round and self.started:
                self._broadcast_aux(round_number)
                self._try_resolve_round(round_number)

    def recheck(self):
        if self.decided:
            return
        for round_number, per_round in list(self._bval_received.items()):
            for value, senders in per_round.items():
                if len(senders) >= self.host.support:
                    self._broadcast_bval(round_number, value)
                if len(senders) >= self.host.quorum:
                    self._bin_values.setdefault(round_number, set()).add(value)
        if self.started:
            self._try_resolve_round(self.round)

    def _handle_aux(self, sender, body):
        round_number = body.get("round")
        if type(round_number) is not int or round_number < 1:
            return
        value = 1 if body.get("value") else 0
        payload = body.get("vote")
        if payload is None:
            return
        try:
            vote = vote_from_payload(payload)
        except (KeyError, ValueError, TypeError):
            return
        if (
            vote.signer != sender
            or vote.context != self.context
            or vote.round != round_number
            or vote.kind != VoteKind.AUX
            or vote.value_digest != value_digest(value)
        ):
            return
        if not verify_vote(vote, self.host):
            return
        collect_vote(self._collected, vote)
        if self.decided:
            return
        self._aux_votes.setdefault(round_number, {}).setdefault(sender, vote)
        if self.started:
            self._try_resolve_round(self.round)

    def _try_resolve_round(self, round_number):
        if self.decided or round_number != self.round:
            return
        bin_values = self._bin_values.get(round_number, set())
        if not bin_values:
            return
        if not self._aux_sent.get(round_number):
            self._broadcast_aux(round_number)
        votes = self._aux_votes.get(round_number, {})
        supporting = {
            sender: vote
            for sender, vote in votes.items()
            if _digest_to_value(vote.value_digest) in bin_values
        }
        if len(supporting) < self.host.quorum:
            return
        values = {_digest_to_value(vote.value_digest) for vote in supporting.values()}
        fallback = round_number % 2
        if len(values) == 1:
            value = values.pop()
            if value == fallback:
                certificate = Certificate.from_votes(
                    vote
                    for vote in supporting.values()
                    if _digest_to_value(vote.value_digest) == value
                )
                self._decide(value, certificate, rebroadcast=True)
                return
            self.estimate = value
        else:
            self.estimate = fallback
        self._start_round(round_number + 1)


_BITS = st.integers(0, 1)


@st.composite
def _aux_schedules(draw):
    """A committee size and a shuffled schedule for replica 0's instance:
    ``propose``, and for every round 1-4 and sender the BVALs it backs and its
    AUX — sometimes sent twice, sometimes followed by the other value — plus
    up to two members leaving the committee.  Shuffling is what delivers BVAL
    and AUX out of round order: before ``bin_values`` fills, before
    ``propose``, for rounds not yet reached and for rounds left behind."""
    n = draw(st.sampled_from([4, 7]))
    ops = [("propose", draw(_BITS))]
    for round_number in range(1, 5):
        for sender in range(n):
            for value in sorted(draw(st.sets(_BITS, min_size=1))):
                ops.append(("bval", sender, round_number, value))
            value = draw(_BITS)
            ops.append(("aux", sender, round_number, value))
            again = draw(st.sampled_from(["no", "no", "duplicate", "conflict"]))
            if again != "no":
                other = value if again == "duplicate" else 1 - value
                ops.append(("aux", sender, round_number, other))
    leavers = st.lists(st.integers(1, n - 1), unique=True, max_size=(n - 1) // 3)
    ops.extend(("shrink", member) for member in draw(leavers))
    return n, draw(st.permutations(ops))


class TestAuxTallyMatchesRescan:
    """One record per round, with its ``[count_0, count_1]`` kept by
    ``_handle_aux``, runs an instance exactly as the four per-round dicts and
    a rescan of every first AUX did: same decision, round, estimate,
    certificate (votes and their order), collected votes and broadcasts (in
    the same order), after every single arrival."""

    CONTEXT = "bin:0:0"

    def _instance(self, cls, n):
        simulator, replicas, _ = build_cluster(n)
        decided = []
        component = cls(
            host=replicas[0],
            context=self.CONTEXT,
            on_decide=lambda context, value, certificate: decided.append(value),
        )
        return simulator, replicas, component, decided

    @staticmethod
    def _round_states(component):
        """Per-round state in one shape, whichever way it is held."""
        if isinstance(component, _FourDictBinaryConsensus):
            numbers = set().union(
                component._bval_sent,
                component._bval_received,
                component._bin_values,
                component._aux_sent,
                component._aux_votes,
            )
            return {
                number: (
                    component._bval_sent.get(number, set()),
                    tuple(component._bval_received.get(number, {0: set(), 1: set()}).values()),
                    component._bin_values.get(number, set()),
                    component._aux_sent.get(number, False),
                    component._aux_votes.get(number, {}),
                )
                for number in numbers
            }
        for state in component._rounds.values():
            tally = [0, 0]
            for vote in state.aux_votes.values():
                tally[_digest_to_value(vote.value_digest)] += 1
            assert state.aux_counts == tally
        return {
            number: (
                state.bval_sent,
                state.bval_received,
                state.bin_values,
                state.aux_sent,
                state.aux_votes,
            )
            for number, state in component._rounds.items()
        }

    @classmethod
    def _view(cls, simulator, component, decided):
        certificate = component.decision_certificate
        # Nothing is ever run: the queue is everything the instance broadcast.
        sent = [
            (event.message.kind, event.message.body)
            for _, _, event in sorted(simulator._queue, key=lambda entry: entry[1])
        ]
        return (
            component.decided,
            component.decision,
            decided,
            component.round,
            component.estimate,
            certificate and (certificate.round, certificate.value_digest, certificate.votes),
            component.collected_votes,
            sent,
            cls._round_states(component),
        )

    def _apply(self, op, replicas, component):
        if op[0] == "propose":
            component.propose(op[1])
        elif op[0] == "shrink":
            host = replicas[0]
            host.update_committee(m for m in host.committee() if m != op[1])
            component.recheck()
        elif op[0] == "bval":
            _, sender, round_number, value = op
            component.handle(
                component.topic, sender, "BVAL", {"round": round_number, "value": value}
            )
        else:
            _, sender, round_number, value = op
            vote = make_vote(
                replicas[sender], self.CONTEXT, round_number, VoteKind.AUX, value_digest(value)
            )
            component.handle(
                component.topic,
                sender, "AUX", {"round": round_number, "value": value, "vote": vote.to_payload()}
            )

    @settings(max_examples=200, deadline=None)
    @given(_aux_schedules())
    # All ones, in order: round 0 (fallback 0) moves on with estimate 1,
    # round 1 decides 1 — the path every benign slot takes.
    @example(
        (
            4,
            [("propose", 1)]
            + [(kind, sender, round_number, 1)
               for round_number in (0, 1) for kind in ("bval", "aux") for sender in range(4)],
        )
    )
    # Round 0's AUX quorum waits for ``bin_values``; replica 1's second,
    # conflicting AUX must not count; the committee then shrinks to 3.
    @example(
        (
            4,
            [("aux", 1, 0, 0), ("aux", 1, 0, 1), ("aux", 2, 0, 0), ("aux", 1, 0, 0),
             ("aux", 2, 1, 0), ("propose", 0), ("bval", 1, 0, 0), ("bval", 2, 0, 0),
             ("shrink", 3), ("bval", 3, 0, 0), ("aux", 3, 0, 0)],
        )
    )
    def test_same_outcome_after_every_arrival(self, schedule):
        n, ops = schedule
        tallied = self._instance(BinaryConsensus, n)
        rescanned = self._instance(_FourDictBinaryConsensus, n)
        for op in ops:
            views = []
            for simulator, replicas, component, decided in (tallied, rescanned):
                self._apply(op, replicas, component)
                views.append(self._view(simulator, component, decided))
            assert views[0] == views[1], op

    def test_the_examples_reach_decisions(self):
        """The comparison above is not vacuous: an all-ones schedule decides 1
        in round 1, on the certificate of the three AUX that made the quorum."""
        simulator, replicas, component, decided = self._instance(BinaryConsensus, 4)
        for round_number in (0, 1):
            for kind in ("bval", "aux"):
                for sender in (2, 0, 3, 1):
                    self._apply((kind, sender, round_number, 1), replicas, component)
            if round_number == 0:
                assert not component.decided
                component.propose(1)
        assert decided == [1] and component.round == 1
        assert [vote.signer for vote in component.decision_certificate.votes] == [0, 2, 3]
