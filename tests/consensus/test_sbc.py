"""Tests for Set Byzantine Consensus (the Polygraph-style reduction)."""

import pytest

from repro.common.types import FaultKind
from repro.consensus.sbc import SetByzantineConsensus
from repro.network.delays import UniformDelay

from tests.consensus.harness import build_cluster, decided_asmr_committee, router_tables


def _attach_sbc(replicas, instance, decisions, validator=None):
    components = []
    for replica in replicas:
        component = SetByzantineConsensus(
            host=replica,
            instance=instance,
            on_decide=lambda decision, rid=replica.replica_id: decisions.setdefault(
                rid, decision
            ),
            proposal_validator=validator,
        )
        component.attach(replica.router)
        components.append(component)
    return components


def _run_sbc(n, proposals, delay=None, seed=0, faults=None, validator=None):
    simulator, replicas, _ = build_cluster(n, delay=delay, seed=seed, faults=faults)
    decisions = {}
    components = _attach_sbc(replicas, 0, decisions, validator=validator)
    for replica_id, payload in proposals.items():
        components[replica_id].propose(payload)
    simulator.run()
    return decisions, components, replicas


class TestSBCBasics:
    def test_all_honest_agree_on_same_set(self):
        proposals = {i: {"txs": [f"tx-{i}"]} for i in range(4)}
        decisions, _, _ = _run_sbc(4, proposals)
        assert len(decisions) == 4
        digests = {d.digest for d in decisions.values()}
        assert len(digests) == 1

    def test_decided_set_is_union_subset(self):
        proposals = {i: [f"tx-{i}"] for i in range(4)}
        decisions, _, _ = _run_sbc(4, proposals)
        decision = decisions[0]
        for slot in decision.included_slots():
            assert decision.proposals[slot] == proposals[slot]

    def test_nontriviality_all_proposals_included_when_synchronous(self):
        # With constant small delays and all-honest replicas every proposal is
        # delivered before the zero phase, so all of them are included.
        proposals = {i: [f"tx-{i}"] for i in range(4)}
        decisions, _, _ = _run_sbc(4, proposals)
        assert set(decisions[0].included_slots()) == {0, 1, 2, 3}

    def test_agreement_under_random_delays(self):
        proposals = {i: [f"tx-{i}"] for i in range(7)}
        decisions, _, _ = _run_sbc(
            7, proposals, delay=UniformDelay.from_mean(0.08), seed=5
        )
        assert len(decisions) == 7
        assert len({d.digest for d in decisions.values()}) == 1
        # At least n - f proposals make it in.
        assert len(decisions[0].included_slots()) >= 5

    def test_decision_metadata(self):
        proposals = {i: [f"tx-{i}"] for i in range(4)}
        decisions, _, _ = _run_sbc(4, proposals)
        decision = decisions[2]
        assert decision.instance == 0
        assert decision.decided_at > 0
        assert len(decision.justification_votes) > 0
        record = decision.to_record(epoch=3)
        assert record["digest"] == decision.digest
        assert (record["instance"], record["epoch"]) == (0, 3)
        assert record["bitmask"] == decision.bitmask
        assert record["proposal_digests"] == decision.proposal_digests
        assert sorted(record["binary_certificates"]) == sorted(decision.bitmask)
        assert sorted(record["rbc_certificates"]) == decision.included_slots()
        assert "proposals" not in record
        assert decision.to_record(3, proposals=True)["proposals"] == decision.proposals


class TestSBCFaultTolerance:
    def test_tolerates_benign_minority(self):
        n = 7
        # Benign replicas are mute from the start: they never propose.
        proposals = {i: [f"tx-{i}"] for i in range(5)}
        faults = {5: FaultKind.BENIGN, 6: FaultKind.BENIGN}
        decisions, _, _ = _run_sbc(n, proposals, faults=faults)
        honest_decisions = {rid: d for rid, d in decisions.items() if rid < 5}
        assert len(honest_decisions) == 5
        assert len({d.digest for d in honest_decisions.values()}) == 1
        # Proposals from mute replicas are excluded, honest ones included.
        included = set(honest_decisions[0].included_slots())
        assert included >= {0, 1, 2, 3}
        assert 5 not in included and 6 not in included

    def test_silent_proposer_slot_decided_zero(self):
        n = 4
        proposals = {i: [f"tx-{i}"] for i in range(3)}  # replica 3 never proposes
        decisions, _, _ = _run_sbc(n, proposals)
        assert len(decisions) == 4
        assert 3 not in decisions[0].included_slots()

    def test_proposal_validator_filters_invalid(self):
        n = 4
        proposals = {i: {"valid": i != 1, "txs": [i]} for i in range(4)}
        decisions, _, _ = _run_sbc(
            n, proposals, validator=lambda slot, value: value.get("valid", False)
        )
        assert len(decisions) == 4
        assert 1 not in decisions[0].included_slots()

    def test_divergent_validator_does_not_stall_decision(self):
        """Stateful validators (branch-relative execution checks) can disagree
        across replicas.  A replica whose validator rejected a delivery must
        not stall forever when the committee decides 1 for that slot: it
        adopts the retained content and completes the instance (the commit
        path screens the transactions afterwards)."""
        n = 4
        proposals = {i: [f"tx-{i}"] for i in range(n)}
        simulator, replicas, _ = build_cluster(n, seed=3)
        decisions = {}
        components = []
        for replica in replicas:
            rid = replica.replica_id
            # Only replica 0 rejects slot 1's proposal; the quorum accepts it.
            validator = (lambda slot, value: slot != 1) if rid == 0 else None
            component = SetByzantineConsensus(
                host=replica,
                instance=0,
                on_decide=lambda d, rid=rid: decisions.setdefault(rid, d),
                proposal_validator=validator,
            )
            component.attach(replica.router)
            components.append(component)
        for replica_id, payload in proposals.items():
            components[replica_id].propose(payload)
        simulator.run()
        assert len(decisions) == n  # nobody stalled
        assert len({d.digest for d in decisions.values()}) == 1
        # The rejecting replica adopted the quorum's slot-1 payload and
        # flagged it so consumers re-screen it in full.
        assert 1 in decisions[0].included_slots()
        assert decisions[0].proposals[1] == proposals[1]
        assert decisions[0].unvalidated_slots == (1,)
        assert decisions[1].unvalidated_slots == ()

    def test_adoption_flag_survives_late_delivery(self):
        """An adoption can happen on a completion pass that still returns
        early (another 1-decided slot's RBC pending).  The unvalidated flag
        must survive into the pass that finally builds the decision — a
        loop-local would silently drop it and let the commit path skip
        signature re-verification for a rejected payload."""
        n = 4
        simulator, replicas, _ = build_cluster(n, seed=4)
        decisions = {}
        component = SetByzantineConsensus(
            host=replicas[0],
            instance=0,
            on_decide=lambda d: decisions.setdefault(0, d),
            proposal_validator=lambda slot, value: slot != 1,
        )
        component.attach(replicas[0].router)
        # Deliveries: slot 0 accepted, slot 1 rejected, slot 3 still pending.
        component._on_rbc_deliver(0, ["tx-0"], None)
        component._on_rbc_deliver(1, ["tx-1"], None)
        component._bits = {0: 1, 1: 1, 2: 0, 3: 1}
        component._maybe_complete()  # adopts slot 1, then waits on slot 3
        assert not component.decided
        component._on_rbc_deliver(3, ["tx-3"], None)
        assert component.decided
        assert decisions[0].unvalidated_slots == (1,)


class TestSBCDecisionObject:
    def test_conflicts_with(self):
        proposals = {i: [f"tx-{i}"] for i in range(4)}
        decisions_a, _, _ = _run_sbc(4, proposals, seed=1)
        decisions_b, _, _ = _run_sbc(
            4, {i: [f"other-{i}"] for i in range(4)}, seed=2
        )
        assert not decisions_a[0].conflicts_with(decisions_a[1])
        assert decisions_a[0].conflicts_with(decisions_b[0])

    def test_binary_certificates_cover_all_slots(self):
        proposals = {i: [f"tx-{i}"] for i in range(4)}
        decisions, _, replicas = _run_sbc(4, proposals)
        decision = decisions[0]
        assert set(decision.binary_certificates) == {0, 1, 2, 3}
        for certificate in decision.binary_certificates.values():
            certificate.verify(replicas[0], committee=range(4))


class TestRouteLifecycle:
    def _component(self, replica):
        return SetByzantineConsensus(host=replica, instance=0, on_decide=lambda d: None)

    def test_attach_then_detach_leaves_the_router_as_found(self):
        _, replicas, _ = build_cluster(4)
        router = replicas[0].router
        router.register(("sbc",), lambda *message: None)
        router.register(("asmr", "confirm", 0), lambda *message: None)
        before = router_tables(router)
        component = self._component(replicas[0])
        assert router_tables(router) == before  # building an instance registers nothing
        component.attach(router)
        routed = {
            segments: handler
            for length, table in router_tables(router).items()
            for segments, handler in table.items()
            if segments not in before.get(length, {})
        }
        assert routed == {route.segments: handler for route, handler in component.routes()}
        assert len(routed) == 2 * 4 + 1
        component.detach()
        assert router_tables(router) == before
        component.detach()  # nothing left to remove, nothing else touched
        assert router_tables(router) == before

    def test_a_dropped_slot_is_unregistered_with_its_components(self):
        _, replicas, _ = build_cluster(4)
        router = replicas[0].router
        before = router_tables(router)
        component = self._component(replicas[0])
        component.attach(router)
        gone = [component._rbc[3].topic, component._binary[3].topic]
        component.drop_slots([3])
        assert [router.resolve(route) for route in gone] == [component.handle] * 2
        assert {s: h for table in router_tables(router).values() for s, h in table.items()} == {
            route.segments: handler for route, handler in component.routes()
        }
        component.detach()
        assert router_tables(router) == before

    def test_a_decided_asmr_instance_detaches_to_the_replicas_root_routes(self):
        _, replicas, _ = decided_asmr_committee()
        replica = replicas[0]
        assert len(router_tables(replica.router)[5]) == 2 * 4
        replica._sbc[0].detach()
        assert sorted(s for table in router_tables(replica.router).values() for s in table) == sorted(
            root.segments
            for root in (
                replica.CONFIRM_TOPIC,
                replica.POFS_TOPIC,
                replica.CATCHUP_TOPIC,
                replica.SBC_ROOT,
                replica.EXCLUSION_ROOT,
                replica.INCLUSION_ROOT,
            )
        )
