"""Shared test harness: small clusters of component-hosting replicas."""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.config import ProtocolConfig, SimulationConfig
from repro.common.types import FaultKind
from repro.consensus.certificates import VoteKind, make_vote
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.network.delays import ConstantDelay, DelayModel
from repro.network.simulator import NetworkSimulator
from repro.smr.asmr import ASMRReplica
from repro.smr.pool import CandidatePool
from repro.smr.replica import BaseReplica


def attach_component(replica: BaseReplica, component) -> None:
    """Register a topic-owning component (``.topic`` + ``handle(topic, ...)``)
    — a reliable broadcast, a binary consensus — on the replica's router.  (A
    Set Byzantine Consensus instance attaches its own routes.)"""
    replica.router.register(component.topic, component.handle)


def router_tables(router) -> Dict[int, Dict[tuple, Any]]:
    """A copy of the router's tables: prefix length -> segments -> handler."""
    return {length: dict(table) for length, table in router._tables}


def tap(replicas) -> List[Any]:
    """Record every message delivered to any of ``replicas``, in delivery
    order (before the replica's own fault/attack filtering sees it)."""
    seen: List[Any] = []
    for replica in replicas:

        def tapped(message, deliver=replica.on_message):
            seen.append(message)
            deliver(message)

        replica.on_message = tapped
    return seen


def of_kind(seen: Sequence[Any], kind: str) -> List[Any]:
    """The recorded messages of one kind."""
    return [message for message in seen if message.kind == kind]


def build_cluster(
    n: int,
    delay: Optional[DelayModel] = None,
    seed: int = 0,
    faults: Optional[Dict[int, FaultKind]] = None,
):
    """Create ``n`` BaseReplica processes attached to one simulator.

    Returns ``(simulator, replicas, keys)``.
    """
    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(
        delay_model=delay or ConstantDelay(0.01),
        config=SimulationConfig(seed=seed),
    )
    replicas: List[BaseReplica] = []
    committee = list(range(n))
    for replica_id in range(n):
        fault = (faults or {}).get(replica_id, FaultKind.HONEST)
        replica = BaseReplica(
            replica_id=replica_id,
            committee=committee,
            signer=keys.signer_for(replica_id),
            registry=keys.registry,
            fault=fault,
        )
        simulator.add_process(replica)
        replicas.append(replica)
    return simulator, replicas, keys


def _small_proposal(instance: int, replica_id: int) -> Dict[str, int]:
    return {"instance": instance, "from": replica_id}


def decided_asmr_committee(
    n: int = 4,
    proposal_factory: Callable[[int, int], Any] = _small_proposal,
    cut_off: Sequence[int] = (),
):
    """``n`` fault-free ASMR replicas that decided and confirmed instance 0.

    ``proposal_factory(instance, replica_id)`` makes each proposal.  The
    replicas in ``cut_off`` are cut while instance 0 runs and healed
    after: each started it and holds no decision for it.
    Returns ``(simulator, replicas, seen)`` with ``seen`` the :func:`tap` of
    everything delivered so far and from now on.
    """
    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(ConstantDelay(0.01), SimulationConfig(seed=0))
    replicas = []
    for replica_id in range(n):
        replica = ASMRReplica(
            replica_id=replica_id,
            committee=list(range(n)),
            signer=keys.signer_for(replica_id),
            registry=keys.registry,
            pool=CandidatePool([]),
            config=ProtocolConfig(batch_size=10),
            proposal_factory=lambda k, rid=replica_id: proposal_factory(k, rid),
        )
        simulator.add_process(replica)
        replicas.append(replica)
    seen = tap(replicas)
    for replica_id in cut_off:
        simulator.faults.cut(replica_id)
    for replica in replicas:
        replica.submit_instances(1)
    simulator.run()
    for replica_id in cut_off:
        simulator.faults.heal(replica_id)
    return simulator, replicas, seen


def proof_of_fraud(replica: BaseReplica) -> ProofOfFraud:
    """A valid proof of fraud: ``replica`` signed two values for one step."""
    first, second = (
        make_vote(replica, "sbc:0:0:bin:0", 0, VoteKind.AUX, hash_payload(value))
        for value in ("one", "other")
    )
    return ProofOfFraud(culprit=replica.replica_id, first=first, second=second)


def start_inclusion(simulator, replicas, culprit: int, joiner: int, live: int = 0) -> None:
    """Start a genuine membership change on every replica of ``replicas``
    but ``culprit``, cut off: it excludes ``culprit`` on a proof of fraud
    and includes ``joiner``, the pool's one candidate; ``live`` more
    instances wait for it.  Runs nothing: a completing member sends
    ``joiner`` its CATCHUP, dropped unless ``joiner`` is a process by then."""
    simulator.faults.cut(culprit)
    pof = proof_of_fraud(replicas[culprit])
    for replica in replicas:
        if replica.replica_id != culprit:
            replica.pool = CandidatePool([joiner])
            replica.config = dataclasses.replace(replica.config, pof_threshold=1)
            replica.pofs[culprit] = pof
            replica._maybe_start_membership_change()
            replica.submit_instances(live)
