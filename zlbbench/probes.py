"""Standalone probes: one layer's public function on inputs the workload made.

Probe inputs are captured, not invented: :func:`capture` runs one instance of
the n=4 committee and keeps the first reliable-broadcast INIT (a 50-transfer
proposal), one binary-consensus AUX vote and one CONFIRM with its
certificates as live :class:`~repro.network.message.Message` objects, exactly
as replica 0 received them off the socket.  The codec, crypto and consensus
probes are fed those.

Every probe runs for ``seconds`` in at least five batches and reports the
median batch, so one scheduler hiccup does not decide the number.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.fixture import ClusterSpec, build_node
from repro.common.config import SimulationConfig
from repro.consensus.certificates import (
    Certificate,
    certificate_from_payload,
    make_vote,
    vote_from_payload,
)
from repro.consensus.proofs import extract_pofs_from_grouped, group_votes
from repro.crypto.hashing import canonical_bytes, hash_payload
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import EcdsaSigner, SimulatedSigner, scheme_for
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.merge import BlockchainRecord
from repro.ledger.workload import TransferWorkload, conflicting_blocks_workload
from repro.network.asyncio_transport import AsyncioTransport, Endpoint
from repro.network.codec import decode_message, encode_message
from repro.network.delays import delay_model_from_name
from repro.network.message import Message
from repro.network.router import Router
from repro.network.simulator import NetworkSimulator
from repro.network.topic import Topic
from repro.network.transport import Process

from zlbbench import cluster

MIN_BATCHES = 5


def seconds_per_call(
    operation: Callable[..., Any],
    seconds: float,
    prepare: Optional[Callable[[], Any]] = None,
) -> float:
    """Median seconds per call over at least five batches filling ``seconds``.

    With ``prepare`` every call gets a fresh argument built outside the timed
    stretch (state a call consumes, or objects whose memo must be cold); the
    batches are sized by what they take including that preparation.
    """
    clock = time.perf_counter

    def batch(calls: int) -> Tuple[float, float]:
        """``(seconds inside the operation, seconds in all)`` of ``calls`` calls."""
        started = clock()
        if prepare is None:
            for _ in range(calls):
                operation()
            spent = clock() - started
            return spent, spent
        inside = 0.0
        for _ in range(calls):
            argument = prepare()
            begin = clock()
            operation(argument)
            inside += clock() - begin
        return inside, clock() - started

    calls, target = 1, seconds / MIN_BATCHES
    inside, total = batch(calls)
    while total < target / 2 and calls < 1 << 22:
        calls = max(calls * 2, int(0.8 * calls * target / max(total, 1e-9)))
        inside, total = batch(calls)
    per_call = [inside / calls]
    deadline = clock() + seconds - total
    while len(per_call) < MIN_BATCHES or clock() < deadline:
        per_call.append(batch(calls)[0] / calls)
    return statistics.median(per_call)


def per_second(operation, seconds: float, work: float = 1.0, prepare=None) -> float:
    """Units of ``work`` per second, where one call does ``work`` of them."""
    return work / seconds_per_call(operation, seconds, prepare)


@dataclasses.dataclass
class Captured:
    """Live messages of one n=4 instance, as replica 0 received them."""

    spec: ClusterSpec
    init: Message
    vote: Message
    confirm: Message


def capture(seed: int) -> Captured:
    """Run one instance of the n=4 committee and keep three of its messages."""
    spec = dataclasses.replace(
        cluster.spec_for("cluster4-saturate", seed, 0.0, counted=True),
        transactions=cluster.COMMITTEE * cluster.BATCH_SIZE,
    )
    kept: Dict[str, Message] = {}

    async def one_instance() -> None:
        committee = await cluster.build_committee(spec)
        try:
            observer = committee.nodes[0].replica
            deliver = observer.on_message

            def tap(message: Message) -> None:
                # Remote senders only: those bodies went through the codec.
                if message.sender != observer.replica_id:
                    kept.setdefault(message.kind, message)
                deliver(message)

            observer.on_message = tap
            for node, transport in zip(committee.nodes, committee.transports):
                node.replica.submit_transactions(node.share)
                transport.start_processes()
            for node in committee.nodes:
                node.replica.submit_instances(1)
            deadline = time.perf_counter() + 30.0
            while not all(key in kept for key in ("INIT", "AUX", "CONFIRM")):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"capture saw only {sorted(kept)}")
                await asyncio.sleep(0.01)
        finally:
            await committee.close()

    asyncio.run(one_instance())
    return Captured(spec=spec, init=kept["INIT"], vote=kept["AUX"], confirm=kept["CONFIRM"])


class _VoteHost:
    """The least :func:`make_vote` needs: an identity and a signer."""

    def __init__(self, signer):
        self.replica_id = signer.replica
        self.sign = signer.sign


class _Sink(Process):
    def __init__(self, replica_id, on_message=None):
        super().__init__(replica_id)
        self._on_message = on_message

    def on_message(self, message: Message) -> None:
        if self._on_message is not None:
            self._on_message(message)


def run_probes(captured: Captured, seconds: float) -> Dict[str, float]:
    """Every probe, ``seconds`` each, by metric name."""
    metrics: Dict[str, float] = {}
    metrics.update(_crypto(captured, seconds))
    metrics.update(_codec(captured, seconds))
    metrics.update(_kernels(captured, seconds))
    metrics.update(_consensus(captured, seconds))
    metrics.update(_ledger(captured, seconds))
    metrics.update(asyncio.run(_transport(captured, seconds)))
    return metrics


def _crypto(captured: Captured, seconds: float) -> Dict[str, float]:
    proposal = captured.init.body["value"]
    vote = vote_from_payload(captured.vote.body["vote"])
    payload, digest = vote.vote_payload(), vote.payload_digest()
    metrics = {
        "crypto.hash_payload_mb_per_s": per_second(
            lambda: hash_payload(proposal), seconds, len(canonical_bytes(proposal)) / 1e6
        )
    }
    registry = KeyRegistry()
    for label, signer in (("hmac", SimulatedSigner(0)), ("ecdsa", EcdsaSigner(1))):
        registry.register_signer(signer)
        signed = signer.sign(payload)
        scheme, material = scheme_for(signed.scheme), signer.public_material()
        metrics[f"crypto.sign_per_s.{label}"] = per_second(
            lambda: signer.sign(payload), seconds
        )
        # The scheme's own check is what a first sight costs; the registry
        # answers every later sight of the same signature from its cache.
        metrics[f"crypto.verify_per_s.{label}"] = per_second(
            lambda: scheme.verify_digest(digest, signed, material), seconds
        )
        if label == "hmac":
            registry.verify_digest(digest, signed)
            metrics["crypto.verify_cached_per_s"] = per_second(
                lambda: registry.verify_digest(digest, signed), seconds
            )
    return metrics


def _codec(captured: Captured, seconds: float) -> Dict[str, float]:
    proposal, vote = captured.init, captured.vote
    proposal_bytes, vote_bytes = encode_message(proposal), encode_message(vote)
    proposal_mb = len(proposal_bytes) / 1e6
    return {
        "codec.encode_mb_per_s.proposal": per_second(
            lambda: encode_message(proposal), seconds, proposal_mb
        ),
        "codec.decode_mb_per_s.proposal": per_second(
            lambda: decode_message(proposal_bytes), seconds, proposal_mb
        ),
        "codec.encode_us.vote": 1e6 * seconds_per_call(lambda: encode_message(vote), seconds),
        "codec.decode_us.vote": 1e6
        * seconds_per_call(lambda: decode_message(vote_bytes), seconds),
    }


def _kernels(captured: Captured, seconds: float) -> Dict[str, float]:
    router = Router()
    instance_topic = Topic.of("sbc", 0, 7)
    router.register(instance_topic, lambda topic, sender, kind, body: None)
    routed = instance_topic.child("rbc", 2)
    body: Dict[str, Any] = {}

    fanout, broadcasts = 20, 200
    delays = delay_model_from_name("aws")

    def kernel() -> None:
        simulator = NetworkSimulator(
            delay_model=delays, config=SimulationConfig(seed=captured.spec.seed)
        )
        sinks = [_Sink(replica_id) for replica_id in range(fanout)]
        for sink in sinks:
            simulator.add_process(sink)
        for index in range(broadcasts):
            sinks[index % fanout].broadcast(routed, "ECHO", body)
        if simulator.run().events != fanout * broadcasts:
            raise RuntimeError("kernel probe lost events")

    return {
        "router.dispatch_per_s": per_second(
            lambda: router.dispatch(routed, 1, "ECHO", body), seconds
        ),
        "simulator.kernel_events_per_s": per_second(kernel, seconds, fanout * broadcasts),
    }


def _consensus(captured: Captured, seconds: float) -> Dict[str, float]:
    # The quorum certificate of an n=18 committee over the captured vote's
    # statement: 2n/3 + 1 = 13 signatures, the size the attack cell verifies.
    committee = list(range(18))
    keys = KeyRegistry.provision(committee)
    template = vote_from_payload(captured.vote.body["vote"])
    quorum = [
        make_vote(
            _VoteHost(keys.signer_for(member)),
            template.context,
            template.round,
            template.kind,
            template.value_digest,
        )
        for member in committee[:13]
    ]
    payload = Certificate.from_votes(quorum).to_payload()

    def verify(registry: KeyRegistry) -> None:
        if not certificate_from_payload(payload).is_valid(registry, committee):
            raise RuntimeError("quorum certificate did not verify")

    # A CONFIRM that conflicts with the captured one: every signer of its
    # certificates also signed the other value of the same statement.
    confirm = captured.confirm.body
    local_votes = [
        vote
        for group in ("binary_certificates", "rbc_certificates")
        for certificate in confirm.get(group, {}).values()
        for vote in certificate_from_payload(certificate).votes
    ]
    cluster_keys = KeyRegistry.provision(captured.spec.committee)
    remote_votes = [
        make_vote(
            _VoteHost(cluster_keys.signer_for(vote.signer)),
            vote.context,
            vote.round,
            vote.kind,
            hash_payload(["conflicting", vote.value_digest]),
        )
        for vote in local_votes
    ]
    culprits = len({vote.signer for vote in local_votes})

    def extract() -> None:
        pofs = extract_pofs_from_grouped(group_votes(local_votes), group_votes(remote_votes))
        if len(pofs) != culprits:
            raise RuntimeError(f"expected {culprits} proofs of fraud, got {len(pofs)}")

    verify(keys.registry)
    return {
        # A fresh registry has a fresh verification token and an empty
        # verified-signature cache: nothing memoised applies.
        "consensus.cert_verify_per_s.cold": per_second(
            verify, seconds, prepare=lambda: KeyRegistry.provision(committee).registry
        ),
        "consensus.cert_verify_per_s.warm": per_second(lambda: verify(keys.registry), seconds),
        "consensus.pof_extract_per_s": per_second(extract, seconds),
    }


def _ledger(captured: Captured, seconds: float) -> Dict[str, float]:
    spec = captured.spec
    encoded = encode_message(captured.init)
    proposer = captured.init.sender
    proposal = captured.init.body["value"]
    node = build_node(spec, 0)
    manager = node.replica.blockchain
    genesis = (manager.record.blocks[0], list(manager.record.utxos))

    def validate(fresh_proposal: List[Any]) -> None:
        if not manager.validate_proposal(proposer, fresh_proposal):
            raise RuntimeError("captured proposal did not validate")

    def append(record: BlockchainRecord) -> None:
        report = record.filter_for_append(proposal, assume_verified=True)
        block = record.append_block(report.accepted, validate=False)
        if len(block.transactions) != len(proposal):
            raise RuntimeError("append dropped transfers of the captured proposal")

    conflicts = 200
    branch_a, branch_b, allocations = conflicting_blocks_workload(conflicts, seed=spec.seed)
    conflicting = Block(index=1, parent_hash="other-branch", transactions=tuple(branch_b))

    def forked() -> BlockchainRecord:
        record = BlockchainRecord(
            genesis_allocations=allocations, initial_deposit=200 * conflicts
        )
        record.append_block(branch_a)
        return record

    def merge(record: BlockchainRecord) -> None:
        if record.merge_block(conflicting).merged_transactions != conflicts:
            raise RuntimeError("merge dropped conflicting transfers")

    def admit(fresh_manager) -> None:
        if fresh_manager.submit_transactions(node.share) != len(node.share):
            raise RuntimeError("mempool refused transfers of the share")

    genesis_allocations = [(f"probe-account-{index % 128}", 10) for index in range(16_384)]
    generated = 256
    return {
        # A replica validates the copy it decoded, whose per-transaction
        # validity memo is cold.
        "ledger.validate_tx_per_s": per_second(
            validate,
            seconds,
            len(proposal),
            prepare=lambda: decode_message(encoded).body["value"],
        ),
        "ledger.append_tx_per_s": per_second(
            append, seconds, len(proposal), prepare=lambda: BlockchainRecord(genesis=genesis)
        ),
        "ledger.merge_tx_per_s": per_second(merge, seconds, conflicts, prepare=forked),
        "ledger.mempool_admit_per_s": per_second(
            admit,
            seconds,
            len(node.share),
            prepare=lambda: build_node(spec, 0).replica.blockchain,
        ),
        "ledger.genesis_build_s": seconds_per_call(
            lambda: make_genesis_block(genesis_allocations), seconds
        ),
        "ledger.workload_gen_tx_per_s": per_second(
            lambda workload: workload.batch(generated),
            seconds,
            generated,
            prepare=lambda: TransferWorkload(num_accounts=16, seed=spec.seed),
        ),
    }


async def _transport(captured: Captured, seconds: float) -> Dict[str, float]:
    """Round trip of a 1 KiB body and fan-out of 64 KiB bodies over UDS."""
    loop = asyncio.get_running_loop()
    socket_dir = cluster.new_socket_dir()
    topic = Topic.of("probe")
    awaited: List[Any] = [None, 0]  # the future to resolve, arrivals still missing

    def arrived(message: Message) -> None:
        awaited[1] -= 1
        if awaited[1] == 0:
            awaited[0].set_result(None)

    def expect(arrivals: int) -> asyncio.Future:
        awaited[:] = [loop.create_future(), arrivals]
        return awaited[0]

    def reflect(message: Message) -> None:
        sinks[1].send_to(0, topic, "PONG", message.body)

    # Replica 1 answers replica 0's pings, then fans out to 0, 2 and 3.
    sinks = [_Sink(0, arrived), _Sink(1, reflect), _Sink(2, arrived), _Sink(3, arrived)]
    os.makedirs(socket_dir, exist_ok=True)
    endpoints = {
        sink.replica_id: Endpoint.uds(os.path.join(socket_dir, f"probe-{sink.replica_id}.sock"))
        for sink in sinks
    }
    transports: List[AsyncioTransport] = []
    try:
        for sink in sinks:
            transport = AsyncioTransport(sink.replica_id, endpoints)
            transport.add_process(sink)
            await transport.start()
            transports.append(transport)
        for transport in transports:
            await transport.connect(timeout=10)

        small = {"payload": b"\x5a" * 1024}
        round_trips: List[float] = []
        deadline = loop.time() + seconds
        while len(round_trips) < 100 or loop.time() < deadline:
            pong = expect(1)
            begin = time.perf_counter()
            sinks[0].send_to(1, topic, "PING", small)
            await pong
            round_trips.append(time.perf_counter() - begin)

        large = {"payload": b"\xa5" * 65536}
        burst, peers = 16, [0, 2, 3]
        rates: List[float] = []
        deadline = loop.time() + seconds
        while len(rates) < MIN_BATCHES or loop.time() < deadline:
            delivered = expect(burst * len(peers))
            begin = time.perf_counter()
            for _ in range(burst):
                sinks[1].broadcast(topic, "BULK", large, recipients=peers)
            await delivered
            rates.append(burst * len(peers) * 65536 / 1e6 / (time.perf_counter() - begin))
    finally:
        for transport in transports:
            await transport.close()
        cluster.remove_socket_dir(socket_dir)
    return {
        "transport.rtt_us.uds": 1e6 * statistics.median(round_trips),
        "transport.fanout_mb_per_s.uds": statistics.median(rates),
    }
