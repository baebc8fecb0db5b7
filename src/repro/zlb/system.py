"""The ZLB system orchestrator: a full deployment on the network simulator.

:func:`deploy` is the one constructor of a deployment: from a
:class:`~repro.common.config.FaultConfig` and a seed it provisions the keys,
the client workload, the genesis (funding every member's deposit under the
one :data:`DEPOSIT_POLICY`) and — optionally — one of the two coalition
attacks, and builds any of its
:class:`~repro.zlb.node.ZLBReplica` processes on request.  :class:`ZLBSystem`
puts every committee member (honest, deceitful and benign) and a pool of
standby candidates for inclusion on the simulator, with the partition delays
that §5.2–§5.3 inject between honest partitions; a cluster worker
(:mod:`repro.cluster.fixture`) builds only its own replica.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.adversary.attacks import (
    RBC_ATTACK_NAMES,
    BinaryConsensusAttack,
    ReliableBroadcastAttack,
)
from repro.adversary.behaviors import AttackStrategy
from repro.adversary.coalition import CoalitionPlan
from repro.common.config import FaultConfig, ProtocolConfig, SimulationConfig
from repro.common.errors import ConfigurationError
from repro.common.types import FaultKind, ReplicaId, recovery_threshold
from repro.crypto.keys import KeyRegistry, ProvisionedKeys
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.transaction import Transaction, build_transfer
from repro.ledger.utxo import UTXO, UTXOTable
from repro.ledger.wallet import Wallet
from repro.ledger.workload import TransferWorkload
from repro.network.delays import DelayModel, PartitionedDelay, delay_model_from_name
from repro.network.faults import LinkFaults
from repro.network.simulator import NetworkSimulator
from repro.obs import core as obs_core
from repro.obs.core import Probe
from repro.obs.monitors import MonitorSet
from repro.smr.pool import CandidatePool
from repro.zlb.blockchain_manager import BlockchainManager, replica_deposit_account
from repro.zlb.node import ZLBReplica
from repro.zlb.payment import DepositPolicy

#: The deposit every deployment funds: the coalition's deposit covers a gain
#: of up to 100 000 coins, final after 5 blocks.
DEPOSIT_POLICY = DepositPolicy(
    gain_bound=100_000, deposit_factor=1.0, finalization_blockdepth=5
)

#: The ``lossy`` value of the delay axis: gamma delays, and each message to
#: each target lost with this probability.
LOSSY_LOSS_RATE = 0.05


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    """Configuration of a coalition attack for one run.

    Attributes:
        kind: ``"binary"`` (binary consensus attack) or ``"rbbcast"``
            (reliable broadcast attack).
        cross_partition_delay: delay model (or name, e.g. ``"1000ms"``) applied
            to links between honest partitions while the attack runs.
        branches: number of honest partitions to create; defaults to the
            Appendix B bound for the fault configuration.
        double_spend_amount: value of the conflicting transactions the
            coalition injects in the reliable broadcast attack.
    """

    kind: str = "binary"
    cross_partition_delay: Union[str, DelayModel] = "1000ms"
    branches: Optional[int] = None
    double_spend_amount: int = 1_000

    def resolve_cross_delay(self) -> DelayModel:
        if isinstance(self.cross_partition_delay, DelayModel):
            return self.cross_partition_delay
        return delay_model_from_name(self.cross_partition_delay)

    @property
    def is_rbc_attack(self) -> bool:
        """True for the reliable broadcast attack (same name set as
        :func:`repro.adversary.attacks.attack_from_name`)."""
        return self.kind.strip().lower() in RBC_ATTACK_NAMES


@dataclasses.dataclass
class SystemResult:
    """Aggregated outcome of one ZLB run (per-replica detail plus summaries)."""

    n: int
    fault_config: FaultConfig
    simulated_time: float
    messages_sent: int
    messages_delivered: int
    per_replica: Dict[ReplicaId, Dict[str, Any]]
    disagreeing_pairs: set
    disagreement_instances: set
    detect_time: Optional[float]
    exclusion_time: Optional[float]
    inclusion_time: Optional[float]
    excluded: List[ReplicaId]
    included: List[ReplicaId]
    final_committee: List[ReplicaId]
    committed_transactions: int
    deposit_shortfall: int
    #: Net value the coalition actually realised through double spends, as
    #: accounted by the honest replicas' merges (0 when no attack landed).
    realized_gain: int = 0
    #: Value seized from the coalition (slashed deposits plus confiscations).
    seized_deposit: int = 0
    #: Mean time from a joiner's inclusion (the first honest member's
    #: decision) to the joiner holding every caught-up record (Fig. 5, right);
    #: None when nobody joined, or when a joiner never held the chain.
    catchup_time: Optional[float] = None
    #: Metrics snapshot of the run (None without a metrics back-end).
    telemetry: Optional[Dict[str, Any]] = None
    #: The deployment's invariant violations so far, one
    #: ``InvariantViolation.describe()`` line each (empty when every claim held).
    violations: List[str] = dataclasses.field(default_factory=list)

    @property
    def disagreements(self) -> int:
        """Number of disagreeing proposals (distinct (instance, slot) pairs)."""
        return len(self.disagreeing_pairs)

    @property
    def recovered(self) -> bool:
        """True when a membership change completed and excluded ≥ ceil(n/3)
        replicas — the recovery threshold of Alg. 1 (a smaller exclusion
        cannot have restored the < n/3 deceitful ratio the paper requires)."""
        return len(self.excluded) >= recovery_threshold(self.n)

    @property
    def throughput_tx_per_sec(self) -> float:
        """Committed transactions per simulated second (honest replica view)."""
        if self.simulated_time <= 0:
            return 0.0
        return self.committed_transactions / self.simulated_time

    @property
    def attacker_net_gain(self) -> int:
        """The coalition's profit after recovery: realised gain minus seizures.

        The paper's zero-loss claim is exactly that this is ≤ 0 in
        expectation for a correctly-sized deposit policy.
        """
        return self.realized_gain - self.seized_deposit

    @property
    def zero_loss(self) -> bool:
        """True when the seized deposits covered everything the coalition
        actually realised (and the shared deposit never went negative)."""
        return self.attacker_net_gain <= 0 and self.deposit_shortfall == 0

    def to_row(self) -> Dict[str, Any]:
        """The flat row every deploying scenario family starts from."""

        def seconds(at: Optional[float]) -> Optional[float]:
            return round(at, 3) if at else None

        return {
            "n": self.n,
            "deceitful": self.fault_config.deceitful,
            "benign": self.fault_config.benign,
            "simulated_time_s": round(self.simulated_time, 3),
            "decided_instances": max(
                (len(d["decided_instances"]) for d in self.per_replica.values()),
                default=0,
            ),
            "committed_transactions": self.committed_transactions,
            "throughput_tx_s": round(self.throughput_tx_per_sec, 1),
            "disagreements": self.disagreements,
            "disagreement_instances": len(self.disagreement_instances),
            "detect_time_s": seconds(self.detect_time),
            "exclusion_time_s": seconds(self.exclusion_time),
            "inclusion_time_s": seconds(self.inclusion_time),
            "catchup_time_s": seconds(self.catchup_time),
            "excluded_replicas": len(self.excluded),
            "included_replicas": len(self.included),
            "deposit_shortfall": self.deposit_shortfall,
            "realized_gain": self.realized_gain,
            "seized_deposit": self.seized_deposit,
            "attacker_net_gain": self.attacker_net_gain,
            "violations": list(self.violations),
        }

    def chain_summary(self) -> Dict[str, Any]:
        """Chain summary of the lowest-id honest replica."""
        for replica_id in sorted(self.per_replica):
            detail = self.per_replica[replica_id]
            if detail["fault"] == FaultKind.HONEST.value:
                return detail["chain"]
        return {}


@dataclasses.dataclass
class Deployment:
    """What every replica of one deployment is built from (see :func:`deploy`)."""

    fault_config: FaultConfig
    committee: List[ReplicaId]
    #: Standby candidates for inclusion, numbered after the committee.
    pool_ids: List[ReplicaId]
    keys: ProvisionedKeys
    workload: TransferWorkload
    protocol_config: ProtocolConfig
    plan: CoalitionPlan
    #: The deployment genesis ``(block, utxos)`` every replica starts from.
    genesis: Tuple[Block, List[UTXO]]
    #: The invariant monitors every replica of the deployment reports to.
    monitors: MonitorSet
    #: The coalition's shared attack, given to every deceitful member.
    strategy: Optional[AttackStrategy] = None

    def replica(self, replica_id: ReplicaId) -> ZLBReplica:
        """Build member ``replica_id`` with its own blockchain manager, its
        conserved-value baseline registered with the deployment's monitors."""
        if replica_id not in self.keys.signers:
            raise ConfigurationError(
                f"replica {replica_id} is not in a deployment of "
                f"{len(self.committee)} replicas and {len(self.pool_ids)} candidates"
            )
        standby = replica_id not in self.committee
        fault = FaultKind.HONEST if standby else self.plan.fault_of(replica_id)
        replica = ZLBReplica(
            replica_id=replica_id,
            committee=self.committee,
            signer=self.keys.signer_for(replica_id),
            registry=self.keys.registry,
            blockchain=BlockchainManager(
                replica_id=replica_id,
                initial_deposit=DEPOSIT_POLICY.coalition_deposit,
                batch_size=self.protocol_config.batch_size,
                genesis=self.genesis,
            ),
            pool=CandidatePool(self.pool_ids),
            config=self.protocol_config,
            fault=fault,
            standby=standby,
            finalization_blockdepth=DEPOSIT_POLICY.finalization_blockdepth,
            monitors=self.monitors,
        )
        self.monitors.register_ledger(replica_id, replica.blockchain.conserved_total())
        if fault is FaultKind.DECEITFUL and self.strategy is not None:
            replica.attack_strategy = self.strategy
        return replica


def deploy(
    fault_config: FaultConfig,
    seed: int = 0,
    attack: Optional[AttackSpec] = None,
    pool_size: Optional[int] = None,
    workload_accounts: int = 16,
    batch_size: int = 50,
    confirmation: bool = True,
) -> Deployment:
    """Assemble a deployment as a pure function of its arguments.

    Any process that calls this with the same arguments derives the same
    keys, workload and genesis, so replicas built in different processes
    verify each other's signatures and agree on every genesis UTXO id.  The
    genesis allocates the workload's accounts, then one deposit per
    committee and pool member, then the attacker wallets; ``pool_size``
    defaults to ``n``.  ``confirmation=False`` skips the confirmation phase,
    so no proof of fraud ever forms and no membership change runs: that is
    the Red Belly blockchain of Fig. 3, the same SBC without accountability.
    """
    n = fault_config.n
    protocol_config = ProtocolConfig(
        batch_size=batch_size, confirmation_enabled=confirmation
    )
    pool_size = n if pool_size is None else pool_size
    plan = CoalitionPlan.from_fault_config(
        fault_config, branches=attack.branches if attack else None
    )
    committee = list(range(n))
    pool_ids = list(range(n, n + pool_size))
    keys = KeyRegistry.provision(committee + pool_ids)

    workload = TransferWorkload(num_accounts=workload_accounts, seed=seed)
    allocations: List[Tuple[str, int]] = list(workload.genesis_allocations)
    per_replica_deposit = DEPOSIT_POLICY.per_replica_deposit(n)
    for replica_id in committee + pool_ids:
        allocations.append((replica_deposit_account(replica_id), per_replica_deposit))

    # The reliable broadcast attack needs funded attacker accounts whose
    # UTXOs the coalition double-spends towards different partitions, so
    # their allocations must be part of the deployment genesis *before* it is
    # built: genesis UTXO ids depend on each allocation's position.
    attacker_wallets: Dict[ReplicaId, Wallet] = {}
    if attack is not None and attack.is_rbc_attack:
        for slot in sorted(plan.deceitful):
            wallet = Wallet(name=f"attacker-{seed}-{slot}")
            attacker_wallets[slot] = wallet
            allocations.append((wallet.address, attack.double_spend_amount))

    # The genesis extends the workload's, so only the deposits and attacker
    # allocations are hashed here; every replica shares it.
    genesis = make_genesis_block(allocations, prefix=workload.genesis)

    strategy: Optional[AttackStrategy] = None
    if attack is not None and attack.is_rbc_attack:
        # Attack variants spend *real* coins: the conflicting transfers are
        # built from the deployment genesis UTXOs the coalition actually
        # owns, so every partition commits a transaction contesting a genuine
        # output and the merge accounts the coalition's actually-realised gain.
        strategy = ReliableBroadcastAttack(
            plan,
            _build_double_spend_variants(
                plan,
                wallets=attacker_wallets,
                view=UTXOTable(genesis[1]),
                amount=attack.double_spend_amount,
            ),
        )
    elif attack is not None:
        strategy = BinaryConsensusAttack(plan)

    return Deployment(
        fault_config=fault_config,
        committee=committee,
        pool_ids=pool_ids,
        keys=keys,
        workload=workload,
        protocol_config=protocol_config,
        plan=plan,
        genesis=genesis,
        monitors=MonitorSet(
            # The candidates are honest: once included, they are checked too.
            honest=[r for r in committee if plan.fault_of(r) is FaultKind.HONEST] + pool_ids,
            expect_disagreement=attack is not None,
        ),
        strategy=strategy,
    )


class ZLBSystem:
    """A deployed ZLB committee (plus candidate pool) on the simulator."""

    def __init__(
        self,
        deployment: Deployment,
        simulator: NetworkSimulator,
        replicas: Dict[ReplicaId, ZLBReplica],
    ):
        self.deployment = deployment
        self.fault_config = deployment.fault_config
        self.plan = deployment.plan
        self.workload = deployment.workload
        self.simulator = simulator
        self.replicas = replicas
        self.instances_requested = 0

    # -- construction ----------------------------------------------------------------

    @staticmethod
    def create(
        fault_config: FaultConfig,
        seed: int = 0,
        delay: Union[str, DelayModel] = "aws",
        attack: Optional[AttackSpec] = None,
        pool_size: Optional[int] = None,
        workload_accounts: int = 16,
        workload_transactions: int = 200,
        batch_size: int = 50,
        confirmation: bool = True,
        max_time: float = 3_600.0,
        max_events: Optional[int] = None,
        probe: Optional[Probe] = None,
    ) -> "ZLBSystem":
        """Build a complete deployment; see the class docstring for the pieces.

        ``delay`` is a delay model, a name :func:`delay_model_from_name`
        knows, or ``"lossy"`` (see :data:`LOSSY_LOSS_RATE`).
        ``probe`` instruments the whole stack (simulator, broadcast,
        consensus, membership, blockchain managers); it defaults to the probe
        installed by :func:`repro.obs.activate`, i.e. None — uninstrumented —
        unless a scenario cell activated one.  The deployment's invariant
        monitors check the run either way; a traced probe only attaches its
        flight recorder to them, for the dump on the first violation.
        """
        probe = probe if probe is not None else obs_core.current()
        deployment = deploy(
            fault_config,
            seed=seed,
            attack=attack,
            pool_size=pool_size,
            workload_accounts=workload_accounts,
            batch_size=batch_size,
            confirmation=confirmation,
        )
        plan = deployment.plan

        # Delay model: base everywhere, slowed links between honest partitions
        # while an attack is running.
        loss_rate = 0.0
        if delay == "lossy":
            delay, loss_rate = "gamma", LOSSY_LOSS_RATE
        base_delay = (
            delay if isinstance(delay, DelayModel) else delay_model_from_name(delay)
        )
        if attack is not None:
            delay_model: DelayModel = PartitionedDelay(
                base=base_delay,
                cross_partition=attack.resolve_cross_delay(),
                partition=plan.partition,
            )
        else:
            delay_model = base_delay

        simulator = NetworkSimulator(
            delay_model=delay_model,
            config=(
                SimulationConfig(seed=seed, max_time=max_time)
                if max_events is None
                else SimulationConfig(
                    seed=seed, max_time=max_time, max_events=max_events
                )
            ),
            probe=probe,
            faults=LinkFaults(loss_rate=loss_rate, seed=seed),
        )
        replicas: Dict[ReplicaId, ZLBReplica] = {}
        for replica_id in deployment.committee + deployment.pool_ids:
            replica = replicas[replica_id] = deployment.replica(replica_id)
            simulator.add_process(replica)

        if probe is not None and probe.trace is not None:
            deployment.monitors.recorder = probe.trace.recorder

        system = ZLBSystem(deployment, simulator, replicas)
        if workload_transactions > 0:
            system.submit_workload(workload_transactions)
        return system

    # -- workload -------------------------------------------------------------------------

    def submit_workload(self, num_transactions: int) -> int:
        """Generate client transfers and spread them across committee mempools.

        Only *proposing* replicas receive traffic: benign (crashed) replicas
        never run instances (:meth:`run_instances` skips them), so anything
        routed to their mempools would be silently stranded and the measured
        throughput would under-count the offered load.  Deceitful replicas
        *do* receive their share — clients cannot distinguish them, and
        transactions lost to an equivocating proposer (e.g. the reliable
        broadcast attack replacing its proposals with double-spend variants)
        are part of the attack's measured cost, not a harness artifact.
        """
        committee = sorted(
            replica_id
            for replica_id, replica in self.replicas.items()
            if not replica.standby and replica.fault is not FaultKind.BENIGN
        )
        if not committee:
            return 0
        transactions = self.workload.batch(num_transactions)
        for index, transaction in enumerate(transactions):
            target = committee[index % len(committee)]
            self.replicas[target].submit_transaction(transaction)
        return len(transactions)

    # -- execution ----------------------------------------------------------------------------

    def run_instances(
        self, count: int = 1, until: Optional[float] = None
    ) -> SystemResult:
        """Ask every active replica to run ``count`` more instances: a
        standby holds the target for when a membership change includes it."""
        self.instances_requested += count
        for replica in self.replicas.values():
            if replica.fault is not FaultKind.BENIGN:
                replica.submit_instances(count)
        return self.run(until=until)

    def run(self, until: Optional[float] = None) -> SystemResult:
        """Drain pending events without requesting new instances.

        The result carries every violation the deployment's monitors recorded
        so far, after the end-of-run zero-loss and convergence checks (the
        latter over the honest members that are not cut: a crashed one is
        checked once it is back).
        """
        simulator = self.simulator
        simulator.run(until=until)
        cut = simulator.faults.cut_replicas
        result = self.result()
        monitors = self.deployment.monitors
        monitors.finalize(
            result.realized_gain,
            result.seized_deposit,
            result.deposit_shortfall,
            at=result.simulated_time,
            state_digests={
                replica.replica_id: replica.blockchain.record.state_digest()
                for replica in self.honest_replicas()
                if replica.replica_id not in cut
            },
        )
        result.violations = [violation.describe() for violation in monitors.violations]
        return result

    # -- results -----------------------------------------------------------------------------------

    def honest_replicas(self) -> List[ZLBReplica]:
        """Committee members that are honest and active."""
        return [
            replica
            for replica in self.replicas.values()
            if not replica.standby and replica.fault is FaultKind.HONEST
        ]

    def result(self) -> SystemResult:
        """Aggregate the current state of every replica into a SystemResult."""
        per_replica: Dict[ReplicaId, Dict[str, Any]] = {}
        disagreeing_pairs = set()
        disagreement_instances = set()
        detect_times: List[float] = []
        exclusion_times: List[float] = []
        inclusion_times: List[float] = []
        excluded: List[ReplicaId] = []
        included: List[ReplicaId] = []
        committed = 0
        shortfall = 0
        realized_gain = 0
        seized = 0
        final_committee: List[ReplicaId] = []
        #: Each joiner's inclusion, as the first honest member decided it.
        included_at: Dict[ReplicaId, float] = {}

        for replica_id, replica in sorted(self.replicas.items()):
            if replica.standby:
                continue
            detail = {
                "fault": replica.fault.value,
                "decided_instances": replica.decided_instances(),
                "detected_at": replica.detected_at,
                "membership_outcomes": replica.membership_outcomes,
                "chain": replica.chain_summary(),
                "committee": list(replica.committee()),
            }
            per_replica[replica_id] = detail
            if replica.fault is not FaultKind.HONEST:
                continue
            for instance, record in replica.history.disagreed.items():
                disagreeing_pairs.update((instance, slot) for slot in record.disagreeing_slots)
                disagreement_instances.add(instance)
            if replica.detected_at is not None:
                detect_times.append(replica.detected_at)
            for outcome in replica.membership_outcomes:
                exclusion_times.append(outcome.exclusion_duration)
                inclusion_times.append(outcome.inclusion_duration)
                excluded = sorted(set(excluded) | set(outcome.excluded))
                included = sorted(set(included) | set(outcome.included))
                for joiner in outcome.included:
                    at = included_at.get(joiner, outcome.inclusion_decided_at)
                    included_at[joiner] = min(at, outcome.inclusion_decided_at)
            # Gain/seizure must stay a *consistent pair* from one record (the
            # zero-loss arithmetic compares them): take both from the honest
            # replica that accounted the largest realised gain, i.e. the one
            # that observed the most of the fork.  Mixing independent maxima
            # could pair one replica's gain with another's seizures.
            record = replica.blockchain.record
            if record.realized_attack_gain > realized_gain or (
                record.realized_attack_gain == realized_gain
                and record.seized_total > seized
            ):
                realized_gain = record.realized_attack_gain
                seized = record.seized_total
            if not final_committee:
                final_committee = list(replica.committee())

        # One honest member of the final committee that is up reads the
        # ledger: the convergence monitor checks that the others agree.
        cut = self.simulator.faults.cut_replicas
        for replica_id in sorted(final_committee):
            replica = self.replicas[replica_id]
            if replica.fault is FaultKind.HONEST and replica_id not in cut:
                committed = replica.blockchain.transactions_committed
                shortfall = replica.blockchain.record.deposit_shortfall()
                break
        # A joiner that never held the chain leaves no catch-up time at all.
        completed = [self.replicas[joiner].history.catchup_completed_at for joiner in included_at]
        catchup_time = None
        if completed and None not in completed:
            catchup_times = [done - at for done, at in zip(completed, included_at.values())]
            catchup_time = sum(catchup_times) / len(catchup_times)
        probe = self.simulator.probe
        return SystemResult(
            n=self.fault_config.n,
            fault_config=self.fault_config,
            simulated_time=self.simulator.now,
            messages_sent=self.simulator.messages_sent,
            messages_delivered=self.simulator.messages_delivered,
            per_replica=per_replica,
            disagreeing_pairs=disagreeing_pairs,
            disagreement_instances=disagreement_instances,
            detect_time=min(detect_times) if detect_times else None,
            exclusion_time=(
                sum(exclusion_times) / len(exclusion_times) if exclusion_times else None
            ),
            inclusion_time=(
                sum(inclusion_times) / len(inclusion_times) if inclusion_times else None
            ),
            excluded=excluded,
            included=included,
            final_committee=final_committee,
            committed_transactions=committed,
            deposit_shortfall=shortfall,
            realized_gain=realized_gain,
            seized_deposit=seized,
            catchup_time=catchup_time,
            telemetry=(
                probe.metrics.snapshot()
                if probe is not None and probe.metrics is not None
                else None
            ),
        )


def _build_double_spend_variants(
    plan: CoalitionPlan,
    wallets: Dict[ReplicaId, Wallet],
    view: UTXOTable,
    amount: int,
) -> Dict[ReplicaId, List[Any]]:
    """Conflicting proposal variants for the reliable broadcast attack.

    For every deceitful slot the coalition owns a funded attacker wallet and
    prepares one transaction per partition, all spending the same UTXO towards
    different recipients — the canonical double spend of Fig. 1.  ``view``
    must be the *deployment* genesis UTXO table: the variants' inputs are
    selected from it, so every conflicting transfer contests a UTXO that
    genuinely exists on the chain the committee runs (a variant built against
    any other genesis would reference phantom outputs and be rejected by the
    execution-validated commit path).
    """
    branches = max(1, plan.num_branches)
    variants: Dict[ReplicaId, List[Any]] = {}
    for slot, attacker in sorted(wallets.items()):
        inputs = view.select_inputs(attacker.address, amount)
        slot_variants: List[List[Transaction]] = []
        for branch in range(branches):
            recipient = Wallet(name=f"fence-{attacker.name}-{branch}")
            slot_variants.append(
                [
                    build_transfer(
                        wallet=attacker,
                        inputs=inputs,
                        recipients=[(recipient.address, amount)],
                        nonce=branch,
                    )
                ]
            )
        variants[slot] = slot_variants
    return variants

