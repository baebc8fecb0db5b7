"""Deterministic cluster fixture: every worker rebuilds the same deployment.

A real cluster has no central ``ZLBSystem.create`` call: each OS process must
construct its own replica, and all of them must agree on the genesis block,
the PKI and the client workload *without exchanging a byte*.  They do,
because each calls the simulator's own constructor,
:func:`repro.zlb.system.deploy`, with the same arguments: a fault-free
committee of the spec's size and no standby pool (``pool_size=0``) — so a
simulator cell created with ``pool_size=0`` and the same seed and workload
builds the very same genesis.  A worker builds only its own replica.

The workload is split the way :meth:`ZLBSystem.submit_workload` spreads it in
simulation — transaction ``i`` goes to replica ``i % n`` — so simulated and
real runs of the same spec commit the same transactions from the same
mempools.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Dict, List

from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.common.types import ReplicaId
from repro.ledger.transaction import Transaction
from repro.ledger.workload import funded_utxos
from repro.network.asyncio_transport import Endpoint
from repro.zlb.node import ZLBReplica
from repro.zlb.system import deploy


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Everything a worker needs to rebuild its slice of the deployment.

    Attributes:
        n: committee size (all replicas honest — the cluster backend measures
            the fault-free data path; attacks stay in the simulator).
        transport: ``"uds"`` or ``"tcp"``.
        transactions: total client transfers driven through the cluster.
        batch_size: transactions per proposal.
        accounts: number of funded client accounts in the workload, at least
            two; each pays at most 128 transfers, so ``transactions`` may not
            exceed ``128 × accounts``.
        seed: seed for keys, workload and genesis (determinism anchor).
        socket_dir: directory for UNIX-domain socket files (``uds`` only).
        base_port: first TCP port; replica ``i`` listens on ``base_port + i``
            (``tcp`` only).
        timeout: per-worker wall-clock budget in seconds.
        obs: give every worker a fully instrumented probe (metrics, tracing
            with a flight recorder) and stream periodic obs frames to the
            launcher.  Strictly observational: the committed
            chain of a given seed is identical with ``obs`` on or off.
    """

    n: int = 4
    transport: str = "uds"
    transactions: int = 200
    batch_size: int = 50
    accounts: int = 16
    seed: int = 0
    socket_dir: str = ""
    base_port: int = 0
    timeout: float = 60.0
    obs: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("cluster needs at least one replica")
        if self.transport not in ("uds", "tcp"):
            raise ConfigurationError(f"unknown transport {self.transport!r}")
        if self.transactions < 0:
            raise ConfigurationError("transactions must be non-negative")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        funded = funded_utxos()
        least = max(2, math.ceil(self.transactions / funded))
        if self.accounts < least:
            raise ConfigurationError(
                f"{self.transactions} transfers need --accounts {least} or "
                f"more: a transfer moves coins between two accounts, and each "
                f"account is funded with {funded} UTXOs, one per transfer"
            )

    @property
    def committee(self) -> List[ReplicaId]:
        return list(range(self.n))

    @property
    def instances_needed(self) -> int:
        """Consensus instances required to drain every replica's share.

        Each instance commits the union of every replica's next batch, so the
        budget is set by the largest per-replica share.
        """
        if self.transactions == 0:
            return 0
        largest_share = math.ceil(self.transactions / self.n)
        return math.ceil(largest_share / self.batch_size)


def endpoints_for(spec: ClusterSpec) -> Dict[ReplicaId, Endpoint]:
    """The full replica-id → listening-endpoint map of the deployment."""
    endpoints: Dict[ReplicaId, Endpoint] = {}
    for replica_id in spec.committee:
        if spec.transport == "uds":
            if not spec.socket_dir:
                raise ConfigurationError("uds transport needs a socket_dir")
            endpoints[replica_id] = Endpoint.uds(
                os.path.join(spec.socket_dir, f"replica-{replica_id}.sock")
            )
        else:
            if spec.base_port <= 0:
                raise ConfigurationError("tcp transport needs a base_port")
            endpoints[replica_id] = Endpoint.tcp(
                "127.0.0.1", spec.base_port + replica_id
            )
    return endpoints


@dataclasses.dataclass
class ClusterNode:
    """One worker's locally reconstructed slice of the deployment."""

    replica: ZLBReplica
    #: This replica's share of the client workload (``tx i → replica i % n``).
    share: List[Transaction]
    #: Total transfers across the whole cluster (the commit target: SBC
    #: decides unions, so every replica commits every transaction).
    total_transactions: int
    #: Consensus instances this replica must request to drain the workload.
    instances_needed: int
    #: Conserved value (UTXO supply + deposits) at genesis — the zero-loss
    #: baseline the final state is checked against.
    conserved_baseline: int


def build_node(spec: ClusterSpec, replica_id: ReplicaId) -> ClusterNode:
    """Deterministically rebuild replica ``replica_id`` of the deployment.

    Every worker deploys the same spec, so all of them derive the identical
    genesis block hash and UTXO table, and cross-replica signatures verify.
    """
    deployment = deploy(
        FaultConfig(n=spec.n),
        seed=spec.seed,
        pool_size=0,
        workload_accounts=spec.accounts,
        batch_size=spec.batch_size,
    )
    replica = deployment.replica(replica_id)
    transactions = deployment.workload.batch(spec.transactions)
    return ClusterNode(
        replica=replica,
        share=transactions[replica_id :: spec.n],
        total_transactions=len(transactions),
        instances_needed=spec.instances_needed,
        conserved_baseline=replica.blockchain.conserved_total(),
    )
