"""Phase-level throughput model for the Figure 3 comparison.

The paper measures absolute throughput on 90 AWS machines; a message-level
pure-Python simulation of 90 replicas exchanging millions of signed messages
per instance cannot reproduce absolute numbers.  This model
reproduces the *shape* of Figure 3 from the cost terms the paper itself uses
to explain the results:

* SBC-style protocols (ZLB, Red Belly, Polygraph) decide up to ``n`` proposals
  of ``batch`` transactions per consensus instance, so their useful work grows
  with ``n``;
* HotStuff decides a single proposal per instance regardless of load, which is
  why its throughput stays flat (§5.1);
* each decided proposal costs per-transaction work (signature verification,
  deserialisation, UTXO checks);
* accountability adds certificate transfer/verification overhead — moderate
  for ZLB's ECDSA certificates, larger for Polygraph's RSA certificates (the
  reason Polygraph falls behind ZLB beyond ≈40 replicas);
* every instance also pays a fixed number of communication rounds over the
  WAN delay distribution.

The constants were calibrated so that the n = 90 ordering and ratios match the
paper (Red Belly ≥ ZLB ≈ 5–6× HotStuff, Polygraph crossing ZLB around 40
replicas); ``python -m repro.scenarios run fig3`` prints the calibrated outputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.network.delays import DelayModel, AwsRegionDelay


@dataclasses.dataclass(frozen=True)
class ProtocolCostModel:
    """Cost parameters of one protocol under the phase-level model.

    Attributes:
        name: protocol name as used in Figure 3.
        decides_all_proposals: True for SBC-style protocols (n proposals per
            instance), False for single-proposal SMR (HotStuff).
        batch_size: transactions per proposal (the paper uses 10,000).
        communication_rounds: one-way message delays on the critical path of
            one consensus instance.
        per_tx_cost: seconds of per-transaction work (verification, execution).
        per_proposal_overhead: fixed seconds per decided proposal (batching,
            Merkle roots, dissemination book-keeping).
        certificate_overhead_per_replica: seconds per committee member per
            instance spent shipping and verifying accountability certificates
            (0 for non-accountable protocols).
        base_latency: fixed seconds per instance (client interaction, disk).
    """

    name: str
    decides_all_proposals: bool
    batch_size: int = 10_000
    communication_rounds: int = 7
    per_tx_cost: float = 0.0
    per_proposal_overhead: float = 0.0
    certificate_overhead_per_replica: float = 0.0
    base_latency: float = 0.0

    def instance_latency(self, n: int, mean_delay: float) -> float:
        """Latency of one consensus instance with ``n`` replicas."""
        if n <= 0:
            raise ConfigurationError("committee size must be positive")
        proposals = n if self.decides_all_proposals else 1
        transactions = proposals * self.batch_size
        return (
            self.base_latency
            + self.communication_rounds * mean_delay
            + proposals * self.per_proposal_overhead
            + transactions * self.per_tx_cost
            + n * self.certificate_overhead_per_replica
        )

    def transactions_per_instance(self, n: int) -> int:
        """Transactions decided by one instance."""
        proposals = n if self.decides_all_proposals else 1
        return proposals * self.batch_size

    def throughput(self, n: int, mean_delay: float) -> float:
        """Throughput in transactions per second."""
        return self.transactions_per_instance(n) / self.instance_latency(n, mean_delay)


#: Calibrated cost models (see module docstring).
_PROTOCOL_MODELS: Dict[str, ProtocolCostModel] = {
    "zlb": ProtocolCostModel(
        name="ZLB",
        decides_all_proposals=True,
        communication_rounds=9,
        per_tx_cost=47e-6,
        per_proposal_overhead=0.04,
        certificate_overhead_per_replica=0.03,
        # Request batching and dissemination pipeline fill dominate at small n,
        # which is what makes throughput grow with the committee size (Fig. 3).
        base_latency=9.0,
    ),
    "redbelly": ProtocolCostModel(
        name="Red Belly",
        decides_all_proposals=True,
        communication_rounds=7,
        per_tx_cost=36e-6,
        per_proposal_overhead=0.03,
        certificate_overhead_per_replica=0.0,
        base_latency=7.0,
    ),
    "polygraph": ProtocolCostModel(
        name="Polygraph",
        decides_all_proposals=True,
        communication_rounds=8,
        per_tx_cost=47e-6,
        per_proposal_overhead=0.03,
        # RSA certificates: larger and slower to verify than ZLB's ECDSA ones,
        # and the overhead compounds with the committee size (crossover ~40).
        certificate_overhead_per_replica=0.12,
        base_latency=6.0,
    ),
    "hotstuff": ProtocolCostModel(
        name="HotStuff",
        decides_all_proposals=False,
        communication_rounds=8,
        # HotStuff is benchmarked without transaction verification (§5.1).
        per_tx_cost=8e-6,
        per_proposal_overhead=0.03,
        certificate_overhead_per_replica=0.015,
        base_latency=2.0,
    ),
}


def protocol_model(name: str) -> ProtocolCostModel:
    """Look up the calibrated cost model of a protocol by name."""
    key = name.strip().lower().replace(" ", "").replace("-", "").replace("_", "")
    aliases = {
        "zlb": "zlb",
        "zeroloss": "zlb",
        "redbelly": "redbelly",
        "redbellyblockchain": "redbelly",
        "polygraph": "polygraph",
        "hotstuff": "hotstuff",
        "libra": "hotstuff",
    }
    if key not in aliases:
        raise ConfigurationError(f"unknown protocol {name!r}")
    return _PROTOCOL_MODELS[aliases[key]]


def available_protocols() -> List[str]:
    """Names accepted by :func:`protocol_model`, in Figure 3 order."""
    return ["ZLB", "Polygraph", "HotStuff", "Red Belly"]


class ThroughputModel:
    """Computes the Figure 3 series for a set of protocols and committee sizes."""

    def __init__(self, delay_model: Optional[DelayModel] = None):
        self.delay_model = delay_model or AwsRegionDelay()

    def mean_delay(self) -> float:
        """Mean one-way WAN delay used by the model."""
        return self.delay_model.mean_delay()

    def throughput(self, protocol: str, n: int) -> float:
        """Transactions per second for ``protocol`` at committee size ``n``."""
        return protocol_model(protocol).throughput(n, self.mean_delay())

    def series(self, protocol: str, sizes: Sequence[int]) -> List[float]:
        """Throughput series over committee sizes (one Figure 3 line)."""
        return [self.throughput(protocol, n) for n in sizes]

    def figure3(self, sizes: Sequence[int]) -> Dict[str, List[float]]:
        """All four Figure 3 series keyed by protocol name."""
        return {name: self.series(name, sizes) for name in available_protocols()}
