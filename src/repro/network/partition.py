"""Partition specifications for coalition attacks.

To make honest replicas disagree, the adversary of §5.2 splits them into
``a`` partitions (``a`` bounded by the branch formula of Appendix B) and slows
the links between partitions while deceitful replicas talk to every partition
normally.  :class:`PartitionSpec` captures that split and answers the two
questions the attack machinery needs: which partition an honest replica
belongs to, and whether a link crosses partitions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ReplicaId, ReplicaSet, as_replica_set


@dataclasses.dataclass(frozen=True)
class PartitionSpec:
    """Assignment of honest replicas to partitions; deceitful replicas bridge all.

    Attributes:
        partitions: tuple of frozensets of replica ids, one per partition.
        bridging: replicas (typically the deceitful coalition) that are not in
            any partition and communicate normally with everyone.
        index: partitioned replica -> its partition's position in
            ``partitions``, built once from them; every other replica
            (bridging or unknown to the spec) is absent.
    """

    partitions: Tuple[ReplicaSet, ...]
    bridging: ReplicaSet = frozenset()
    index: Mapping[ReplicaId, int] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index: Dict[ReplicaId, int] = {}
        for position, partition in enumerate(self.partitions):
            overlap = index.keys() & partition
            if overlap:
                raise ConfigurationError(
                    f"replicas {sorted(overlap)} appear in multiple partitions"
                )
            index.update(dict.fromkeys(partition, position))
        object.__setattr__(self, "index", index)
        overlap = index.keys() & self.bridging
        if overlap:
            raise ConfigurationError(
                f"bridging replicas {sorted(overlap)} also appear in a partition"
            )

    @property
    def num_partitions(self) -> int:
        """Number of honest partitions."""
        return len(self.partitions)

    def partition_of(self, replica: ReplicaId) -> Optional[int]:
        """Return the partition index of ``replica`` or None if it bridges."""
        return self.index.get(replica)

    def crosses_partitions(self, sender: ReplicaId, recipient: ReplicaId) -> bool:
        """True when both endpoints are partitioned and in different partitions."""
        index = self.index
        sender_partition = index.get(sender)
        recipient_partition = index.get(recipient)
        if sender_partition is None or recipient_partition is None:
            return False
        return sender_partition != recipient_partition

    def members(self) -> ReplicaSet:
        """All replicas covered by the spec (partitioned plus bridging)."""
        covered = set(self.bridging)
        for partition in self.partitions:
            covered.update(partition)
        return frozenset(covered)

    @staticmethod
    def split_evenly(
        honest: Iterable[ReplicaId],
        num_partitions: int,
        bridging: Iterable[ReplicaId] = (),
    ) -> "PartitionSpec":
        """Split ``honest`` replicas into ``num_partitions`` near-equal groups.

        The split is deterministic (sorted ids dealt round-robin) so attack
        experiments are reproducible for a given committee.
        """
        if num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        honest_sorted: List[ReplicaId] = sorted(set(int(r) for r in honest))
        if not honest_sorted and num_partitions > 0:
            raise ConfigurationError("cannot partition an empty honest set")
        groups: List[List[ReplicaId]] = [[] for _ in range(num_partitions)]
        for index, replica in enumerate(honest_sorted):
            groups[index % num_partitions].append(replica)
        partitions = tuple(frozenset(group) for group in groups if group)
        return PartitionSpec(
            partitions=partitions, bridging=as_replica_set(bridging)
        )

    def describe(self) -> Dict[str, Sequence[int]]:
        """Human-readable summary: partition index -> sorted member list."""
        summary: Dict[str, Sequence[int]] = {
            f"partition-{index}": sorted(partition)
            for index, partition in enumerate(self.partitions)
        }
        summary["bridging"] = sorted(self.bridging)
        return summary
