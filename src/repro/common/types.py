"""Core value types used throughout the ZLB reproduction.

The paper (§2, §3) reasons about a committee of ``n`` replicas identified by
integers, quorum thresholds of ``2n/3`` and recovery thresholds of ``n/3``.
This module centralises those computations so every protocol uses exactly the
same arithmetic (ceilings matter: a quorum is ``ceil(2n/3)`` and the recovery
threshold is ``ceil(n/3)``; both are computed in integers, ``ceil(a/3) ==
(a + 2) // 3``).  Handlers test both on every message and read them off their
host, which re-derives them when its committee changes
(:meth:`repro.consensus.host.ProtocolHost._set_committee`).
"""

from __future__ import annotations

import enum
import math
from typing import FrozenSet, Iterable

# A replica is identified by a small non-negative integer.  Using a plain int
# keeps messages compact and hashable; the PKI (repro.crypto.keys) maps the id
# to a public key.
ReplicaId = int

# An immutable set of replica identifiers, e.g. a committee or a coalition.
ReplicaSet = FrozenSet[ReplicaId]


class FaultKind(enum.Enum):
    """Failure classes of the deceitful failure model (paper §3.2).

    * ``HONEST`` — follows the protocol.
    * ``DECEITFUL`` — sends protocol-violating messages (equivocation) to try
      to create a disagreement; keeps participating otherwise.
    * ``BENIGN`` — commits non-deceitful Byzantine faults (e.g. stays mute or
      sends stale messages); never equivocates.
    """

    HONEST = "honest"
    DECEITFUL = "deceitful"
    BENIGN = "benign"


class Phase(enum.Enum):
    """The five ASMR phases of Figure 2 in the paper."""

    CONSENSUS = "consensus"
    CONFIRMATION = "confirmation"
    EXCLUSION = "exclusion"
    INCLUSION = "inclusion"
    RECONCILIATION = "reconciliation"


def quorum_size(n: int) -> int:
    """Return the certificate/quorum threshold ``ceil(2n/3)`` for ``n`` replicas."""
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    return (2 * n + 2) // 3


def recovery_threshold(n: int) -> int:
    """Return ``ceil(n/3)``, the number of PoFs needed to start a membership change.

    The paper (Alg. 1, line 12) sets ``f_d = ceil(n/3)`` as the default
    threshold of proofs of fraud required before honest replicas trigger the
    exclusion consensus.
    """
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    return (n + 2) // 3


def byzantine_tolerance(n: int) -> int:
    """Return the classic bound: the largest ``f`` with ``f < n/3``."""
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    return (n + 2) // 3 - 1


def deceitful_ratio(deceitful: int, n: int) -> float:
    """Return the deceitful ratio ``delta = d / n`` (paper §3.2)."""
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    if deceitful < 0 or deceitful > n:
        raise ValueError(f"deceitful count {deceitful} outside [0, {n}]")
    return deceitful / n


def max_branches(n: int, deceitful: int, benign: int = 0) -> int:
    """Maximum number of branches a coalition can create (paper §B, citing [57]).

    The bound is ``a <= (n - (f - q)) / (ceil(2n/3) - (f - q))`` where
    ``f - q = d`` is the number of deceitful replicas.  When the denominator is
    not positive the coalition can partition honest replicas arbitrarily; we
    return the number of honest replicas as a conservative cap in that case.
    """
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    d = deceitful
    if d < 0 or benign < 0 or d + benign > n:
        raise ValueError(
            f"invalid fault counts d={deceitful} q={benign} for n={n}"
        )
    denominator = quorum_size(n) - d
    honest = n - d - benign
    if denominator <= 0:
        return max(honest, 1)
    return max(1, math.floor((n - d) / denominator))


def committee(n: int) -> ReplicaSet:
    """Return the initial committee ``{0, ..., n-1}`` as a frozen set."""
    if n <= 0:
        raise ValueError(f"committee size must be positive, got {n}")
    return frozenset(range(n))


def as_replica_set(ids: Iterable[ReplicaId]) -> ReplicaSet:
    """Normalise an iterable of replica ids into a :data:`ReplicaSet`."""
    return frozenset(int(i) for i in ids)
