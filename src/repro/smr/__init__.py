"""State machine replication layer: the base replica, ASMR and membership change."""

from repro.smr.replica import BaseReplica
from repro.smr.pool import CandidatePool
from repro.smr.membership import MembershipChange, MembershipOutcome
from repro.smr.log import DecisionLog, InstanceRecord
from repro.smr.asmr import ASMRReplica

__all__ = [
    "BaseReplica",
    "CandidatePool",
    "MembershipChange",
    "MembershipOutcome",
    "ASMRReplica",
    "DecisionLog",
    "InstanceRecord",
]
