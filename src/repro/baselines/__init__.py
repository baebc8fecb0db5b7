"""Baseline protocols the paper compares against (§5.1).

* :mod:`repro.baselines.hotstuff` — the leader-based SMR at the heart of
  Facebook Libra: linear communication, one proposal per consensus instance.

Red Belly, the fastest of the compared systems but unable to tolerate
``f >= n/3``, runs the same SBC as ZLB without accountability, so it is not
a module here: it is a ZLB deployment with confirmation off
(``ZLBSystem.create(..., confirmation=False, pool_size=0)``).
"""

from repro.baselines.hotstuff import HotStuffReplica, HotStuffCluster

__all__ = ["HotStuffReplica", "HotStuffCluster"]
