"""Memos that age with the instances they serve.

Signature checks, vote-statement digests, certificate validity and the vote
groups of a CONFIRM are each computed once and looked up many times, and every
entry belongs to one consensus instance: its context, its votes, its
certificates.  Once the replicas retire an instance (:mod:`repro.smr.asmr`)
nothing looks those entries up again, so a memo that kept them would grow by
one instance's worth per block for as long as the process lives.

An :class:`AgedMemo` keeps two generations.  The dict itself is the current
one, so a hit is a plain dict probe (``memo[key]``) with no Python frame;
``previous`` is the one before.  A miss in the current generation that hits
the previous one moves the entry back (``__missing__``), so whatever a live
instance still reads survives every shift.  A shift drops the previous
generation and starts a new current one.  It happens when the retirement
horizon the replicas report (:meth:`AgedMemo.retire`) has moved the
finalization blockdepth past the last shift, so an entry nobody reads outlives
its instance by one to two depths.  A generation that reaches ``cap`` entries
also shifts: that bounds what hostile input can make a process keep.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable


class AgedMemo(dict):
    """A two-generation memo; see the module docstring.

    Read with ``memo[key]`` inside ``try`` / ``except KeyError`` (``get``
    skips the previous generation); after a miss, compute the value and
    assign it with ``memo[key] = value``.  The miss is where the cap is
    checked, so that store costs no frame either.
    """

    __slots__ = ("previous", "cap", "_shifted_at")

    def __init__(self, cap: int):
        super().__init__()
        self.previous: Dict[Hashable, Any] = {}
        self.cap = cap
        #: The retirement horizon of the last shift.
        self._shifted_at = 0

    def __missing__(self, key: Hashable) -> Any:
        previous = self.previous
        if key in previous:
            value = self[key] = previous[key]
            del previous[key]
            return value
        if len(self) >= self.cap:
            self.shift()
        raise KeyError(key)

    def shift(self) -> None:
        """Drop the previous generation; the current one becomes it."""
        self.previous = self.copy()
        dict.clear(self)

    def retire(self, horizon: int, depth: int) -> None:
        """Every instance up to ``horizon`` is retired or may be: shift once
        the horizon is ``depth`` past the last shift.

        The replicas of one deployment report horizons within a few instances
        of each other, so one far below the last shift means the numbering
        restarted (a new deployment in the same process): count from there.
        """
        if horizon >= self._shifted_at + depth:
            self.shift()
            self._shifted_at = horizon
        elif horizon + 2 * depth < self._shifted_at:
            self._shifted_at = horizon

    def reset(self) -> None:
        """Forget both generations."""
        dict.clear(self)
        self.previous = {}
        self._shifted_at = 0
