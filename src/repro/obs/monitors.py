"""Online invariant monitors evaluated incrementally during a run.

The paper's safety claims become live assertions instead of post-hoc checks:

* **agreement** — two honest replicas must never decide different sets for
  the same ``(epoch, instance)``; a coalition attack is *expected* to break
  this on the attacked branch, so the expectation is configurable and the
  monitor only trips on disagreement that the scenario did not stage, once
  per instance (the cluster launcher runs it over its workers' commits);
* **validity** — a committed block must contain no invalid and no phantom
  (never-screened) transactions: the commit path's ``AppendReport`` says so;
* **supply conservation** — per replica, ``utxos.total_supply() + deposit``
  can never exceed its genesis baseline: transactions may burn value but not
  mint it, and punish/confiscate/refund only move value between the UTXO set
  and the deposit account (the zero-loss accounting identity of the ledger);
* **zero loss** (finalize) — at the end of an attacked run the realized
  attack gain must be covered by seized deposits and no honest deposit may
  be left short;
* **convergence** (finalize) — at the end of every run the honest replicas
  that are up hold one ledger state
  (:meth:`~repro.ledger.merge.BlockchainRecord.state_digest`): after an
  exclusion and a merge as much as in a fault-free run, the replicas a
  membership change included among them: catch-up ships the chain.

Liveness is apart from these: ``finalize`` lists in ``liveness`` each
instance an honest replica that is up started and has not decided (a stall,
which a later run may still end).

Every deployment owns one :class:`MonitorSet` (``repro.zlb.system.deploy``)
and its replicas call it directly, so every run is checked, traced or not.
A violation is recorded (and logged at WARNING); when a traced run attaches
its flight recorder and that recorder names a dump path, the first violation
triggers a causally-ordered JSONL dump so the message history leading up to
the trip is preserved.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.logging import get_logger

logger = get_logger("repro.obs.monitors")


class InvariantViolation:
    """One recorded invariant trip."""

    __slots__ = ("name", "replica", "at", "detail")

    def __init__(self, name: str, replica: Any, at: Optional[float], detail: Dict[str, Any]):
        self.name = name
        self.replica = replica
        self.at = at
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "replica": self.replica,
            "at": self.at,
            "detail": self.detail,
        }

    def describe(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        at = f"t={self.at:.6f}s" if self.at is not None else "t=?"
        return f"[{self.name}] {at} replica={self.replica}: {rendered}"

    def __repr__(self) -> str:
        return f"InvariantViolation({self.describe()})"


class MonitorSet:
    """All online monitors of one deployment."""

    def __init__(
        self,
        honest: Optional[Iterable[Any]] = None,
        expect_disagreement: bool = False,
        recorder: Optional[Any] = None,
    ):
        #: Honest replica ids; None means "treat every replica as honest".
        self._honest: Optional[Set[Any]] = None if honest is None else set(honest)
        #: True when the scenario deliberately stages a coalition attack, in
        #: which case honest-honest disagreement on the attacked instance is
        #: the *point* and must not be flagged.
        self.expect_disagreement = expect_disagreement
        #: A traced run's flight recorder, dumped to its ``dump_path`` on the
        #: first violation.
        self.recorder = recorder
        self.violations: List[InvariantViolation] = []
        #: The stalls the last :meth:`finalize` found (see the module docstring).
        self.liveness: List[InvariantViolation] = []
        #: Path of the flight-recorder dump written on the first violation.
        self.dump_written: Optional[str] = None
        self._keys: Set[Tuple[Any, ...]] = set()
        #: (epoch, instance) -> (replica, digest) of the first honest
        #: decision: a set of digests disagrees exactly when one differs from
        #: the first, so memory stays one entry per instance whatever n is.
        self._decisions: Dict[Tuple[int, int], Tuple[Any, str]] = {}
        #: replica -> genesis conserved total (supply + deposit).
        self._baselines: Dict[Any, float] = {}

    # -- configuration ------------------------------------------------------------

    def register_ledger(self, replica: Any, conserved_total: float) -> None:
        """Record ``replica``'s genesis conserved total (supply + deposit)."""
        self._baselines[replica] = conserved_total

    # -- bookkeeping ----------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def _is_honest(self, replica: Any) -> bool:
        return self._honest is None or replica in self._honest

    def _trip(
        self,
        name: str,
        replica: Any,
        at: Optional[float],
        key: Optional[Tuple[Any, ...]] = None,
        **detail: Any,
    ) -> None:
        """Record one violation (deduplicated by ``key``) and react."""
        dedupe = (name, replica) if key is None else (name,) + key
        if dedupe in self._keys:
            return
        self._keys.add(dedupe)
        violation = InvariantViolation(name, replica, at, detail)
        self.violations.append(violation)
        logger.warning("invariant violated: %s", violation.describe())
        recorder = self.recorder
        if (
            recorder is not None
            and recorder.dump_path is not None
            and self.dump_written is None
        ):
            self.dump_written = recorder.dump_jsonl(recorder.dump_path)
            logger.warning("flight recorder dumped to %s", self.dump_written)

    # -- agreement -------------------------------------------------------------------

    def on_decision(
        self, replica: Any, epoch: int, instance: int, digest: str, at: float
    ) -> None:
        """An ASMR replica decided ``digest`` for ``(epoch, instance)``."""
        if self.expect_disagreement or not self._is_honest(replica):
            return
        other, other_digest = self._decisions.setdefault(
            (epoch, instance), (replica, digest)
        )
        if other_digest != digest:
            self._trip(
                "agreement",
                replica,
                at,
                key=(epoch, instance),
                epoch=epoch,
                instance=instance,
                other=other,
                digest=digest,
                other_digest=other_digest,
            )

    def on_disagreement(self, replica: Any, instance: int, at: float) -> None:
        """A replica observed a conflicting confirmation (phase ②)."""
        if self.expect_disagreement or not self._is_honest(replica):
            return
        self._trip(
            "agreement",
            replica,
            at,
            key=("confirm", replica, instance),
            instance=instance,
            source="confirmation",
        )

    # -- validity and conservation ----------------------------------------------------

    def on_commit(
        self,
        replica: Any,
        instance: int,
        invalid: int,
        phantom: int,
        conserved_total: float,
        at: float,
    ) -> None:
        """A block was committed; screen its report and the ledger totals."""
        if not self._is_honest(replica):
            return
        if invalid > 0 or phantom > 0:
            self._trip(
                "validity",
                replica,
                at,
                key=(replica, instance),
                instance=instance,
                invalid=invalid,
                phantom=phantom,
            )
        self._check_supply(replica, conserved_total, at, where="commit")

    def on_merge(
        self, replica: Any, instance: int, conserved_total: float, at: float
    ) -> None:
        """A remote branch was merged; re-check the conserved total."""
        if self._is_honest(replica):
            self._check_supply(replica, conserved_total, at, where="merge")

    def on_punish(self, replica: Any, conserved_total: float, at: float) -> None:
        """Deposits were confiscated; seizure moves value, never creates it."""
        if self._is_honest(replica):
            self._check_supply(replica, conserved_total, at, where="punish")

    def _check_supply(
        self, replica: Any, conserved_total: float, at: float, where: str
    ) -> None:
        baseline = self._baselines.get(replica)
        if baseline is None:
            return
        # Burning value (outputs < inputs) is allowed; minting is not.  A
        # strict epsilon-free comparison is right here: amounts are integers
        # end to end in the ledger.
        if conserved_total > baseline:
            self._trip(
                "supply-conservation",
                replica,
                at,
                key=(replica, where),
                where=where,
                conserved_total=conserved_total,
                baseline=baseline,
                minted=conserved_total - baseline,
            )

    # -- zero loss (end of run) ---------------------------------------------------------

    def finalize(
        self,
        realized_gain: float,
        seized_deposit: float,
        deposit_shortfall: float = 0,
        at: Optional[float] = None,
        state_digests: Optional[Dict[Any, str]] = None,
        undecided: Optional[Dict[Any, Iterable[int]]] = None,
    ) -> None:
        """End-of-run zero-loss accounting (the paper's headline claim) and
        convergence: ``state_digests`` maps each replica that is up to its
        ledger's state digest, and two honest ones must not differ.
        ``undecided`` maps each replica that is up to the instances it
        started and has not decided (the ``liveness`` verdict).

        Unlike the other monitors this is not incremental: mid-run a merge can
        transiently refund before the matching punishment lands, and a
        replica can still be filling a gap, so the check only makes sense
        once the run has settled.
        """
        stalled: Dict[int, List[Any]] = {}
        for replica, instances in sorted((undecided or {}).items()):
            if self._is_honest(replica):
                for instance in instances:
                    stalled.setdefault(instance, []).append(replica)
        self.liveness = [
            InvariantViolation("liveness", None, at, {"instance": instance, "replicas": holders})
            for instance, holders in sorted(stalled.items())
        ]
        by_digest: Dict[str, List[Any]] = {}
        for replica, digest in sorted((state_digests or {}).items()):
            if self._is_honest(replica):
                by_digest.setdefault(digest, []).append(replica)
        if len(by_digest) > 1:
            self._trip(
                "convergence",
                None,
                at,
                key=("convergence",),
                replicas_by_state=sorted(by_digest.values()),
            )
        if realized_gain > seized_deposit:
            self._trip(
                "zero-loss",
                None,
                at,
                key=("gain",),
                realized_gain=realized_gain,
                seized_deposit=seized_deposit,
                uncovered=realized_gain - seized_deposit,
            )
        if deposit_shortfall > 0:
            self._trip(
                "zero-loss",
                None,
                at,
                key=("shortfall",),
                deposit_shortfall=deposit_shortfall,
            )
