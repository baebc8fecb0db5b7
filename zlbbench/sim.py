"""The two simulator workloads: one cell, rebuilt and re-run back to back.

``sim-attack-n18`` is the Figure 4 reliable-broadcast attack cell that
:func:`repro.experiments.fig4_disagreements.run_attack_cell` runs (d = 9
deceitful of 18 double-spending real coins across a 1000 ms partition),
built through the same public ``ZLBSystem.create`` call with the same
arguments so that set-up and run are timed apart and the replicas stay
reachable for the per-transaction commit times.  ``sim-benign-n20`` is a
fault-free n=20 committee over the AWS delay model: the same kernel, router,
reliable broadcast and binary consensus with none of the attack paths.

Everything in simulated time is deterministic per seed, so repetitions of one
run must agree exactly on their event counts and simulated results — and on
the number of functions they call, which is what a bare run reports; only the
host's wall and CPU time differ between them.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import time
from typing import Any, Callable, Dict, List, Optional

from repro.common.config import FaultConfig
from repro.common.types import FaultKind
from repro.zlb.system import AttackSpec, SystemResult, ZLBSystem

from zlbbench import stats
from zlbbench.trace import Tracer


def _create_attack(seed: int) -> ZLBSystem:
    n = 18
    return ZLBSystem.create(
        FaultConfig.paper_attack(n),
        seed=seed,
        delay="aws",
        attack=AttackSpec(kind="rbbcast", cross_partition_delay="1000ms"),
        workload_transactions=12 * n,
        batch_size=10,
        max_time=300.0,
    )


def _create_benign(seed: int) -> ZLBSystem:
    return ZLBSystem.create(
        FaultConfig(n=20),
        seed=seed,
        delay="aws",
        workload_transactions=240,
        batch_size=10,
    )


#: ``ZLBSystem.create`` calls a bare run times besides the counted cell's own.
#: A set-up takes a fifth of a second, so its median needs more than three.
EXTRA_SETUPS = 6


@dataclasses.dataclass(frozen=True)
class Cell:
    create: Callable[[int], ZLBSystem]
    instances: int
    until: Optional[float]
    attack: bool


CELLS: Dict[str, Cell] = {
    # One instance: the attack, its detection, the exclusion of the nine
    # culprits, the inclusion of nine candidates and the merges all happen in
    # it, and its amount of work barely depends on the seed (deliveries vary
    # by under 1 %).  A second instance runs on the recovered committee, where
    # the seed decides how many binary-consensus rounds are needed and the
    # work varies by 30 %.
    "sim-attack-n18": Cell(_create_attack, instances=1, until=300.0, attack=True),
    "sim-benign-n20": Cell(_create_benign, instances=2, until=None, attack=False),
}


@dataclasses.dataclass
class Repetition:
    """One build-and-run of the cell."""

    setup_s: float
    wall_s: float
    cpu_s: float
    traced: bool
    rss_after_mb: float
    #: Counts and simulated results that must repeat exactly for one seed.
    fingerprint: Dict[str, Any]
    #: Simulated ms from submission (t = 0) to commit, one sample per
    #: committed transfer per honest replica, ascending.
    ttc_ms: List[float]
    committed: int
    #: Simulated ms from start to decision per instance at the lowest honest
    #: replica, its mean block size, and decisions summed over every replica.
    instance_ms: List[float]
    tx_per_block: float
    instances_decided: int
    problems: List[str]
    #: Interpreter-level calls of ``run_instances`` (counted repetitions only).
    calls: int = 0


def run_once(
    cell: Cell, seed: int, tracer: Optional[Tracer] = None, count_calls: bool = False
) -> Repetition:
    """Build the cell (timed as set-up), run it (timed as the cell), check it.

    With ``count_calls`` the run goes under ``cProfile`` and the number of
    Python and builtin functions it called is kept (the profiler's timings
    are not): the cell is deterministic, so the count is exact, whatever the
    host's co-tenants do to its wall time.
    """
    # The previous repetition is not this one's cost: collect its garbage and
    # take what it left alive (the attack cell's memoised bodies, 22 MB a
    # cell) out of the collector's sight, or every repetition would be slower
    # than the one before.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    system = cell.create(seed)
    setup_s = time.perf_counter() - started
    profile = cProfile.Profile() if count_calls else None
    if tracer is not None:
        tracer.install()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        if profile is not None:
            profile.enable()
        result = system.run_instances(cell.instances, until=cell.until)
        if profile is not None:
            profile.disable()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Repetition(
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        traced=tracer is not None,
        rss_after_mb=stats.peak_rss_mb(),
        fingerprint=_fingerprint(system, result),
        ttc_ms=_commit_times_ms(system),
        committed=result.committed_transactions,
        problems=_check(cell, result),
        calls=(
            sum(entry.callcount for entry in profile.getstats()) if profile is not None else 0
        ),
        **_instance_view(system),
    )


def _fingerprint(system: ZLBSystem, result: SystemResult) -> Dict[str, Any]:
    return {
        "events": system.simulator.events_processed,
        "messages_sent": result.messages_sent,
        "messages_delivered": result.messages_delivered,
        "simulated_time": result.simulated_time,
        "committed_transactions": result.committed_transactions,
        "disagreements": result.disagreements,
        "detect_sim_s": result.detect_time or 0.0,
        "exclusion_sim_s": result.exclusion_time or 0.0,
        "inclusion_sim_s": result.inclusion_time or 0.0,
        "realized_gain": result.realized_gain,
        "seized_deposit": result.seized_deposit,
        "sim_commit_tx_per_sim_s": result.throughput_tx_per_sec,
    }


def _commit_times_ms(system: ZLBSystem) -> List[float]:
    samples: List[float] = []
    for replica in system.replicas.values():
        if replica.standby or replica.fault is not FaultKind.HONEST:
            continue
        blocks = replica.blockchain.blocks_by_instance
        for instance, record in replica.instances.items():
            block = blocks.get(instance)
            if block is not None and record.decided_at is not None:
                samples.extend([1e3 * record.decided_at] * len(block.transactions))
    samples.sort()
    return samples


def _instance_view(system: ZLBSystem) -> Dict[str, Any]:
    observer = min(system.honest_replicas(), key=lambda replica: replica.replica_id)
    decided = [r for r in observer.instances.values() if r.decided_at is not None]
    blocks = observer.blockchain.blocks_by_instance.values()
    return {
        "instance_ms": sorted(1e3 * (r.decided_at - r.started_at) for r in decided),
        "tx_per_block": (
            sum(len(block.transactions) for block in blocks) / max(1, len(blocks))
        ),
        "instances_decided": sum(
            len(replica.decided_instances()) for replica in system.replicas.values()
        ),
    }


def _check(cell: Cell, result: SystemResult) -> List[str]:
    problems = []
    if result.committed_transactions <= 0:
        problems.append("no transfer committed")
    if result.deposit_shortfall != 0:
        problems.append(f"deposit shortfall {result.deposit_shortfall}")
    if result.realized_gain > result.seized_deposit:
        problems.append(
            f"coalition gained {result.realized_gain}, only {result.seized_deposit} seized"
        )
    if cell.attack:
        if not result.disagreements:
            problems.append("the attack caused no disagreement")
        if not result.recovered:
            problems.append("the committee did not recover from the attack")
    elif result.disagreements:
        problems.append(f"{result.disagreements} disagreements without an attack")
    return problems


@dataclasses.dataclass
class SimRun:
    workload: str
    #: The discarded first repetition (imports, cold caches), the bare ones,
    #: then the counted one (bare run) or the traced one (traced run).
    repetitions: List[Repetition]
    #: ``ZLBSystem.create`` timings after the first, which pays the imports.
    setups_s: List[float]
    #: Peak RSS once the second repetition ended: the attack cell's memoised
    #: bodies stay alive between cells, so the peak of a whole run would grow
    #: with how many repetitions it makes.
    peak_rss_mb: float

    @property
    def bare(self) -> List[Repetition]:
        return [rep for rep in self.repetitions[1:] if not rep.traced and not rep.calls]

    def _changed(self, rep: Repetition) -> List[str]:
        """What ``rep`` counted or simulated differently from the first repetition."""
        reference = self.repetitions[0].fingerprint
        return sorted(key for key in reference if rep.fingerprint[key] != reference[key])

    @property
    def problems(self) -> List[str]:
        found = [p for rep in self.repetitions for p in rep.problems]
        for index, rep in enumerate(self.repetitions):
            if self._changed(rep):
                found.append(
                    f"repetition {index} differs from the first in {self._changed(rep)}"
                )
        return found

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.repetitions if rep.problems or self._changed(rep))


def run_sim(workload: str, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> SimRun:
    """Bare run: the cell twice, the second time counting calls — the count is
    exact, so repeating it for ``seconds`` would measure nothing more — plus
    :data:`EXTRA_SETUPS` more set-ups for the median.  Traced run: the cell
    bare for a third of ``seconds`` (at least once), then once under the span
    recorder.
    """
    cell = CELLS[workload]
    repetitions = [run_once(cell, seed)]
    if tracer is None:
        repetitions.append(run_once(cell, seed, count_calls=True))
        peak_rss_mb = repetitions[-1].rss_after_mb
        setups_s = [repetitions[-1].setup_s]
        for _ in range(EXTRA_SETUPS):
            started = time.perf_counter()
            cell.create(seed)
            setups_s.append(time.perf_counter() - started)
    else:
        deadline = time.perf_counter() + seconds / 3
        repetitions.append(run_once(cell, seed))
        peak_rss_mb = repetitions[-1].rss_after_mb
        while time.perf_counter() + repetitions[-1].wall_s < deadline:
            repetitions.append(run_once(cell, seed))
        repetitions.append(run_once(cell, seed, tracer))
        setups_s = [rep.setup_s for rep in repetitions[1:]]
    gc.unfreeze()
    return SimRun(
        workload=workload, repetitions=repetitions, setups_s=setups_s, peak_rss_mb=peak_rss_mb
    )


def end_to_end(run: SimRun) -> Dict[str, float]:
    """The end-to-end metrics of a bare run."""
    counted = run.repetitions[-1]
    return {
        "setup_s": stats.quartiles(run.setups_s)[1],
        "kcalls_per_tx": counted.calls / 1e3 / counted.committed,
        "msgs_per_tx": counted.fingerprint["messages_sent"] / counted.committed,
        "peak_rss_mb": run.peak_rss_mb,
    }


def wall_clock(run: SimRun) -> Dict[str, float]:
    """Committed tx per second of host time; time-to-commit in simulated ms."""
    reference = run.bare[0]
    wall = stats.quartiles([rep.wall_s for rep in run.bare])[1]
    return {
        "commit_tx_per_s": reference.committed / wall,
        "ttc_p50_ms": stats.percentile(reference.ttc_ms, 0.50),
        "ttc_p99_ms": stats.percentile(reference.ttc_ms, 0.99),
    }


def per_layer(run: SimRun, tracer: Tracer) -> Dict[str, float]:
    """Counters from the bare repetition, spans from the traced one."""
    bare, traced = run.bare[-1], run.repetitions[-1]
    found = bare.fingerprint
    durations = bare.instance_ms or [0.0]
    values = tracer.layer_metrics(1e9 * traced.cpu_s, bare.instances_decided)
    values.update(
        {
            **{"e2e." + name: value for name, value in wall_clock(run).items()},
            "simulator.events_per_s": found["events"] / bare.wall_s,
            "transport.msgs_per_tx": found["messages_sent"] / max(1, bare.committed),
            "transport.bytes_per_tx": 0.0,
            "transport.dropped": 0.0,
            "smr.instance_p50_ms": stats.percentile(durations, 0.50),
            "smr.instance_p99_ms": stats.percentile(durations, 0.99),
            "smr.tx_per_block": bare.tx_per_block,
            "smr.inter_instance_gap_ms": 0.0,
            "smr.detect_sim_s": found["detect_sim_s"],
            "smr.exclusion_sim_s": found["exclusion_sim_s"],
            "smr.inclusion_sim_s": found["inclusion_sim_s"],
            "smr.recovery_sim_s": (
                found["detect_sim_s"] + found["exclusion_sim_s"] + found["inclusion_sim_s"]
            ),
            "smr.sim_commit_tx_per_sim_s": found["sim_commit_tx_per_sim_s"],
            "cluster.build_node_s": 0.0,
            "cluster.connect_s": 0.0,
            "trace.overhead_ratio": traced.cpu_s / bare.cpu_s,
            "trace.attributed_share": tracer.total_self_ns() / 1e9 / traced.wall_s,
            "driver.idle_share": 0.0,
            "driver.gen_late_p99_ms": 0.0,
            "driver.loop_lag_p99_ms": 0.0,
        }
    )
    return values


def details(run: SimRun) -> Dict[str, Any]:
    """What a result file records about the run besides its metrics."""
    reference = run.repetitions[-1]
    record: Dict[str, Any] = {
        "loop": "closed",
        "repetitions": len(run.repetitions),
        "window_s": reference.wall_s,
        "setup_s": stats.summarize(run.setups_s),
        "ttc_clock": "simulated",
        "ttc_samples": len(reference.ttc_ms),
        "rss_mb_after_each_repetition": [rep.rss_after_mb for rep in run.repetitions],
        "fingerprint": reference.fingerprint,
        "offered": len(run.repetitions),
        "failed": run.failed,
        "problems": run.problems,
    }
    if reference.calls:
        record["counted"] = {
            "calls": reference.calls,
            "messages": reference.fingerprint["messages_sent"],
            "transfers": reference.committed,
        }
    else:
        record["cell_wall_s"] = stats.summarize([rep.wall_s for rep in run.bare])
    return record
