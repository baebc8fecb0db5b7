"""The built-in scenario library.

Registers every experiment of the paper as a declarative scenario family —
``fig3`` .. ``fig6``, ``table1``, ``appendix-b``, ``sec53`` and the
``quickstart`` walkthrough — plus three families the paper does not plot:

* ``churn`` — committee churn under repeated membership changes: consecutive
  attack/recovery rounds, measuring how exclusion/inclusion costs accumulate;
* ``crash-recovery`` — honest replicas crash mid-run (``disconnect``) and come
  back (``reconnect``); the committee must keep committing through the outage;
* ``jitter-stress`` — fault-free committees under the high-jitter and lossy
  delay models, measuring throughput degradation relative to the calm
  ``gamma`` baseline.

Every family follows the same contract: a grid builder expands
``sizes x seeds x attack variants`` for a scale (``small`` keeps cells
laptop-sized, ``full`` matches the paper), and a cell runner turns one
:class:`ScenarioSpec` into a flat JSON-serialisable row.  Rows carry the cell
axes (``n``, ``seed``, ``delay``/``attack`` where relevant) so aggregation
(means over seeds, figure tables) can happen downstream without re-running.
Cells that deploy a committee build it with
:func:`~repro.scenarios.spec.system_for` — the spec is the whole
configuration.

Three measurements that are not sweeps live next to their figure:
:func:`run_measured_comparison` (Fig. 3 on the message-level
implementations: ZLB, Red Belly as ZLB with confirmation off, and HotStuff),
:func:`run_catchup_timing` (Fig. 5, right) and
:func:`build_merge_fixture` / :func:`merge_two_blocks` (Table 1).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.throughput import ThroughputModel, available_protocols
from repro.analysis.zero_loss import (
    attack_success_probability,
    branch_bound,
    minimum_blockdepth,
)
from repro.baselines.hotstuff import HotStuffCluster
from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.consensus.certificates import Certificate, VoteKind, make_vote
from repro.crypto.keys import KeyRegistry
from repro.ledger.block import Block
from repro.ledger.merge import BlockchainRecord
from repro.ledger.workload import conflicting_blocks_workload
from repro.network.delays import AwsRegionDelay
from repro.scenarios.registry import expand_grid, scenario
from repro.scenarios.spec import ScenarioSpec, run_system, system_for
from repro.zlb.system import ZLBSystem

#: Committee sizes of the message-level attack simulations (Fig. 4-6, §5.3):
#: the paper's 20..100 replicas, or laptop-sized committees (pure Python).
ATTACK_SIZES = {"small": (9, 12, 18), "full": (20, 40, 60, 80, 100)}

#: Seeds per configuration (the paper averages 3-5 runs).
SWEEP_SEEDS = {"small": (1,), "full": (1, 2, 3)}

#: Both coalition attacks of §5.2: on the binary consensus and on the
#: reliable broadcast.
ATTACKS = ("binary", "rbbcast")


def _paper_workload(specs: Sequence[ScenarioSpec]) -> List[ScenarioSpec]:
    """Spell out the paper's workload (12 transfers per replica), so each
    cell's spec hash records exactly what it runs."""
    return [
        spec.with_overrides(workload_transactions=12 * spec.n) for spec in specs
    ]


def _attack_grid(
    family: str, scale: str, axes: Dict[str, Sequence[Any]], **base: Any
) -> List[ScenarioSpec]:
    """``axes`` x attack sizes x seeds, in that (major to minor) order; every
    cell deploys ``d = ceil(5n/9) - 1`` deceitful replicas (``q = 0``)."""
    axes = {**axes, "n": ATTACK_SIZES[scale], "seed": SWEEP_SEEDS[scale]}
    return _paper_workload(expand_grid(family, axes, base=base))


def attack_row(spec: ScenarioSpec) -> Dict[str, Any]:
    """Shared cell body of every coalition-attack family."""
    attack = spec.attack_spec()
    if attack is None:
        raise ConfigurationError(
            f"family {spec.family!r} runs a coalition attack; the spec names none"
        )
    result = run_system(spec)
    row = result.to_row()
    row.update(
        {
            "attack": attack.kind,
            "delay": attack.cross_partition_delay,
            "seed": spec.seed,
            "instances": spec.instances,
            "recovered": result.recovered,
        }
    )
    return row


def throughput_row(n: int) -> Dict[str, Any]:
    """The calibrated phase-level model at committee size ``n``: tx/s per protocol."""
    model = ThroughputModel(AwsRegionDelay())
    row: Dict[str, Any] = {"n": n}
    for protocol in available_protocols():
        row[protocol] = round(model.throughput(protocol, n), 1)
    return row


# -- paper families ------------------------------------------------------------


def _fig3_grid(scale: str) -> List[ScenarioSpec]:
    # The paper plots 10..90 replicas; ``small`` keeps five of the nine sizes.
    sizes = range(10, 100, 10) if scale == "full" else (10, 20, 40, 60, 90)
    return expand_grid(
        "fig3", {"n": sizes}, base={"delay": "aws", "seed": 0, "instances": 0}
    )


@scenario(
    "fig3",
    description="Throughput of ZLB vs Polygraph/HotStuff/Red Belly (phase model)",
    grid=_fig3_grid,
    tags=("paper", "model"),
)
def _run_fig3_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    row = throughput_row(spec.n)
    row["zlb_vs_hotstuff"] = round(row["ZLB"] / row["HotStuff"], 2)
    return row


def run_measured_comparison(
    n: int = 7, transactions: int = 120, batch_size: int = 20, seed: int = 1
) -> Dict[str, Dict[str, float]]:
    """Measured comparison of the real message-level implementations at small n.

    Red Belly is the ZLB deployment with confirmation off (and no candidate
    pool): the same SBC, with no proof of fraud and no membership change.
    Absolute tx/s at toy scale do not carry the paper's verification and
    bandwidth costs (those are what the calibrated model captures); the
    structural quantity that transfers is *transactions decided per consensus
    instance*: SBC-style protocols decide up to n proposals per instance while
    HotStuff decides exactly one.
    """

    def measure_sbc(**options: Any) -> Dict[str, float]:
        outcome = ZLBSystem.create(
            FaultConfig(n=n),
            seed=seed,
            delay="aws",
            workload_transactions=transactions,
            batch_size=batch_size,
            **options,
        ).run_instances(2)
        instances = max(
            len(d["decided_instances"]) for d in outcome.per_replica.values()
        )
        return {
            "tx_per_sec": outcome.throughput_tx_per_sec,
            "tx_per_instance": outcome.committed_transactions / max(instances, 1),
        }

    results = {
        "ZLB": measure_sbc(),
        "Red Belly": measure_sbc(confirmation=False, pool_size=0),
    }
    hotstuff = HotStuffCluster(n, delay=AwsRegionDelay(), seed=seed)
    hotstuff.submit_payloads(
        [{"batch": list(range(batch_size))} for _ in range(6)]
    )
    hotstuff.run_views(6)
    simulated = max(hotstuff.simulator.now, 1e-9)
    committed_batches = len(hotstuff.replicas[0].committed_views)
    results["HotStuff"] = {
        "tx_per_sec": committed_batches * batch_size / simulated,
        "tx_per_instance": float(batch_size),
    }
    return results


def _fig4_grid(scale: str) -> List[ScenarioSpec]:
    # One panel per attack, delay-major like the figure.
    return _attack_grid(
        "fig4",
        scale,
        {
            "attack": ATTACKS,
            "cross_partition_delay": ("200ms", "500ms", "1000ms", "gamma", "aws"),
        },
    )


@scenario(
    "fig4",
    description="Disagreeing decisions per committee size under both attacks",
    grid=_fig4_grid,
    tags=("paper", "attack"),
)
def _run_fig4_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    return attack_row(spec)


def _fig5_grid(scale: str) -> List[ScenarioSpec]:
    return _attack_grid(
        "fig5",
        scale,
        {"cross_partition_delay": ("gamma", "aws", "500ms", "1000ms")},
        attack="binary",
    )


@scenario(
    "fig5",
    description="Detect / exclude / include times of the membership change",
    grid=_fig5_grid,
    tags=("paper", "attack"),
)
def _run_fig5_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    return attack_row(spec)


def run_catchup_timing(
    sizes: Sequence[int] = ATTACK_SIZES["small"],
    block_counts: Sequence[int] = (10, 20, 30),
    votes_per_certificate: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Figure 5 (right): wall-clock time to verify a catch-up of N blocks.

    A new replica joining after a membership change must verify one quorum
    certificate per block; the certificate size grows with the committee, which
    is why the catch-up time grows roughly linearly with ``n``.
    """
    rows: List[Dict[str, object]] = []
    for n in sizes:
        keys = KeyRegistry.provision(range(n))

        class _Host:
            def __init__(self, replica_id: int):
                self.replica_id = replica_id

            def sign(self, payload, digest=None):
                return keys.signer_for(self.replica_id).sign(payload, digest)

            def verify(self, payload, signed):
                return keys.registry.verify(payload, signed)

        quorum = votes_per_certificate or (2 * n // 3 + 1)
        hosts = [_Host(i) for i in range(n)]
        verifier = hosts[0]
        for blocks in block_counts:
            # One distinct certificate per block, built outside the timed
            # section: a real catch-up verifies a *different* certificate for
            # every block, so the timing must not collapse into the
            # verified-signature / certificate-validity caches (which would
            # measure dict probes, not signature checks).
            certificates = [
                Certificate.from_votes(
                    make_vote(
                        hosts[i], f"catchup:block:{blocks}:{b}", 0, VoteKind.AUX, "digest"
                    )
                    for i in range(quorum)
                )
                for b in range(blocks)
            ]
            start = time.perf_counter()
            for certificate in certificates:
                certificate.verify(verifier, committee=range(n))
            elapsed = time.perf_counter() - start
            rows.append(
                {"n": n, "blocks": blocks, "catchup_s": round(elapsed, 4)}
            )
    return rows


def _fig6_grid(scale: str) -> List[ScenarioSpec]:
    return _attack_grid(
        "fig6",
        scale,
        {"attack": ATTACKS, "cross_partition_delay": ("500ms", "1000ms")},
        params={"deposit_factor": 0.1},
    )


@scenario(
    "fig6",
    description="Minimum finalization blockdepth for zero loss (D = G/10)",
    grid=_fig6_grid,
    tags=("paper", "attack", "analysis"),
)
def _run_fig6_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Theorem .5 on the measured attack: the success probability of one
    attacked block is estimated from how often the coalition created a
    disagreement, and ``g(a, b, rho, m) >= 0`` gives the minimum blockdepth."""
    row = attack_row(spec)
    rho = attack_success_probability(
        row["disagreement_instances"], spec.instances
    )
    branches = branch_bound(spec.n, spec.fault_config().deceitful)
    row.update(
        {
            "estimated_rho": round(rho, 3),
            "branches": branches,
            "min_blockdepth": minimum_blockdepth(
                a=branches, b=spec.param("deposit_factor", 0.1), rho=rho
            ),
        }
    )
    return row


def _table1_grid(scale: str) -> List[ScenarioSpec]:
    if scale == "full":
        axes = {"blocksize": (100, 1_000, 10_000), "seed": (0, 1, 2)}
    else:
        axes = {"blocksize": (100, 1_000), "seed": (0,)}
    return expand_grid("table1", axes)


@scenario(
    "table1",
    description="Local wall-clock time to merge two fully-conflicting blocks",
    grid=_table1_grid,
    tags=("paper", "local"),
)
def _run_table1_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    blocksize = spec.param("blocksize", 100)
    elapsed = merge_two_blocks(blocksize, seed=spec.seed)
    return {
        "blocksize_txs": blocksize,
        "seed": spec.seed,
        "merge_time_ms": round(elapsed * 1000, 3),
    }


def build_merge_fixture(num_transactions: int, seed: int = 0):
    """Prepare a record that applied branch A and the conflicting branch-B block."""
    branch_a, branch_b, allocations = conflicting_blocks_workload(
        num_transactions, seed=seed
    )
    record = BlockchainRecord(
        genesis_allocations=allocations,
        initial_deposit=100 * num_transactions,
    )
    record.append_block(branch_a)
    conflicting_block = Block(
        index=1, parent_hash="other-branch", transactions=tuple(branch_b)
    )
    return record, conflicting_block


def merge_two_blocks(num_transactions: int, seed: int = 0) -> float:
    """Return the wall-clock seconds to merge one fully-conflicting block."""
    record, conflicting_block = build_merge_fixture(num_transactions, seed=seed)
    start = time.perf_counter()
    outcome = record.merge_block(conflicting_block)
    elapsed = time.perf_counter() - start
    assert outcome.merged_transactions == num_transactions
    return elapsed


def _appendix_b_grid(scale: str) -> List[ScenarioSpec]:
    cases = (
        {"delta": 0.5, "rho": 0.55},
        {"delta": 0.5, "rho": 0.9},
        {"delta": 0.6, "rho": 0.9},
        {"delta": 0.64, "rho": 0.9},
        {"delta": 0.66, "rho": 0.9},
    )
    return [
        ScenarioSpec(
            family="appendix-b",
            # n = 900 keeps delta * n integral for every ratio the appendix
            # uses, so the branch bound is evaluated exactly where the paper
            # evaluates it.
            n=900,
            params={"delta": case["delta"], "rho": case["rho"], "deposit_factor": 0.1},
            seed=0,
        )
        for case in cases
    ]


@scenario(
    "appendix-b",
    description="Appendix B closed-form (delta, rho) -> minimum blockdepth table",
    grid=_appendix_b_grid,
    tags=("paper", "theory"),
)
def _run_appendix_b_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    delta = spec.param("delta")
    rho = spec.param("rho")
    deceitful = int(round(delta * spec.n))
    branches = branch_bound(spec.n, deceitful)
    return {
        "delta": delta,
        "rho": rho,
        "branches": branches,
        "min_blockdepth": minimum_blockdepth(
            a=branches, b=spec.param("deposit_factor", 0.1), rho=rho
        ),
    }


def _sec53_grid(scale: str) -> List[ScenarioSpec]:
    # The network "collapses for a few seconds between regions": disagreements
    # pile up across consecutive instances before the membership change ends.
    return _attack_grid(
        "sec53",
        scale,
        {"attack": ATTACKS, "cross_partition_delay": ("5000ms", "10000ms")},
        instances=3,
        max_time=600.0,
    )


@scenario(
    "sec53",
    description="Disagreements under catastrophic 5-10 s partition delays",
    grid=_sec53_grid,
    tags=("paper", "attack"),
)
def _run_sec53_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    return attack_row(spec)


def _quickstart_grid(scale: str) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            family="quickstart",
            n=7,
            delay="aws",
            workload_transactions=200,
            batch_size=25,
            instances=3,
            seed=42,
            max_time=120.0,
        )
    ]


@scenario(
    "quickstart",
    description="Fault-free 7-replica committee committing client payments",
    grid=_quickstart_grid,
    tags=("example",),
)
def _run_quickstart_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    row = run_system(spec).to_row()
    row.update({"seed": spec.seed, "delay": spec.delay})
    return row


# -- non-paper families --------------------------------------------------------


def _churn_grid(scale: str) -> List[ScenarioSpec]:
    if scale == "full":
        axes = {"n": (20, 40), "rounds": (3, 5), "seed": (1, 2, 3)}
    else:
        axes = {"n": (9,), "rounds": (2, 3), "seed": (1,)}
    return _paper_workload(
        expand_grid(
            "churn",
            axes,
            base={"attack": "binary", "cross_partition_delay": "1000ms"},
        )
    )


@scenario(
    "churn",
    description="Committee churn: repeated attack -> membership-change rounds",
    grid=_churn_grid,
    tags=("extra", "attack", "membership"),
)
def _run_churn_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Back-to-back recovery rounds on successive committees.

    Each round deploys the paper's coalition on a fresh committee (the
    post-recovery committee of round ``k`` seeds round ``k+1`` via the seed
    offset) and runs until the membership change completes, accumulating how
    churn costs — excluded/included replicas, exclusion and inclusion
    durations — behave when membership changes happen repeatedly rather than
    once.
    """
    rounds = int(spec.param("rounds", 2))
    recovered_rounds = 0
    total_excluded = 0
    total_included = 0
    exclusion_times: List[float] = []
    inclusion_times: List[float] = []
    disagreements = 0
    committed = 0
    simulated = 0.0
    for round_index in range(rounds):
        result = run_system(
            spec.with_overrides(seed=spec.seed + 1_000 * round_index)
        )
        recovered_rounds += int(result.recovered)
        total_excluded += len(result.excluded)
        total_included += len(result.included)
        if result.exclusion_time is not None:
            exclusion_times.append(result.exclusion_time)
        if result.inclusion_time is not None:
            inclusion_times.append(result.inclusion_time)
        disagreements += result.disagreements
        committed += result.committed_transactions
        simulated += result.simulated_time
    return {
        "n": spec.n,
        "seed": spec.seed,
        "rounds": rounds,
        "recovered_rounds": recovered_rounds,
        "excluded_total": total_excluded,
        "included_total": total_included,
        "mean_exclusion_s": (
            round(sum(exclusion_times) / len(exclusion_times), 3)
            if exclusion_times
            else None
        ),
        "mean_inclusion_s": (
            round(sum(inclusion_times) / len(inclusion_times), 3)
            if inclusion_times
            else None
        ),
        "disagreements_total": disagreements,
        "committed_transactions": committed,
        "simulated_time_s": round(simulated, 3),
    }


def _crash_recovery_grid(scale: str) -> List[ScenarioSpec]:
    if scale == "full":
        axes = {"n": (10, 20), "crashes": (1, 3), "seed": (1, 2, 3)}
    else:
        axes = {"n": (7, 10), "crashes": (1, 2), "seed": (1,)}
    return expand_grid(
        "crash-recovery",
        axes,
        base={
            "delay": "aws",
            "workload_transactions": 120,
            "batch_size": 20,
            "instances": 2,
            "max_time": 120.0,
        },
    )


@scenario(
    "crash-recovery",
    description="Honest replicas crash mid-run and reconnect; liveness holds",
    grid=_crash_recovery_grid,
    tags=("extra", "faults"),
)
def _run_crash_recovery_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Three phases: healthy -> ``crashes`` replicas disconnected -> rejoined.

    Crashed replicas keep their deposits and state but drop every message
    (the simulator's ``disconnect``); as long as ``crashes < n/3`` the
    remaining quorum keeps deciding, and after ``reconnect`` the stragglers
    rejoin the message flow.  The row records committed transactions after
    each phase so throughput through the outage is visible.
    """
    crashes = int(spec.param("crashes", 1))
    phase_instances = spec.instances
    system = system_for(spec)
    healthy = system.run_instances(phase_instances, until=spec.max_time)
    committee = sorted(
        replica_id
        for replica_id, replica in system.replicas.items()
        if not replica.standby
    )
    crashed = committee[-crashes:]
    for replica_id in crashed:
        system.simulator.disconnect(replica_id)
    # Fresh client traffic per phase: transfers routed to a crashed replica's
    # mempool stall until it reconnects, so phase deltas show the outage cost.
    system.submit_workload(spec.workload_transactions)
    outage = system.run_instances(phase_instances, until=spec.max_time)
    for replica_id in crashed:
        system.simulator.reconnect(replica_id)
    system.submit_workload(spec.workload_transactions)
    final = system.run_instances(phase_instances, until=spec.max_time)

    row = final.to_row()
    # run_instances reports cumulative commits; per-phase deltas are what a
    # reader of "committed during the outage" expects.
    committed_outage = outage.committed_transactions - healthy.committed_transactions
    row.update(
        {
            "seed": spec.seed,
            "crashes": crashes,
            "crashed_replicas": list(crashed),
            "committed_healthy": healthy.committed_transactions,
            "committed_during_outage": committed_outage,
            "committed_after_reconnect": (
                final.committed_transactions - outage.committed_transactions
            ),
            "progress_during_outage": committed_outage > 0,
        }
    )
    return row


def _jitter_stress_grid(scale: str) -> List[ScenarioSpec]:
    if scale == "full":
        axes = {"delay": ("gamma", "jitter", "lossy"), "n": (10, 20, 40), "seed": (1, 2, 3)}
    else:
        axes = {"delay": ("gamma", "jitter", "lossy"), "n": (7,), "seed": (1,)}
    return expand_grid(
        "jitter-stress",
        axes,
        base={
            "workload_transactions": 120,
            "batch_size": 20,
            "instances": 3,
            "max_time": 300.0,
        },
    )


@scenario(
    "jitter-stress",
    description="Fault-free throughput under high-jitter and lossy networks",
    grid=_jitter_stress_grid,
    tags=("extra", "network"),
)
def _run_jitter_stress_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """One fault-free run under a hostile delay model.

    ``gamma`` cells provide the calm baseline; ``jitter`` cells inject
    multi-hundred-ms spikes on a fifth of the links and ``lossy`` cells drop
    5% of all messages outright.  Quorum-based protocols should keep deciding
    in all three, at degraded throughput.
    """
    start = time.perf_counter()
    system = system_for(spec)
    result = system.run_instances(spec.instances, until=spec.max_time)
    row = result.to_row()
    row.update(
        {
            "seed": spec.seed,
            "delay": spec.delay,
            "wall_clock_s": round(time.perf_counter() - start, 3),
            # Lost messages are modelled as never-arriving events, so after the
            # run they are exactly the ones still queued past the horizon.
            "undelivered_messages": system.simulator.pending_events(),
        }
    )
    return row
