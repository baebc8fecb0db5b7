"""The two real-cluster workloads: an n=4 committee in one process.

Four :class:`~repro.network.asyncio_transport.AsyncioTransport` instances over
UNIX-domain sockets share one event loop, as
``tests/cluster/test_cluster.py::TestInProcessCluster`` runs them: real
sockets, real codec frames and real wall-clock timers, without four processes
competing for the two cores of the host this benchmark is sized for.

* ``cluster4-saturate`` is a **closed loop**: every replica's mempool is kept
  topped up to two batches and instances are requested up front, so the
  replicas — not the driver — decide when instance k+1 starts, and every
  block carries 4 × 50 transfers.
* ``cluster4-paced`` cuts blocks of about six transfers.  Timed, it is an
  **open loop** at a fixed rate: transfer *i* is due at ``start + i / rate``
  at replica ``i % 4`` and its time-to-commit runs from that due time, so a
  stall is charged to every transfer it delays.

Each workload runs in two ways.  :func:`run_counted` (the bare run) commits
blocks under ``cProfile`` and keeps how many functions were called, not how
long they took: on the shared host this is sized for, identical work takes
1.3 s or 2.2 s depending on the co-tenants of the minute, but it makes the
same calls, so calls per transfer is the cost figure that repeats.
:func:`run_timed` (the traced run) measures a stretch by the wall clock and
then the same stretch again under the span recorder of :mod:`zlbbench.trace`.
"""

from __future__ import annotations

import asyncio
import cProfile
import dataclasses
import gc
import math
import os
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.fixture import ClusterNode, ClusterSpec, build_node, endpoints_for
from repro.network.asyncio_transport import AsyncioTransport

from zlbbench import stats
from zlbbench.trace import Tracer

COMMITTEE = 4
BATCH_SIZE = 50
#: Leaves the measurement with caches filled and lazy imports done.
WARMUP_S = 3.0
#: How long after the measurement a submitted transfer may still commit.
DRAIN_S = 5.0
SUBWINDOWS = 5
#: Open-loop arrival rate of ``cluster4-paced``; about a quarter of what the
#: committee sustains, so the event loop idles between instances.
PACED_RATE = 60.0
#: Transfers a block of ``cluster4-paced`` carries when the driver steps the
#: blocks itself: what the 100 ms block interval gives at 60 tx/s.
PACED_BLOCK_TXS = 6
#: Transfers generated per second of a timed closed loop.  Its measurement
#: ends early if the committee outruns them (200 to 270 tx/s on the reference
#: host, depending on its co-tenants).
SATURATE_SUPPLY_RATE = 260.0
#: Blocks a counted run commits per second of ``--seconds``, after
#: :data:`WARMUP_BLOCKS` uncounted ones.  The work is fixed, not the time: on
#: the reference host it takes about the seconds asked for (a counted block
#: of 200 transfers takes 2.5 s, one of 6 takes 0.25 s), and the same work
#: every time makes the counts and the peak RSS repeat.
COUNTED_BLOCKS_PER_S = {"cluster4-saturate": 0.4, "cluster4-paced": 4.0}
WARMUP_BLOCKS = {"cluster4-saturate": 3, "cluster4-paced": 30}
#: Transfers per replica the closed loop keeps back for after the
#: measurement: two batches in the mempool and a block to end on a boundary.
SATURATE_RESERVE = 3 * BATCH_SIZE
#: How often the paced driver looks for an idle committee with work waiting.
PUMP_INTERVAL_S = 0.002
#: Least time between two instance starts of the paced open loop.  Without it
#: an instance starts the moment the previous one ends, the loop is busy all
#: the time whatever the rate, and time-to-commit swings with every percent
#: of host speed; with it the committee cuts about ten blocks of six
#: transfers a second and the loop idles about half the time.
BLOCK_INTERVAL_S = 0.1
#: Instances requested up front in the closed loop; never reached.
MANY_INSTANCES = 1_000_000
#: Where the UNIX sockets live: a relative path keeps ``sun_path`` short no
#: matter how deep the checkout is, and keeps every write inside it.
SOCKET_ROOT = ".zlbbench_tmp"

_socket_dirs = 0


def new_socket_dir() -> str:
    """A fresh directory name under :data:`SOCKET_ROOT` (not yet created)."""
    global _socket_dirs
    _socket_dirs += 1
    return os.path.join(SOCKET_ROOT, f"{os.getpid()}-{_socket_dirs}")


def remove_socket_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SOCKET_ROOT)
    except OSError:
        pass  # another committee of this or a concurrent run still uses it


@dataclasses.dataclass
class Committee:
    """A connected in-process committee and what building it cost."""

    spec: ClusterSpec
    nodes: List[ClusterNode]
    transports: List[AsyncioTransport]
    build_node_s: float
    connect_s: float

    @property
    def setup_s(self) -> float:
        return self.build_node_s + self.connect_s

    async def close(self) -> None:
        for transport in self.transports:
            await transport.close()
        remove_socket_dir(self.spec.socket_dir)


def counted_blocks(workload: str, seconds: float) -> int:
    return max(2, round(COUNTED_BLOCKS_PER_S[workload] * seconds))


def spec_for(workload: str, seed: int, seconds: float, counted: bool) -> ClusterSpec:
    """Size the fixture for one run: enough transfers and the UTXOs to fund them."""
    saturate = workload == "cluster4-saturate"
    if counted:
        blocks = WARMUP_BLOCKS[workload] + counted_blocks(workload, seconds)
        transactions = blocks * (COMMITTEE * BATCH_SIZE if saturate else PACED_BLOCK_TXS)
    else:
        rate = SATURATE_SUPPLY_RATE if saturate else PACED_RATE
        transactions = math.ceil(rate * (WARMUP_S + seconds)) + COMMITTEE
    if saturate:
        transactions += COMMITTEE * SATURATE_RESERVE
    return ClusterSpec(
        n=COMMITTEE,
        transport="uds",
        transactions=transactions,
        batch_size=BATCH_SIZE,
        # Each account is funded with 128 UTXOs, one per transfer; a quarter
        # more than needed keeps the generator from running accounts dry
        # without paying for a genesis twice the size at every set-up.
        accounts=max(16, math.ceil(1.25 * transactions / 128)),
        seed=seed,
        socket_dir=new_socket_dir(),
    )


async def build_committee(spec: ClusterSpec) -> Committee:
    """Fixture + genesis + workload build, listen, and the n² connect."""
    os.makedirs(spec.socket_dir, exist_ok=True)
    started = time.perf_counter()
    nodes = [build_node(spec, replica_id) for replica_id in spec.committee]
    built = time.perf_counter()
    transports: List[AsyncioTransport] = []
    try:
        endpoints = endpoints_for(spec)
        for node in nodes:
            transport = AsyncioTransport(node.replica.replica_id, endpoints)
            transport.add_process(node.replica)
            await transport.start()
            transports.append(transport)
        for transport in transports:
            await transport.connect(timeout=10)
    except BaseException:
        for transport in transports:
            await transport.close()
        remove_socket_dir(spec.socket_dir)
        raise
    return Committee(
        spec=spec,
        nodes=nodes,
        transports=transports,
        build_node_s=built - started,
        connect_s=time.perf_counter() - built,
    )


class _Tap:
    """What the driver records at one replica through its commit callback."""

    def __init__(self, node: ClusterNode, loop: asyncio.AbstractEventLoop):
        self.node = node
        self.replica = node.replica
        self.loop = loop
        #: ``(loop time, instance, transactions)`` per commit.
        self.commits: List[Tuple[float, int, int]] = []
        #: Own transfers awaiting their commit: tx id -> due time.
        self.pending: Dict[str, float] = {}
        #: ``(due time, commit time)`` of own transfers.
        self.committed: List[Tuple[float, float]] = []
        self.cursor = 0
        self.decided = 0
        self.after_commit: Optional[Callable[["_Tap"], None]] = None
        self._inner = self.replica.on_commit
        # The commit callback is a public constructor argument of the replica
        # (``cluster/worker.py`` hooks it the same way).
        self.replica.on_commit = self._on_commit

    def _on_commit(self, instance: int, decision: Any) -> None:
        self._inner(instance, decision)
        now = self.loop.time()
        self.decided += 1
        block = self.replica.blockchain.blocks_by_instance[instance]
        pending = self.pending
        for transaction in block.transactions:
            due = pending.pop(transaction.tx_id, None)
            if due is not None:
                self.committed.append((due, now))
        self.commits.append((now, instance, len(block.transactions)))
        if self.after_commit is not None:
            self.after_commit(self)

    def submit(self, count: int, due: Optional[float] = None) -> int:
        """Hand the next ``count`` transfers of this replica's share to it."""
        share = self.node.share
        batch = share[self.cursor : self.cursor + count]
        if not batch:
            return 0
        self.cursor += len(batch)
        stamp = self.loop.time() if due is None else due
        for transaction in batch:
            self.pending[transaction.tx_id] = stamp
        self.replica.submit_transactions(batch)
        return len(batch)

    @property
    def unsubmitted(self) -> int:
        return len(self.node.share) - self.cursor

    @property
    def idle(self) -> bool:
        return self.decided >= self.replica.target_instances


@dataclasses.dataclass
class Segment:
    """One measured stretch of a run: loop-time bounds plus CPU bounds."""

    start: float
    end: float
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start


@dataclasses.dataclass
class ClusterRun:
    """Everything one cluster run observed; metrics are derived from it."""

    workload: str
    committee: Committee
    taps: List[_Tap]
    #: The measured stretches: one for a counted run, bare then traced for a
    #: timed one.
    segments: List[Segment] = dataclasses.field(default_factory=list)
    #: Transport counters at both ends of every segment.
    counters_at: List[Dict[str, int]] = dataclasses.field(default_factory=list)
    #: Transfers that came due inside the segments, and how many of them had
    #: not committed at their replica when the drain deadline passed.
    offered: int = 0
    failed: int = 0
    gen_late_s: List[float] = dataclasses.field(default_factory=list)
    loop_lag_s: List[float] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Whether the driver still hands out transfers (cleared for the drain).
    feeding: bool = True
    #: Counted runs: functions called inside the segment.
    counted_calls: int = 0

    def snapshot(self) -> Dict[str, int]:
        transports = self.committee.transports
        return {
            "committed": self.taps[0].replica.blockchain.transactions_committed,
            "messages_sent": sum(t.messages_sent for t in transports),
            "bytes_sent": sum(t.bytes_sent for t in transports),
            "messages_delivered": sum(t.messages_delivered for t in transports),
            "messages_dropped": sum(t.messages_dropped for t in transports),
        }

    def moved(self, segment: int) -> Dict[str, int]:
        """How far the counters moved between the two ends of a segment."""
        before, after = self.counters_at[2 * segment : 2 * segment + 2]
        return {key: after[key] - before[key] for key in after}


def _start(workload: str, committee: Committee) -> ClusterRun:
    loop = asyncio.get_running_loop()
    run = ClusterRun(
        workload=workload,
        committee=committee,
        taps=[_Tap(node, loop) for node in committee.nodes],
    )
    for transport in committee.transports:
        transport.start_processes()
    # The pre-generated transfers are the benchmark's ballast, not the
    # committee's heap: keep the collector from walking them during the run.
    gc.collect()
    gc.freeze()
    return run


def _close_the_loop(run: ClusterRun) -> None:
    """Start the closed loop: full mempools, instances requested up front."""

    def top_up(tap: _Tap) -> None:
        if run.feeding:
            wanted = 2 * BATCH_SIZE - len(tap.replica.blockchain.mempool)
            if wanted > 0:
                tap.submit(wanted)

    for tap in run.taps:
        tap.after_commit = top_up
        top_up(tap)
    for tap in run.taps:
        tap.replica.submit_instances(MANY_INSTANCES)


def _supply_low(run: ClusterRun) -> bool:
    return any(tap.unsubmitted <= SATURATE_RESERVE for tap in run.taps)


async def _until_idle(run: ClusterRun) -> None:
    """Wait until every replica decided every instance asked of it."""
    while not all(tap.idle for tap in run.taps):
        await asyncio.sleep(0.001)


async def _finish(run: ClusterRun) -> None:
    """Let what came due inside the segments commit, then check the outputs."""
    loop = asyncio.get_running_loop()
    start, end = run.segments[0].start, run.segments[-1].end
    deadline = loop.time() + DRAIN_S

    def waiting() -> List[float]:
        return [
            due for tap in run.taps for due in tap.pending.values() if start <= due <= end
        ]

    while waiting() and loop.time() < deadline:
        await asyncio.sleep(0.02)
    run.failed = len(waiting())
    run.offered = run.failed + sum(
        1 for tap in run.taps for due, _ in tap.committed if start <= due <= end
    )
    gc.unfreeze()
    _check_outputs(run)


# -- the counted (bare) run --------------------------------------------------


async def run_counted(workload: str, committee: Committee, seconds: float) -> ClusterRun:
    """Warm up, then commit :func:`counted_blocks` under the call counter.

    The closed loop just keeps running, from one commit of replica 0 to
    another.  The paced workload's blocks are stepped by the driver —
    :data:`PACED_BLOCK_TXS` transfers handed out round-robin, one instance
    requested everywhere, wait until every replica decided it — because
    arrivals on a clock would make the size of a block, and with it the calls
    per transfer, depend on how fast the host happens to be.
    """
    loop = asyncio.get_running_loop()
    run = _start(workload, committee)
    taps = run.taps
    paced = workload == "cluster4-paced"
    handed_out = 0

    async def block() -> None:
        nonlocal handed_out
        if paced:
            for _ in range(PACED_BLOCK_TXS if run.feeding else 0):
                taps[handed_out % COMMITTEE].submit(1)
                handed_out += 1
            for tap in taps:
                tap.replica.submit_instances(1)
            await _until_idle(run)
        else:
            decided = taps[0].decided
            while taps[0].decided == decided:
                await asyncio.sleep(0.001)

    if not paced:
        _close_the_loop(run)
    profile = cProfile.Profile()
    for _ in range(WARMUP_BLOCKS[workload]):
        await block()
    before = run.snapshot()
    begin, cpu_begin = loop.time(), time.process_time()
    profile.enable()
    try:
        for _ in range(counted_blocks(workload, seconds)):
            await block()
    finally:
        profile.disable()
    run.segments.append(Segment(begin, loop.time(), cpu_begin, time.process_time()))
    run.counters_at.extend([before, run.snapshot()])
    run.counted_calls = sum(entry.callcount for entry in profile.getstats())
    run.feeding = False
    while paced and any(len(tap.replica.blockchain.mempool) for tap in taps):
        # A proposal that missed its block's decided union left its transfers
        # in the mempool: cut (empty-handed) blocks until none is left.
        await block()
    await _finish(run)
    return run


# -- the timed (traced) run --------------------------------------------------


async def run_timed(
    workload: str, committee: Committee, seconds: float, tracer: Tracer
) -> ClusterRun:
    """Warm up, measure a third of ``seconds`` bare and a third traced, drain, check.

    The wrappers are installed between the two segments, so the pair gives
    the tracing overhead from one committee on one warm heap.
    """
    loop = asyncio.get_running_loop()
    run = _start(workload, committee)
    paced = workload == "cluster4-paced"
    background: List[asyncio.Task] = []
    if paced:
        background.append(loop.create_task(_generate(run, loop.time())))
        background.append(loop.create_task(_pump_instances(run)))
    else:
        _close_the_loop(run)

    async def measure(duration: float) -> None:
        begin, cpu_begin = loop.time(), time.process_time()
        run.counters_at.append(run.snapshot())
        deadline = begin + duration
        while loop.time() < deadline and (paced or not _supply_low(run)):
            await asyncio.sleep(min(0.05, max(0.0, deadline - loop.time())))
        run.segments.append(Segment(begin, loop.time(), cpu_begin, time.process_time()))
        run.counters_at.append(run.snapshot())

    try:
        await asyncio.sleep(min(WARMUP_S, seconds))
        await measure(seconds / 3)
        tracer.install()
        try:
            await measure(seconds / 3)
        finally:
            tracer.uninstall()
        run.feeding = False
        await _finish(run)
    finally:
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
    return run


async def _generate(run: ClusterRun, started: float) -> None:
    """Open-loop arrivals: transfer ``i`` is due at ``started + i / rate``."""
    loop = asyncio.get_running_loop()
    taps = run.taps
    index = 0
    while run.feeding:
        due = started + index / PACED_RATE
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
            continue
        if not taps[index % COMMITTEE].submit(1, due=due):
            return  # supply exhausted: the run was sized to outlast the segments
        run.gen_late_s.append(loop.time() - due)
        index += 1


async def _pump_instances(run: ClusterRun) -> None:
    """Request one instance everywhere when none is in flight and work waits.

    This is the worker's symmetric liveness bump (``cluster/worker.py``),
    polled faster: every replica is asked in the same tick, so whichever
    proposes first finds the others already expecting the instance.
    """
    loop = asyncio.get_running_loop()
    taps = run.taps
    expected = loop.time() + PUMP_INTERVAL_S
    next_start = 0.0
    while True:
        await asyncio.sleep(max(0.0, expected - loop.time()))
        now = loop.time()
        run.loop_lag_s.append(max(0.0, now - expected))
        expected = now + PUMP_INTERVAL_S
        if now < next_start or not all(tap.idle for tap in taps):
            continue
        if any(len(tap.replica.blockchain.mempool) for tap in taps):
            next_start = now + BLOCK_INTERVAL_S
            for tap in taps:
                tap.replica.submit_instances(1)


def _check_outputs(run: ClusterRun) -> None:
    """Agreement, conservation and loss checks; each miss fails the run."""
    problems = run.problems
    chains = [tap.replica.blockchain.blocks_by_instance for tap in run.taps]
    common = set(chains[0]).intersection(*chains[1:])
    if not common:
        problems.append("no instance was decided by every replica")
    for instance in sorted(common):
        hashes = {chain[instance].block_hash for chain in chains}
        if len(hashes) != 1:
            problems.append(f"replicas disagree on the block of instance {instance}")
            break
    for tap in run.taps:
        blockchain = tap.replica.blockchain
        replica = tap.replica.replica_id
        if blockchain.conserved_total() != tap.node.conserved_baseline:
            problems.append(f"replica {replica}: conserved total moved off its baseline")
        if blockchain.stats.commit_rejected:
            problems.append(
                f"replica {replica}: {blockchain.stats.commit_rejected} commits rejected"
            )
    dropped = run.snapshot()["messages_dropped"]
    if dropped:
        problems.append(f"{dropped} messages dropped by the transports")
    if not run.offered:
        problems.append("no transfer came due inside the measurement")
    if run.failed:
        problems.append(
            f"{run.failed} of {run.offered} transfers uncommitted {DRAIN_S:g} s after the end"
        )
    if run.workload == "cluster4-paced" and len(run.segments) == 2:
        bare = run.segments[0]
        backlog = backlog_by_subwindow(run, bare)
        if backlog[-1] - backlog[0] > PACED_RATE:
            problems.append(f"backlog grows across sub-windows: {backlog}")
        # Committed must equal offered within 2 %, plus the second of arrivals
        # by which the backlog may differ between the two ends of the segment.
        rate = min(commit_rates(run, bare))
        if abs(rate - PACED_RATE) > PACED_RATE * (0.02 + 1.0 / bare.wall_s):
            problems.append(f"committed {rate:.2f} tx/s of {PACED_RATE:g} tx/s offered")


# -- derived numbers ---------------------------------------------------------


def commit_rates(run: ClusterRun, segment: Segment) -> List[float]:
    """Per replica: transfers committed after the segment's first commit,
    over the time to its last — which removes the ±1-block quantisation a
    fixed window has."""
    rates = []
    for tap in run.taps:
        inside = [c for c in tap.commits if segment.start <= c[0] <= segment.end]
        if len(inside) < 2 or inside[-1][0] <= inside[0][0]:
            rates.append(0.0)
            continue
        rates.append(sum(c[2] for c in inside[1:]) / (inside[-1][0] - inside[0][0]))
    return rates


def latencies_ms(run: ClusterRun, segment: Segment) -> List[float]:
    """Ascending time-to-commit of transfers due inside ``segment``."""
    return sorted(
        1e3 * (committed - due)
        for tap in run.taps
        for due, committed in tap.committed
        if segment.start <= due <= segment.end
    )


def subwindows(segment: Segment) -> List[Segment]:
    width = segment.wall_s / SUBWINDOWS
    return [
        Segment(segment.start + k * width, segment.start + (k + 1) * width)
        for k in range(SUBWINDOWS)
    ]


def backlog_by_subwindow(run: ClusterRun, segment: Segment) -> List[int]:
    """Transfers due but not yet committed at the end of each sub-window."""
    backlog = []
    for sub in subwindows(segment):
        waiting = 0
        for tap in run.taps:
            waiting += sum(1 for due, done in tap.committed if due <= sub.end < done)
            waiting += sum(1 for due in tap.pending.values() if due <= sub.end)
        backlog.append(waiting)
    return backlog


def instance_stats(run: ClusterRun, segment: Segment) -> Dict[str, Any]:
    """Instance duration, gap to the next start and block size, replica 0's view."""
    replica = run.taps[0].replica
    records = [
        record
        for _, record in sorted(replica.instances.items())
        if record.decided_at is not None and segment.start <= record.decided_at <= segment.end
    ]
    durations = sorted(1e3 * (r.decided_at - r.started_at) for r in records)
    gaps = []
    for record in records:
        following = replica.instances.get(record.instance + 1)
        if following is not None:
            gaps.append(1e3 * (following.started_at - record.decided_at))
    blocks = replica.blockchain.blocks_by_instance
    sizes = [len(blocks[r.instance].transactions) for r in records if r.instance in blocks]
    return {"durations_ms": durations, "gaps_ms": gaps, "block_txs": sizes}


def wall_clock(run: ClusterRun, segment: Segment) -> Dict[str, float]:
    """Committed tx/s and time-to-commit of a segment, as the host's clock has them."""
    samples = latencies_ms(run, segment)
    if not samples:
        raise RuntimeError("no transfer committed inside the segment")
    return {
        "commit_tx_per_s": min(commit_rates(run, segment)),
        "ttc_p50_ms": stats.percentile(samples, 0.50),
        "ttc_p99_ms": stats.percentile(samples, 0.99),
    }


def end_to_end(run: ClusterRun, setup_s: List[float], peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of a counted run."""
    moved = run.moved(0)
    if not moved["committed"]:
        raise RuntimeError("no transfer committed under the call counter")
    return {
        "setup_s": stats.quartiles(setup_s)[1],
        "kcalls_per_tx": run.counted_calls / 1e3 / moved["committed"],
        "msgs_per_tx": moved["messages_sent"] / moved["committed"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run: ClusterRun, tracer: Tracer) -> Dict[str, float]:
    """Wall clock and counters from the bare segment, spans from the traced one."""
    bare, traced = run.segments
    moved = [run.moved(0), run.moved(1)]
    committed = max(1, moved[0]["committed"])
    instances = instance_stats(run, bare)
    durations = instances["durations_ms"] or [0.0]
    decided_traced = sum(
        1 for tap in run.taps for c in tap.commits if traced.start <= c[0] <= traced.end
    )
    idle_s = max(0.0, traced.wall_s - traced.cpu_s)
    values = tracer.layer_metrics(1e9 * traced.cpu_s, decided_traced)
    values.update({"e2e." + name: value for name, value in wall_clock(run, bare).items()})
    values.update(
        {
            "simulator.events_per_s": 0.0,
            "transport.msgs_per_tx": moved[0]["messages_sent"] / committed,
            "transport.bytes_per_tx": moved[0]["bytes_sent"] / committed,
            "transport.dropped": float(run.snapshot()["messages_dropped"]),
            "smr.instance_p50_ms": stats.percentile(durations, 0.50),
            "smr.instance_p99_ms": stats.percentile(durations, 0.99),
            "smr.tx_per_block": statistics.fmean(instances["block_txs"] or [0]),
            "smr.inter_instance_gap_ms": statistics.median(instances["gaps_ms"] or [0.0]),
            "smr.detect_sim_s": 0.0,
            "smr.exclusion_sim_s": 0.0,
            "smr.inclusion_sim_s": 0.0,
            "smr.recovery_sim_s": 0.0,
            "smr.sim_commit_tx_per_sim_s": 0.0,
            "cluster.build_node_s": run.committee.build_node_s,
            "cluster.connect_s": run.committee.connect_s,
            # Both segments may keep the loop busy, so CPU per delivered
            # message — not per second or per transfer — is what tracing
            # makes dearer.
            "trace.overhead_ratio": (
                (traced.cpu_s / max(1, moved[1]["messages_delivered"]))
                / (bare.cpu_s / max(1, moved[0]["messages_delivered"]))
            ),
            # Span time is wall time and idle time is wall minus CPU, so time
            # the host stole inside a span counts twice: cap the sum.
            "trace.attributed_share": min(
                1.0, (tracer.total_self_ns() / 1e9 + idle_s) / traced.wall_s
            ),
            "driver.idle_share": idle_s / traced.wall_s,
            "driver.gen_late_p99_ms": _p99_ms(run.gen_late_s),
            "driver.loop_lag_p99_ms": _p99_ms(run.loop_lag_s),
        }
    )
    return values


def details(run: ClusterRun, setup_s: Optional[List[float]] = None) -> Dict[str, Any]:
    """What a result file records about the run besides its metrics."""
    measured = run.segments[0]
    paced = run.workload == "cluster4-paced"
    record: Dict[str, Any] = {
        "window_s": measured.wall_s,
        "loop_busy_share": measured.cpu_s / measured.wall_s,
        "blocks": len(instance_stats(run, measured)["durations_ms"]),
        "offered": run.offered,
        "failed": run.failed,
        "problems": run.problems,
    }
    if setup_s is not None:
        # A counted run: blocks of a fixed size, back to back.
        record.update(
            {
                "loop": "closed",
                "occupancy_tx": PACED_BLOCK_TXS if paced else 2 * BATCH_SIZE * COMMITTEE,
                "setup_s": stats.summarize(setup_s),
                "counted": {
                    "calls": run.counted_calls,
                    "messages": run.moved(0)["messages_sent"],
                    "transfers": run.moved(0)["committed"],
                },
            }
        )
        return record
    samples = latencies_ms(run, measured)
    p99 = stats.percentile(samples, 0.99) if samples else 0.0
    record.update(
        {
            "loop": "open" if paced else "closed",
            "rate_tx_per_s": PACED_RATE if paced else None,
            "occupancy_tx": None if paced else 2 * BATCH_SIZE * COMMITTEE,
            "warmup_s": WARMUP_S,
            "traced_window_s": run.segments[1].wall_s,
            "commit_tx_per_s_by_subwindow": stats.summarize(
                [min(commit_rates(run, sub)) for sub in subwindows(measured)]
            ),
            "ttc_samples": len(samples),
            "ttc_samples_beyond_p99": sum(1 for sample in samples if sample > p99),
            "backlog_by_subwindow": backlog_by_subwindow(run, measured),
            "driver.gen_late_p99_ms": _p99_ms(run.gen_late_s),
            "driver.loop_lag_p99_ms": _p99_ms(run.loop_lag_s),
        }
    )
    return record


def _p99_ms(samples_s: List[float]) -> float:
    return 1e3 * stats.percentile(sorted(samples_s), 0.99) if samples_s else 0.0
