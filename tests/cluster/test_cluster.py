"""Real-cluster backend tests: in-process committee plus subprocess smoke.

The in-process tests boot a full n=4 ZLB committee on asyncio transports
inside one event loop — real sockets, real codec frames, real wall-clock
timers, no subprocesses — and drive the payment workload to full commit.
The subprocess tests exercise ``python -m repro.cluster`` end to end,
including crash detection and SIGTERM draining.
"""

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster import worker
from repro.cluster.fixture import ClusterSpec, build_node, endpoints_for
from repro.cluster.launcher import _worker_argv
from repro.common.config import FaultConfig
from repro.common.errors import ConfigurationError
from repro.consensus import certificates
from repro.network import asyncio_transport, codec
from repro.network.asyncio_transport import AsyncioTransport
from repro.zlb.system import ZLBSystem

from tests.consensus.harness import tap


def _spec(tmp_path, **overrides):
    defaults = dict(
        n=4,
        transport="uds",
        transactions=40,
        batch_size=10,
        accounts=8,
        seed=0,
        socket_dir=str(tmp_path),
        timeout=30.0,
    )
    defaults.update(overrides)
    return ClusterSpec(**defaults)


class TestFixture:
    def test_workers_rebuild_identical_genesis(self, tmp_path):
        spec = _spec(tmp_path)
        nodes = [build_node(spec, replica_id) for replica_id in spec.committee]
        hashes = {
            node.replica.blockchain.record.blocks[0].block_hash for node in nodes
        }
        assert len(hashes) == 1
        assert len({node.conserved_baseline for node in nodes}) == 1

    def test_workload_share_partitions_exactly(self, tmp_path):
        spec = _spec(tmp_path)
        nodes = [build_node(spec, replica_id) for replica_id in spec.committee]
        all_ids = [tx.tx_id for node in nodes for tx in node.share]
        assert len(all_ids) == spec.transactions
        assert len(set(all_ids)) == spec.transactions

    def test_cross_replica_signatures_verify(self, tmp_path):
        spec = _spec(tmp_path)
        node0 = build_node(spec, 0)
        node1 = build_node(spec, 1)
        # Replica 1 must accept transactions signed under replica 0's build.
        for transaction in node0.share:
            assert node1.replica.blockchain.submit_transaction(transaction)

    def test_instances_needed_covers_largest_share(self, tmp_path):
        assert _spec(tmp_path).instances_needed == 1
        assert _spec(tmp_path, transactions=200, batch_size=10).instances_needed == 5
        assert _spec(tmp_path, transactions=0).instances_needed == 0

    def test_unfundable_spec_names_the_least_accounts(self, tmp_path):
        # 16 accounts fund 16 x 128 = 2 048 transfers, one UTXO each.
        assert _spec(tmp_path, accounts=16, transactions=2048).accounts == 16
        with pytest.raises(ConfigurationError, match="--accounts 17 "):
            _spec(tmp_path, accounts=16, transactions=2049)
        with pytest.raises(ConfigurationError, match="--accounts 17 "):
            _spec(tmp_path, accounts=16, transactions=2100)
        # A transfer needs a payer and a payee, whatever the workload's size.
        with pytest.raises(ConfigurationError, match="--accounts 2 "):
            _spec(tmp_path, accounts=1, transactions=20)

    def test_spec_crosses_the_process_boundary_intact(self):
        spec = ClusterSpec(
            n=7,
            transport="tcp",
            transactions=300,
            batch_size=9,
            accounts=3,
            seed=11,
            socket_dir="/nonexistent/sockets",
            base_port=40123,
            timeout=12.5,
            obs=True,
        )
        defaults = ClusterSpec()
        for field in dataclasses.fields(ClusterSpec):
            assert getattr(spec, field.name) != getattr(defaults, field.name), field
        argv = _worker_argv(spec, 5)
        assert argv[1:3] == ["-m", "repro.cluster.worker"]
        assert worker._parse_args(argv[3:]) == (5, spec)


def _run_in_process(spec):
    """Boot ``spec``'s committee on asyncio transports in this process, drive
    its whole workload until every replica committed it (or the spec's
    timeout), close the sockets and return the nodes."""

    async def scenario():
        transports, nodes = [], []
        for replica_id in spec.committee:
            node = build_node(spec, replica_id)
            transport = AsyncioTransport(replica_id, endpoints_for(spec))
            transport.add_process(node.replica)
            await transport.start()
            transports.append(transport)
            nodes.append(node)
        try:
            for transport in transports:
                await transport.connect(timeout=10)
            for node in nodes:
                node.replica.submit_transactions(node.share)
            for transport in transports:
                transport.start_processes()
            for node in nodes:
                node.replica.submit_instances(node.instances_needed)

            deadline = asyncio.get_running_loop().time() + spec.timeout
            while asyncio.get_running_loop().time() < deadline:
                done = all(
                    node.replica.blockchain.transactions_committed
                    >= node.total_transactions
                    for node in nodes
                )
                if done:
                    break
                for node in nodes:
                    replica = node.replica
                    if (
                        replica.blockchain.transactions_committed
                        < node.total_transactions
                        and replica.next_instance >= replica.target_instances
                        and len(replica.decided_instances())
                        >= replica.target_instances
                    ):
                        replica.submit_instances(1)
                await asyncio.sleep(0.02)
        finally:
            for transport in transports:
                await transport.close()
        return nodes

    return asyncio.run(scenario())


def _committed_ids(blockchain):
    return {
        transaction.tx_id
        for block in blockchain.blocks_by_instance.values()
        for transaction in block.transactions
    }


class TestInProcessCluster:
    def test_uds_cluster_commits_whole_workload_zero_loss(self, tmp_path):
        nodes = _run_in_process(_spec(tmp_path))
        for node in nodes:
            blockchain = node.replica.blockchain
            assert blockchain.transactions_committed >= node.total_transactions
            assert blockchain.conserved_total() == node.conserved_baseline
            assert blockchain.stats.commit_rejected == 0
        # Every replica commits the same chain.
        heights = {node.replica.blockchain.chain_height() for node in nodes}
        assert len(heights) == 1

    def test_simulator_and_cluster_agree_on_a_benign_spec(self, tmp_path):
        # One constructor builds both backends' replicas: a simulator cell
        # with no standby pool is the cluster's deployment, so the same spec
        # commits the same transfers onto the same genesis and ends with the
        # same UTXO set on both.
        spec = _spec(tmp_path)
        system = ZLBSystem.create(
            FaultConfig(n=spec.n),
            seed=spec.seed,
            pool_size=0,
            workload_accounts=spec.accounts,
            workload_transactions=spec.transactions,
            batch_size=spec.batch_size,
        )
        result = system.run_instances(spec.instances_needed)
        nodes = _run_in_process(spec)

        def view(blockchain):
            return (
                blockchain.record.blocks[0].block_hash,
                frozenset(_committed_ids(blockchain)),
                tuple(sorted(utxo.utxo_id for utxo in blockchain.record.utxos)),
                blockchain.conserved_total(),
            )

        simulated = {view(r.blockchain) for r in system.replicas.values()}
        real = {view(node.replica.blockchain) for node in nodes}
        assert len(simulated) == 1
        assert real == simulated
        _, committed, utxo_ids, _ = simulated.pop()
        assert len(committed) == spec.transactions
        # 128 UTXOs per account and one deposit per replica at genesis; a
        # transfer spends one and creates one.
        assert len(utxo_ids) == spec.accounts * 128 + spec.n
        assert result.excluded == []
        for node in nodes:
            assert node.replica.membership_outcomes == []
            assert list(node.replica.committee()) == spec.committee


class TestVotesParsedOnce:
    """A vote is parsed where bytes become one, in the decoder, and nowhere
    else: never in the simulator, once per frame a socket reads."""

    @staticmethod
    def _count_parses(monkeypatch):
        """Count the calls of the codec's registered vote decoder and, apart,
        of every ``vote_from_payload`` a module of the stack holds."""
        calls = {"decoder": 0, "elsewhere": 0}
        original = certificates.vote_from_payload

        def counting(where):
            def parse(payload):
                calls[where] += 1
                return original(payload)

            return parse

        monkeypatch.setitem(codec._FROM_WIRE, "vote", counting("decoder"))
        elsewhere = counting("elsewhere")
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "vote_from_payload", None) is original:
                monkeypatch.setattr(module, "vote_from_payload", elsewhere)
        return calls

    def test_the_simulator_parses_no_vote(self, tmp_path, monkeypatch):
        spec = _spec(tmp_path)
        system = ZLBSystem.create(
            FaultConfig(n=spec.n),
            seed=spec.seed,
            pool_size=0,
            workload_accounts=spec.accounts,
            workload_transactions=spec.transactions,
            batch_size=spec.batch_size,
        )
        calls = self._count_parses(monkeypatch)
        delivered = tap(system.replicas.values())
        system.run_instances(spec.instances_needed)
        votes = [message for message in delivered if "vote" in message.body]
        assert len(votes) > 100
        assert calls == {"decoder": 0, "elsewhere": 0}

    def test_a_socket_parses_each_vote_it_reads_once(self, tmp_path, monkeypatch):
        calls = self._count_parses(monkeypatch)
        decoded = []

        def decode(data, decode=asyncio_transport.decode_message):
            message = decode(data)
            decoded.append(message)
            return message

        monkeypatch.setattr(asyncio_transport, "decode_message", decode)
        nodes = _run_in_process(_spec(tmp_path))
        assert all(node.replica.blockchain.chain_height() >= 1 for node in nodes)
        frames = sum(1 for message in decoded if "vote" in message.body)
        assert frames > 100
        assert calls == {"decoder": frames, "elsewhere": 0}


class TestWireBudget:
    """Proposals cross each link once: votes and confirmations carry digests."""

    @staticmethod
    def _frame_sizes(tmp_path, batch_size):
        """Run one full-batch instance on an in-process n=4 committee; return
        the frame sizes seen per message kind and the set of block hashes."""
        spec = _spec(
            tmp_path,
            transactions=4 * batch_size,
            batch_size=batch_size,
            accounts=max(8, batch_size),
        )
        sizes = {}

        async def scenario():
            transports, nodes = [], []
            for replica_id in spec.committee:
                node = build_node(spec, replica_id)
                transport = AsyncioTransport(replica_id, endpoints_for(spec))
                transport.add_process(node.replica)

                def tapped(message, deliver=node.replica.on_message):
                    sizes.setdefault(message.kind, []).append(message.size_bytes())
                    deliver(message)

                node.replica.on_message = tapped
                await transport.start()
                transports.append(transport)
                nodes.append(node)
            try:
                for transport in transports:
                    await transport.connect(timeout=10)
                for node in nodes:
                    node.replica.submit_transactions(node.share)
                for transport in transports:
                    transport.start_processes()
                for node in nodes:
                    node.replica.submit_instances(1)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + spec.timeout
                while loop.time() < deadline and not all(
                    len(sizes.get("CONFIRM", ())) == spec.n * spec.n
                    and 0 in node.replica.blockchain.blocks_by_instance
                    for node in nodes
                ):
                    await asyncio.sleep(0.02)
                return {
                    node.replica.blockchain.blocks_by_instance[0].block_hash
                    for node in nodes
                }
            finally:
                for transport in transports:
                    await transport.close()

        return sizes, asyncio.run(scenario())

    def test_vote_and_confirm_frames_do_not_grow_with_the_batch(self, tmp_path):
        (tmp_path / "small").mkdir()
        (tmp_path / "large").mkdir()
        small, small_hashes = self._frame_sizes(tmp_path / "small", 5)
        large, large_hashes = self._frame_sizes(tmp_path / "large", 50)
        assert len(small_hashes) == 1 and len(large_hashes) == 1
        # The proposal itself grows with the batch, and only INIT carries it.
        assert min(large["INIT"]) > 5 * max(small["INIT"])
        for sizes in (small, large):
            # A vote is one registered object over a positional tuple
            # (355-357 B a frame; 347-349 as a bare tuple, before its 8-byte
            # wire name; the keyed dict-in-dict form was 461-465 B), and a certificate
            # states its step once and then lists (signer, signature) pairs
            # (CONFIRM 3 075 B at n=4; repeating the step per vote was 9 928).
            assert max(sizes["ECHO"]) < 400 and max(sizes["READY"]) < 400
            assert max(sizes["CONFIRM"]) < 4096
            assert "FETCH" not in sizes and "PULL" not in sizes
        # CONFIRM is digests and certificates: the same few KB for 20 or 200
        # transfers a block (the count of signatures in a certificate may
        # differ by one per slot), and smaller than one 50-transfer proposal.
        assert max(large["CONFIRM"]) < 2 * min(small["CONFIRM"])
        assert max(large["CONFIRM"]) < min(large["INIT"])


#: The keys of a worker report with observability off.
REPORT_KEYS = {
    "event",
    "status",
    "replica_id",
    "accepted",
    "committed",
    "total_transactions",
    "blocks",
    "duration_s",
    "commit_latencies_s",
    "conserved_ok",
    "commit_rejected",
    "transport",
    "chain",
    "telemetry",
    "violations",
}


def _run_cluster_cli(args, timeout=120):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro.cluster", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestClusterCLI:
    def test_unfundable_spec_fails_before_any_worker_starts(self):
        for args, least in (
            (["--transactions", "2100"], 17),
            (["--accounts", "1", "--transactions", "20", "--batch-size", "5"], 2),
        ):
            proc = _run_cluster_cli(args)
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert f"--accounts {least} " in proc.stderr
            assert "zero-loss" not in proc.stdout

    def test_uds_smoke_commits_and_reports(self, tmp_path):
        out_path = tmp_path / "cluster.json"
        proc = _run_cluster_cli(
            [
                "--n", "4",
                "--transport", "uds",
                "--transactions", "40",
                "--batch-size", "10",
                "--timeout", "60",
                "--json", str(out_path),
            ]
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "zero-loss accounting: ok" in proc.stdout
        result = json.loads(out_path.read_text())
        assert result["ok"] is True
        assert result["committed"] == 40
        assert result["zero_loss"] is True
        assert result["latency_p50_s"] > 0
        assert result["latency_p99_s"] >= result["latency_p50_s"]
        # Disabled-mode satellite: a no-obs run streams zero obs frames.
        assert result["obs_frames"] == 0
        assert result["violations"] == []
        assert len(result["replicas"]) == 4
        for report in result["replicas"].values():
            assert report["status"] == "ok"
            assert report["transport"]["messages_sent"] > 0
            assert report["latency_p50_s"] > 0
            # Compact form: counters only, no raw arrays or snapshots.
            assert "telemetry" not in report
            assert "commit_latencies_s" not in report

    def test_the_default_run_times_each_accepted_transfer_once(self, tmp_path):
        # A worker's latencies are its replica's zlb.commit_latency_s samples:
        # one per transfer it admitted, far below the 4 096-sample reservoir.
        out_path = tmp_path / "cluster.json"
        proc = _run_cluster_cli(["--json", str(out_path)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(out_path.read_text())
        assert result["committed"] == 200
        reports = list(result["replicas"].values())
        assert sum(report["accepted"] for report in reports) == 200
        for report in reports:
            assert report["latency_count"] == report["accepted"] > 0

    def test_every_worker_splits_time_to_commit_into_four_phases(self, tmp_path):
        # The phase histograms ride in every worker's registry snapshot, with
        # one mempool sample per transfer the worker admitted: workers submit
        # through submit_transactions, which the trace events never saw.
        out_path = tmp_path / "cluster.json"
        proc = _run_cluster_cli(["--json", str(out_path), "--json-full"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "zlb.phase.mempool_s" in proc.stdout
        assert "dominant phase: " in proc.stdout
        reports = json.loads(out_path.read_text())["replicas"].values()
        assert sum(report["accepted"] for report in reports) == 200
        for report in reports:
            histograms = report["telemetry"]["histograms"]
            for phase in ("mempool", "rbc", "binary", "commit"):
                assert histograms[f"zlb.phase.{phase}_s"]["count"] > 0, phase
            assert histograms["zlb.phase.mempool_s"]["count"] == report["accepted"]

    def test_no_obs_report_shape_is_unchanged(self, tmp_path):
        # Acceptance pin: with observability off, the worker report carries
        # exactly the pre-obs key set — no trace fields leak in, and the
        # JSON bytes a no-obs consumer parses are structurally identical.
        # Run over both transports: this is the test that boots TCP (a
        # free port window picked by the launcher, handed to each worker).
        from repro.cluster.launcher import run_cluster

        for transport in ("uds", "tcp"):
            spec = _spec(
                tmp_path, n=2, transactions=10, batch_size=5, transport=transport
            )
            result = run_cluster(spec)
            assert result.ok, (transport, result.crashes)
            assert result.obs_frames == 0
            assert result.spec.transport == transport
            for report in result.reports.values():
                assert set(report.keys()) == REPORT_KEYS, transport
                # A bare worker checks every invariant all the same.
                assert report["violations"] == [], transport

    def test_violations_fail_the_run_and_are_printed_by_name(
        self, tmp_path, monkeypatch, capsys
    ):
        # Both sources reach ClusterResult in one shape, ahead of the real
        # workers' frames: a worker's MonitorSet trip shipped in an obs frame,
        # and the launcher's agreement trip on two conflicting commits.
        from repro.cluster import __main__ as cli
        from repro.cluster import launcher
        from repro.cluster import protocol as wire
        from repro.obs.monitors import MonitorSet

        monitors = MonitorSet()
        monitors.register_ledger(0, conserved_total=100)
        monitors.on_commit(
            0, instance=0, invalid=0, phantom=0, conserved_total=101, at=1.0
        )
        injected = [
            {
                "event": wire.EVENT_OBS,
                "replica_id": 0,
                "t": 1.0,
                "violations": [monitors.violations[0].to_dict()],
                "commits": {"999": "a" * 16},
            },
            {"event": wire.EVENT_OBS, "replica_id": 1, "t": 1.0,
             "commits": {"999": "b" * 16}},
        ]

        class InjectingWatcher(launcher.ClusterWatcher):
            def start(self, queue):
                for frame in injected:
                    queue.put(frame)
                super().start(queue)

        monkeypatch.setattr(launcher, "ClusterWatcher", InjectingWatcher)
        spec = _spec(tmp_path, n=2, transactions=10, batch_size=5, obs=True)
        result = launcher.run_cluster(spec, artifacts_dir=str(tmp_path / "out"))
        assert not result.ok and not result.crashes
        assert sorted((v["name"], v["replica_id"]) for v in result.violations) == [
            ("agreement", 1),
            ("supply-conservation", 0),
        ]
        assert result.flight_dump is not None and os.path.exists(result.flight_dump)

        monkeypatch.setattr(cli, "run_cluster", lambda *args, **kwargs: result)
        assert cli.main(["--n", "2"]) == 1
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATION [supply-conservation] replica 0:" in out
        assert "INVARIANT VIOLATION [agreement] replica 1:" in out

    def test_obs_cluster_merges_one_trace_across_processes(self, tmp_path):
        # Tentpole acceptance: an n=4 run with tracing produces ONE merged
        # span tree whose root-to-commit path crosses >= 3 distinct worker
        # OS processes (pid = replica in the Chrome trace).
        artifacts = tmp_path / "artifacts"
        out_path = tmp_path / "cluster.json"
        proc = _run_cluster_cli(
            [
                "--n", "4",
                "--transport", "uds",
                "--transactions", "40",
                "--batch-size", "10",
                "--timeout", "60",
                "--obs",
                "--artifacts", str(artifacts),
                "--json", str(out_path),
            ]
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(out_path.read_text())
        assert result["ok"] is True
        assert result["obs_frames"] > 0
        for report in result["replicas"].values():
            assert report["obs_frames_sent"] > 0
            assert report["spans"] > 0

        trace = json.loads((artifacts / "cluster-trace.json").read_text())
        events = trace["traceEvents"]
        assert events
        # Group every span/instant by trace id; the consensus instance's
        # causal tree must span at least 3 of the 4 worker processes.
        pids_by_trace = {}
        for event in events:
            if event["ph"] == "X":
                trace_id = event["args"]["trace"]
            else:
                trace_id = event.get("tid")
            if trace_id:
                pids_by_trace.setdefault(trace_id, set()).add(event["pid"])
        assert max(len(pids) for pids in pids_by_trace.values()) >= 3
        # The commit events themselves land on >= 3 distinct processes and
        # are attributed to a trace (the proposer's causal chain).
        commits = [e for e in events if e["name"] == "zlb.commit"]
        assert len({e["pid"] for e in commits}) >= 3
        assert all(e["tid"] for e in commits)

    def test_serve_exposes_live_metrics_and_state(self, tmp_path):
        # The launcher's HTTP plane, polled while the cluster is running:
        # per-replica committed counters and p99 time-to-commit series.
        import threading
        import urllib.request

        from repro.cluster.launcher import _free_tcp_port, run_cluster

        port = _free_tcp_port()
        spec = _spec(tmp_path, transactions=600, batch_size=30, timeout=90.0,
                     obs=True)
        results = {}

        def _drive():
            results["result"] = run_cluster(spec, serve_port=port)

        thread = threading.Thread(target=_drive, daemon=True)
        thread.start()
        metrics = state = None
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics", timeout=2
                    ) as response:
                        text = response.read().decode()
                except OSError:
                    time.sleep(0.05)
                    continue
                if (
                    'repro_cluster_replica_committed_total{replica="0"}' in text
                    and 'quantile="p99"' in text
                ):
                    metrics = text
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/state", timeout=2
                    ) as response:
                        state = json.loads(response.read().decode())
                    break
                time.sleep(0.05)
        finally:
            thread.join(timeout=120)
        assert metrics is not None, "never saw live per-replica series"
        for replica_id in range(4):
            assert (
                f'repro_cluster_replica_committed_total{{replica="{replica_id}"}}'
                in metrics
            )
        assert "repro_cluster_commit_latency_seconds" in metrics
        assert state["n"] == 4
        assert len(state["replicas"]) == 4
        result = results["result"]
        assert result.ok
        assert result.serve_port == port

    def test_killed_replica_is_detected_not_hung(self, tmp_path):
        # Satellite: a killed replica must surface as a crash report (exit
        # code + log line), never as a hang until the outer test timeout —
        # and, with obs on, the launcher must write a causally merged flight
        # dump that still carries the dead replica's last shipped events.
        import urllib.request

        from repro.cluster.launcher import _free_tcp_port

        artifacts = tmp_path / "artifacts"
        port = _free_tcp_port()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster",
                "--n", "4",
                "--transport", "uds",
                # Sized so the run outlasts the kill below with a wide margin:
                # 12000 transfers take ~19 s here since proposals travel once
                # (4000 took ~12 s before that, ~6 s after), and the kill
                # comes with the victim's first frame.
                "--transactions", "12000",
                "--batch-size", "10",
                "--accounts", "256",
                "--timeout", "90",
                "--obs",
                "--serve", str(port),
                "--artifacts", str(artifacts),
                "--log-level", "error",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

        def victim_reported():
            """True once the launcher holds an obs frame of replica 3: a
            worker ships its first one after its first broadcast, so by then
            the forensics have something to say about it when it dies."""
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/state", timeout=2
                ) as response:
                    state = json.loads(response.read().decode())
            except (OSError, ValueError):
                return False
            return any(
                row["replica_id"] == 3 and (row["frames"] or row["committed"])
                for row in state.get("replicas", ())
            )

        try:
            # Kill on evidence, not on a clock: how long worker 3 takes to
            # build its keys and its share of the workload depends on what
            # else the host is doing.
            deadline = time.monotonic() + 60
            while not victim_reported():
                if proc.poll() is not None or time.monotonic() > deadline:
                    proc.kill()
                    stdout, stderr = proc.communicate()
                    pytest.fail(
                        "replica 3 never reported a frame (launcher exit code "
                        f"{proc.returncode})\n{stdout}\n{stderr}"
                    )
                time.sleep(0.05)
            # Only this launcher's own child: another cluster's worker 3 (or
            # a shell quoting the pattern) must not take the bullet.
            pgrep = subprocess.run(
                ["pgrep", "-P", str(proc.pid), "-f", "worker.*--replica-id 3"],
                capture_output=True,
                text=True,
            )
            pids = [int(p) for p in pgrep.stdout.split()]
            assert len(pids) == 1, f"worker 3 of launcher {proc.pid}: {pids}"
            os.kill(pids[0], signal.SIGKILL)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            # A hang (TimeoutExpired) or a failed assertion above must not
            # leave five processes running into the next test.
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode != 0
        assert "crashed" in stdout + stderr
        # The merged flight dump exists and names the dead replica's last
        # causal events (its increments survived it at the launcher).
        flight_path = artifacts / "cluster-flight.jsonl"
        assert flight_path.exists(), stdout + stderr
        header, *events = [json.loads(line) for line in flight_path.open()]
        # The dump states how complete it is, and the counts add up.
        assert header["header"] == "flight-dump"
        assert header["retained"] == len(events)
        assert header["recorded"] == (
            header["retained"] + header["evicted"] + header["skipped"]
        )
        victim_events = [event for event in events if event["worker"] == 3]
        assert victim_events, "dead replica left no events in the dump"
        assert all("t_cluster" in event for event in events)
        # Causal order on the shared cluster clock.
        times = [event["t_cluster"] for event in events]
        assert times == sorted(times)
