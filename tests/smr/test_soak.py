"""What the decided history retains: a soak gate on a long-lived replica.

An n=4 benign deployment (seed 1, 200 transfers in batches of 50) spends its
workload in the first :data:`WARM` instances, then runs :data:`EMPTY` more
under ``tracemalloc``.  Every per-instance index grows by exactly one entry
per instance — the records, the blocks, the monitors' decisions — and the
deployment's topic table by the ten topics of an instance; the bytes
retained over the empty stretch stay under
:data:`RETAINED_BYTES_PER_INSTANCE`.  Shedding the history (a retired
instance kept in its served form, checkpoints) shows here first: tighten the
counts and the bound as it lands.  The memos and the topic table are the
deployment's, so the cell runs in the test process.
"""

import gc
import tracemalloc

from repro.common.config import FaultConfig
from repro.zlb.system import ZLBSystem

WARM = 200
EMPTY = 200

#: Retained bytes per empty instance, all four members together.  Measured
#: 42 948 in the test process (CPython 3.11, x86-64; 43 949 while the memos
#: and topics were the process's, in a fresh interpreter; 84 753 when the
#: bound was set, which left 18 % of margin then).
RETAINED_BYTES_PER_INSTANCE = 100_000


def _soak():
    system = ZLBSystem.create(
        FaultConfig(n=4), seed=1, workload_transactions=200, batch_size=50
    )
    topics = system.deployment.keys.registry.topics
    spent = system.run_instances(WARM)
    gc.collect()
    tracemalloc.start()
    try:
        interned, before = len(topics), tracemalloc.get_traced_memory()[0]
        soaked = system.run_instances(EMPTY)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    members = [r for r in system.replicas.values() if not r.standby]
    return {
        "committed": [spent.committed_transactions, soaked.committed_transactions],
        "violations": spent.violations + soaked.violations,
        "members": len(members),
        "instances": sorted({len(r.instances) for r in members}),
        "blocks": sorted({len(r.blockchain.blocks_by_instance) for r in members}),
        "decided": sorted({len(r.decided_instances()) for r in members}),
        "interned": len(topics) - interned,
        "monitor_decisions": len(system.deployment.monitors._decisions),
        "retained_per_instance": retained / EMPTY,
    }


def test_the_decided_history_grows_by_one_instance_per_instance():
    soak = _soak()
    assert soak["committed"] == [200, 200] and soak["violations"] == []
    total = WARM + EMPTY
    assert soak["members"] == 4
    assert soak["instances"] == soak["blocks"] == soak["decided"] == [total]
    assert soak["monitor_decisions"] == total
    assert soak["interned"] == 10 * EMPTY
    assert soak["retained_per_instance"] <= RETAINED_BYTES_PER_INSTANCE
