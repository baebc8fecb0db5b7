"""Analysis utilities: zero-loss theory, throughput model and latency summaries."""

from repro.analysis.zero_loss import (
    branch_bound,
    expected_gain,
    expected_punishment,
    g_function,
    minimum_blockdepth,
    tolerated_attack_probability,
)
from repro.analysis.metrics import percentiles, summarize_latencies
from repro.analysis.throughput import (
    ProtocolCostModel,
    ThroughputModel,
    protocol_model,
)

__all__ = [
    "branch_bound",
    "expected_gain",
    "expected_punishment",
    "g_function",
    "minimum_blockdepth",
    "tolerated_attack_probability",
    "percentiles",
    "summarize_latencies",
    "ProtocolCostModel",
    "ThroughputModel",
    "protocol_model",
]
