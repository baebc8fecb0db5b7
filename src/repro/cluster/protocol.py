"""The worker↔launcher JSON-lines protocol, in one place.

Workers speak newline-delimited JSON on stdout; the launcher's collector
threads parse each line and route it by its ``event`` field.  Both sides
import the event names and the frame builders from here so the protocol
cannot drift between them.

Event kinds (one dict per line, ``event`` selects the shape):

* ``ready`` — listener bound; carries ``epoch_offset``, the worker's
  ``time.time() - loop.time()`` estimate that maps its monotonic event
  timestamps onto the shared wall clock (the causal-merge anchor).
* ``connected`` — all peer dials completed; carries the peer list.
* ``obs`` — periodic observability frame (only with ``--obs``): committed
  counters, rates, p50/p99 time-to-commit, mempool depth, span
  summary, per-instance commit digests, monitor violations and the flight
  ring increment since the previous frame.
* ``report`` — exactly once at the end: final counters, latencies, zero-loss
  accounting; with ``--obs`` also the full span/event sets for the merged
  cluster trace.

Everything here must stay cheap and dependency-light: the worker emits on
its event loop and the launcher parses on collector threads.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, Optional

EVENT_READY = "ready"
EVENT_CONNECTED = "connected"
EVENT_OBS = "obs"
EVENT_REPORT = "report"

#: Flight-ring events shipped per obs frame at most; a worker drowning in
#: traffic degrades to a sparser ring at the launcher, never to giant frames.
MAX_RING_EVENTS_PER_FRAME = 256

#: Spans/events shipped in one final report at most (newest kept).  An n=4
#: smoke workload produces a few hundred; the cap only guards pathology.
MAX_REPORT_SPANS = 20_000


def emit(payload: Dict[str, Any], stream: Any = None) -> None:
    """Write one protocol frame as a JSON line and flush it.

    Flushing per frame is the liveness contract: the launcher's dashboard
    and crash forensics are only as fresh as the worker's last flushed line.
    """
    out = stream if stream is not None else sys.stdout
    out.write(json.dumps(payload) + "\n")
    out.flush()


def parse_line(line: str) -> Optional[Dict[str, Any]]:
    """Parse one stdout line into a protocol frame, or ``None`` if it is not
    one (stray prints and tracebacks land in the launcher's stderr tail)."""
    line = line.strip()
    if not line or not line.startswith("{"):
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or "event" not in payload:
        return None
    return payload


def epoch_offset(loop: Any) -> float:
    """This process's monotonic→wall-clock offset (``time.time() - loop.time()``).

    Sampled once per worker; the launcher adds it to event/span timestamps to
    place every process on one shared timeline (good to NTP/scheduling noise,
    which is plenty for causal forensics).
    """
    return time.time() - loop.time()


def ready_frame(replica_id: int, offset: float) -> Dict[str, Any]:
    return {
        "event": EVENT_READY,
        "replica_id": replica_id,
        "epoch_offset": offset,
    }


def connected_frame(replica_id: int, peers: Any) -> Dict[str, Any]:
    return {
        "event": EVENT_CONNECTED,
        "replica_id": replica_id,
        "peers": list(peers),
    }
