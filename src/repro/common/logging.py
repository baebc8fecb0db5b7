"""Stdlib logging wired through the simulated stack.

Every :class:`~repro.network.simulator.Process` owns a ``log`` attribute — a
:class:`ReplicaLogAdapter` that prefixes each record with the replica id, the
current *simulated* time and the active trace context (when the run is
traced), so interleaved log lines from many replicas stay attributable::

    WARNING repro.replica [t=3.141593s r=4 trace=t2:s17] unrouted message ...

Protocol code logs only at cold sites (unrouted messages, disagreements,
membership changes, invariant violations); the default level of the ``repro``
logger hierarchy is WARNING, so an un-configured run pays one ``isEnabledFor``
check per suppressed call and nothing else.

:func:`configure_logging` backs the scenario CLI's ``--log-level`` flag; it is
idempotent and only ever touches the ``repro`` logger, never the root logger,
so embedding applications keep control of their own logging.
"""

from __future__ import annotations

import logging
from typing import Any, Optional, Tuple

#: Root of the project's logger hierarchy.
ROOT_LOGGER_NAME = "repro"


def get_logger(name: str = ROOT_LOGGER_NAME) -> logging.Logger:
    """A logger under the project hierarchy (plain :func:`logging.getLogger`)."""
    return logging.getLogger(name)


class ReplicaLogAdapter(logging.LoggerAdapter):
    """Injects replica id, simulated time and active trace id into records.

    The adapter reads its context *at emit time* (not at construction): the
    simulated clock advances, and the active trace context changes with every
    dispatched message, so both must be sampled when the record is made.
    """

    def __init__(self, logger: logging.Logger, process: Any):
        super().__init__(logger, {})
        self._process = process

    def process(self, msg: str, kwargs: Any) -> Tuple[str, Any]:
        proc = self._process
        transport = getattr(proc, "_transport", None)
        now = transport.now if transport is not None else 0.0
        trace = ""
        probe = getattr(proc, "probe", None)
        if probe is not None and probe.trace is not None:
            ctx = probe.trace.tracer.current_ctx
            if ctx is not None:
                trace = f" trace=t{ctx.trace_id}:s{ctx.span_id}"
        return (
            f"[t={now:.6f}s r={proc.replica_id}{trace}] {msg}",
            kwargs,
        )


def replica_logger(
    process: Any, name: str = f"{ROOT_LOGGER_NAME}.replica"
) -> ReplicaLogAdapter:
    """The per-process adapter installed as ``Process.log``."""
    return ReplicaLogAdapter(logging.getLogger(name), process)


def configure_logging(
    level: Optional[Any] = None, stream: Optional[Any] = None
) -> None:
    """Configure the ``repro`` logger for CLI runs (``--log-level``).

    ``level`` accepts a name (``"debug"``, ``"INFO"``) or a numeric level;
    ``None`` leaves logging untouched.  A stream handler is attached once —
    repeated calls only adjust the level.
    """
    if level is None:
        return
    if isinstance(level, int):
        numeric = level
    else:
        numeric = logging.getLevelName(str(level).upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level {level!r}")
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(numeric)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s %(message)s")
        )
        logger.addHandler(handler)
