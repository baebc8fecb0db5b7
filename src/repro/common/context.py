"""A module-level activation scope.

The instrumentation layer keeps one *current value* that deep call stacks
read at construction time (``NetworkSimulator`` and ``ZLBSystem.create``
default their ``probe`` argument to it) and that a context manager
installs/restores around a scenario cell — see :data:`repro.obs.core.SCOPE`,
the only instance:

* ``scope.value`` is the installed value or ``None`` (disabled);
* ``scope.activate(value)`` installs ``value`` for the enclosed block and
  restores the previous value on exit, exceptions included;
* ``scope.activate(None)`` explicitly *shields* the block, disabling the
  subsystem even when an outer activation is in effect.

The simulation is single-threaded by design, so a plain slot is sufficient
(no thread-local indirection, and hot paths may read ``value`` directly).
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional


class ActivationScope:
    """One current-value slot with context-managed installs."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        #: The active value installed by :meth:`activate`, or ``None``.
        self.value: Optional[Any] = None

    @contextlib.contextmanager
    def activate(self, value: Optional[Any]) -> Iterator[Optional[Any]]:
        """Install ``value`` for the enclosed block; restore the previous one.

        ``activate(None)`` explicitly disables the subsystem for the block
        (useful to shield a sub-run from an outer activation).
        """
        previous = self.value
        self.value = value
        try:
            yield value
        finally:
            self.value = previous
