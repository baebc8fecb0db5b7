"""Exception hierarchy for the ZLB reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without swallowing unrelated exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a simulation or protocol configuration is inconsistent."""


class ProtocolError(ReproError):
    """Raised when a protocol invariant is violated at runtime."""


class InvalidSignatureError(ProtocolError):
    """Raised when a signature fails verification."""


class InvalidCertificateError(ProtocolError):
    """Raised when a certificate does not carry a valid quorum of signatures."""


class LedgerError(ReproError):
    """Base class for ledger-level failures (UTXO, blocks, merges)."""


class InvalidTransactionError(LedgerError):
    """Raised when a transaction is malformed, unsigned or double-spending."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is used incorrectly."""
