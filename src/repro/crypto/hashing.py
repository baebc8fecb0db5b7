"""SHA-256 helpers and canonical serialisation of structured payloads.

Every protocol message, transaction and block in the reproduction is hashed
through :func:`hash_payload`, which serialises nested Python structures into a
canonical byte string first.  Canonicalisation matters: two replicas hashing
the same logical payload must obtain the same digest, otherwise certificates
built from signed hashes could not be cross-checked.
"""

from __future__ import annotations

import hashlib
from typing import Any

#: Bases whose subclasses :func:`_encode` encodes as the base.
_SUBCLASSABLE = (int, float, str, bytes, list, tuple, set, frozenset, dict)


def sha256_hex(data: bytes) -> str:
    """Return the hex-encoded SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def canonical_bytes(payload: Any) -> bytes:
    """Serialise ``payload`` into a canonical, order-stable byte string.

    Supported types: ``None``, bool, int, float, str, bytes, and (possibly
    nested) lists, tuples, dicts, sets and frozensets of supported types.
    Dictionaries and sets are serialised in sorted order so the encoding does
    not depend on insertion order or hash randomisation.
    """
    return _encode(payload)


def _encode(value: Any) -> bytes:
    """One branch per exact builtin type, each leaf one ``bytes %`` format; a
    list, tuple or dict writes its ``str`` and ``int`` members in place.  The
    fallback at the end holds the encoding's rules, in their order, for
    everything else: subclasses, then self-encoding objects."""
    kind = type(value)
    if kind is str:
        data = value.encode()
        return b"S%d:%s;" % (len(data), data)
    if kind is int:
        return b"I%d;" % value
    if kind is list or kind is tuple:
        body = bytearray()
        for item in value:
            kind = type(item)
            if kind is str:
                data = item.encode()
                body += b"S%d:%s;" % (len(data), data)
            elif kind is int:
                body += b"I%d;" % item
            else:
                body += _encode(item)
        return b"L%d:%s;" % (len(value), body)
    if kind is dict:
        pairs = []
        for key, item in value.items():
            kind = type(key)
            if kind is str:
                data = key.encode()
                key = b"S%d:%s;" % (len(data), data)
            elif kind is int:
                key = b"I%d;" % key
            else:
                key = _encode(key)
            kind = type(item)
            if kind is str:
                data = item.encode()
                item = b"S%d:%s;" % (len(data), data)
            elif kind is int:
                item = b"I%d;" % item
            else:
                item = _encode(item)
            pairs += ((key, item),)  # no append call per entry
        pairs.sort()
        body = bytearray()
        for key, item in pairs:
            body += key
            body += item
        return b"D%d:%s;" % (len(pairs), body)
    if value is None:
        return b"N;"
    if kind is bool:
        return b"B1;" if value else b"B0;"
    if kind is bytes:
        return b"Y%d:%s;" % (len(value), value)
    if kind is float:
        return b"F%a;" % value
    if kind is set or kind is frozenset:
        return b"E%d:%s;" % (len(value), b"".join(sorted(map(_encode, value))))
    # A subclass (``IntEnum``, str enum, named tuple) takes its first base's
    # rule, through its own ``str`` / ``repr`` / ``encode`` / iteration.
    if isinstance(value, _SUBCLASSABLE):
        if isinstance(value, int):
            return b"I%s;" % str(value).encode("ascii")
        if isinstance(value, float):
            return b"F%s;" % repr(value).encode("ascii")
        if isinstance(value, str):
            data = value.encode("utf-8")
            return b"S%d:%s;" % (len(data), data)
        if isinstance(value, bytes):
            return b"Y%d:%s;" % (len(value), value)
        if isinstance(value, (list, tuple)):
            return b"L%d:%s;" % (len(value), b"".join(map(_encode, value)))
        if isinstance(value, (set, frozenset)):
            return b"E%d:%s;" % (len(value), b"".join(sorted(map(_encode, value))))
        pairs = sorted((_encode(key), _encode(item)) for key, item in value.items())
        return b"D%d:%s;" % (len(value), b"".join(key + item for key, item in pairs))
    # Objects that memoise their own canonical encoding (e.g. transactions,
    # which are immutable once built and re-hashed on every proposal digest)
    # short-circuit the recursive walk entirely.
    cached = getattr(value, "canonical_bytes_cached", None)
    if callable(cached):
        return cached()
    # Objects that know how to serialise themselves participate transparently.
    to_payload = getattr(value, "to_payload", None)
    if callable(to_payload):
        return b"O" + _encode(to_payload())
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")


def hash_payload(payload: Any) -> str:
    """Return the hex SHA-256 digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()
