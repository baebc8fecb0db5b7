"""The wire codec: canonical, decodable encoding of message envelopes.

The discrete-event simulator ships Python objects *by reference*; a real
socket cannot.  This module gives every :class:`~repro.network.message.Message`
a canonical byte encoding that round-trips: primitives, containers (with dict
key types and tuple/list distinctions preserved — protocol bodies key
bitmasks and proposals by ``int`` slot) and the protocol objects that ride
inside bodies — signed payloads, signed votes, certificates, proofs of fraud,
transactions and blocks.  Decoded copies are *equal* to the originals and
still pass signature verification, because signed content is rebuilt from the
exact wire payloads the accountability layer already defines
(``to_payload`` / ``from_payload``).

Format: a self-describing tag-length-value encoding.  Each value starts with
a one-byte tag; variable-length values carry an ASCII decimal length followed
by ``;``::

    N                 None          T / F          booleans
    I<decimal>;       int           R<8 bytes>     float (IEEE-754 big-endian)
    S<len>;<utf8>     str           B<len>;<raw>   bytes
    L<count>;<v>*     list          P<count>;<v>*  tuple
    D<count>;(<k><v>)*  dict (insertion order, any encodable key)
    O<name><payload>  registered object (name is an encoded str)

Signed votes, certificates and proofs of fraud — whether as registered
objects or as the ``to_payload()`` tuples protocol bodies carry under ``vote``,
``certificate``, ``binary_certificates`` / ``rbc_certificates`` and ``pofs`` —
are *positional*: a tuple costs one node per field where a string-keyed dict
costs two plus the key bytes, and a certificate states what was signed once
instead of once per vote (the layouts, and the per-vote fallback that keeps
them lossless, are in :mod:`repro.consensus.certificates`).  At n=4 an
``ECHO`` frame is about 350 B and a ``CONFIRM`` about 3 KB.

Nothing a peer announces is trusted: lengths and counts are bounded by the
bytes that are left (:func:`_read_length`), and whatever else hostile bytes
trip over leaves :func:`decode_value` / :func:`decode_message` as
:class:`CodecError`.

Deterministic by construction: the same value always encodes to the same
bytes within a process (dicts keep insertion order — protocol bodies are
built deterministically), so content digests of encoded frames are stable.

Framing for stream transports: :func:`frame_message` prefixes the encoded
envelope with a 4-byte big-endian length; :data:`FRAME_HEADER_SIZE` is what a
reader must consume first.  :meth:`Message.size_bytes` reports exactly
``len(frame_message(message))`` of the *bare* envelope so byte counters in
telemetry mean the same thing under the simulator and the asyncio backend,
with tracing enabled or not.

Trace propagation: a message whose ``trace_ctx`` is set encodes as a 6-tuple
whose last element is the ``(trace_id, span_id)`` pair, so causality survives
the socket and a delivery on the far side opens its child span under the
sender's context.  A message without a context encodes as the original
5-tuple — byte-identical to the pre-trace wire format — and decoders accept
both shapes, so old frames (and peers that never stamp contexts) interoperate
unchanged.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.network.message import Message
from repro.network.topic import Topic

#: Bytes of the length prefix a stream reader consumes before each frame.
FRAME_HEADER_SIZE = 4

#: Upper bound on a single frame (sanity check against corrupt prefixes).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


# -- object registry ---------------------------------------------------------

#: type -> (wire name, to-encodable converter).
_TO_WIRE: Dict[Type[Any], Tuple[str, Callable[[Any], Any]]] = {}
#: wire name -> from-encodable constructor.
_FROM_WIRE: Dict[str, Callable[[Any], Any]] = {}


def register_object(
    name: str,
    cls: Type[Any],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> None:
    """Register a wire-encodable object type.

    ``encode`` maps an instance to an encodable value (a payload tuple or
    dict); ``decode`` inverts it and raises ``TypeError`` / ``ValueError`` /
    ``KeyError`` for a payload of any other shape.  Registration is
    idempotent per name.
    """
    _TO_WIRE[cls] = (name, encode)
    _FROM_WIRE[name] = decode


def registered_kinds() -> List[str]:
    """Wire names of every registered object type (for tests/introspection)."""
    return sorted(_FROM_WIRE)


# -- encoding ----------------------------------------------------------------


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
        return
    kind = type(value)
    if kind is bool:
        out.append(b"T" if value else b"F")
        return
    if kind is int:
        out.append(b"I%d;" % value)
        return
    if kind is float:
        out.append(b"R" + struct.pack(">d", value))
        return
    if kind is str:
        raw = value.encode("utf-8")
        out.append(b"S%d;" % len(raw))
        out.append(raw)
        return
    if kind is bytes:
        out.append(b"B%d;" % len(value))
        out.append(value)
        return
    if kind is list:
        out.append(b"L%d;" % len(value))
        for item in value:
            _encode_into(item, out)
        return
    if kind is tuple:
        out.append(b"P%d;" % len(value))
        for item in value:
            _encode_into(item, out)
        return
    if kind is dict:
        out.append(b"D%d;" % len(value))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
        return
    registered = _TO_WIRE.get(kind)
    if registered is not None:
        name, encode = registered
        out.append(b"O")
        raw = name.encode("ascii")
        out.append(b"S%d;" % len(raw))
        out.append(raw)
        _encode_into(encode(value), out)
        return
    # Subclasses of registered types (rare) and exotic ints/strs fall through
    # to an exact-type retry before giving up.
    for base, (name, encode) in _TO_WIRE.items():
        if isinstance(value, base):
            out.append(b"O")
            raw = name.encode("ascii")
            out.append(b"S%d;" % len(raw))
            out.append(raw)
            _encode_into(encode(value), out)
            return
    raise CodecError(f"cannot encode value of type {kind.__name__}: {value!r}")


def encode_value(value: Any) -> bytes:
    """Encode any supported value to its canonical wire bytes."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


# -- decoding ----------------------------------------------------------------


def _read_length(data: bytes, pos: int) -> Tuple[int, int]:
    """The length or element count written at ``pos`` and where its content starts.

    An announced number is not trusted: it must be written the way ``%d``
    writes it (``int()`` alone also takes ``+2``, `` 2`` and ``2_0``) and lie in
    ``0 <= n <= len(data) - start``.  Every element occupies at least one
    byte, so the same bound holds for counts, and ``L999999999;`` costs one
    comparison instead of a billion loop turns; a negative length would move
    ``pos`` backwards.  This runs once per node, hence slices and comparisons
    only: the last announced byte exists exactly when the bound holds.
    """
    end = data.index(b";", pos)
    digits = data[pos:end]
    length = int(digits)
    if (
        length < 0
        or digits != b"%d" % length
        or not data[end + length : end + length + 1]
    ):
        raise CodecError(
            f"length {digits!r} at offset {pos} is malformed or exceeds the buffer"
        )
    return length, end + 1


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"I":
        end = data.index(b";", pos)
        return int(data[pos:end]), end + 1
    if tag == b"R":
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == b"S":
        length, pos = _read_length(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == b"B":
        length, pos = _read_length(data, pos)
        return data[pos : pos + length], pos + length
    if tag == b"L":
        count, pos = _read_length(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return items, pos
    if tag == b"P":
        count, pos = _read_length(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == b"D":
        count, pos = _read_length(data, pos)
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_at(data, pos)
            value, pos = _decode_at(data, pos)
            mapping[key] = value
        return mapping, pos
    if tag == b"O":
        name, pos = _decode_at(data, pos)
        payload, pos = _decode_at(data, pos)
        decode = _FROM_WIRE.get(name)
        if decode is None:
            raise CodecError(f"unknown wire object kind {name!r}")
        return decode(payload), pos
    raise CodecError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def decode_value(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    The bytes come from a peer, so whatever they make the walk or a registered
    ``decode`` raise — running off the buffer, an unhashable dict key, a
    payload of the wrong shape, nesting past the recursion limit — surfaces
    as :class:`CodecError`, the one exception a transport has to expect.
    """
    try:
        value, pos = _decode_at(data, 0)
    except (
        LookupError,
        ValueError,
        TypeError,
        AttributeError,
        RecursionError,
        struct.error,
    ) as exc:
        raise CodecError(f"truncated or corrupt wire value: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after wire value")
    return value


# -- message envelopes -------------------------------------------------------


def encode_message(message: Message, include_trace: bool = True) -> bytes:
    """Encode a full envelope (sender, recipient, topic, kind, body[, trace]).

    A set ``trace_ctx`` rides as a sixth ``(trace_id, span_id)`` element when
    ``include_trace`` is true; without a context the envelope is the original
    5-tuple, byte for byte.
    """
    fields: Tuple[Any, ...] = (
        message.sender,
        message.recipient,
        message.topic.canonical,
        message.kind,
        message.body,
    )
    ctx = message.trace_ctx if include_trace else None
    if ctx is not None:
        fields = fields + ((ctx.trace_id, ctx.span_id),)
    return encode_value(fields)


def decode_message(data: bytes) -> Message:
    """Rebuild a :class:`Message` from :func:`encode_message` bytes.

    The decoded envelope gets a fresh local ``uid`` (uids are process-local
    tie-breakers, not wire identity).  Both envelope shapes decode: the bare
    5-tuple and the traced 6-tuple, whose ``(trace_id, span_id)`` tail is
    restored as the message's ``trace_ctx``.
    """
    fields = decode_value(data)
    if not isinstance(fields, tuple) or len(fields) not in (5, 6):
        raise CodecError("wire envelope is not a 5- or 6-tuple")
    sender, recipient, topic_text, kind, body = fields[:5]
    if type(topic_text) is not str or type(kind) is not str or type(body) is not dict:
        raise CodecError("wire envelope has a topic, kind or body of the wrong type")
    message = Message(
        sender=sender,
        recipient=recipient,
        protocol=Topic.from_wire(topic_text),
        kind=kind,
        body=body,
    )
    if len(fields) == 6 and fields[5] is not None:
        wire_ctx = fields[5]
        if not isinstance(wire_ctx, tuple) or len(wire_ctx) != 2:
            raise CodecError("wire trace context is not a (trace, span) pair")
        from repro.obs.trace import TraceContext

        message.trace_ctx = TraceContext(wire_ctx[0], wire_ctx[1])
    return message


def frame_message(message: Message) -> bytes:
    """Length-prefixed frame of the envelope (what stream transports write).

    Also memoises the envelope's bare size (see :func:`message_frame_size`)
    from the bytes just built, so a transport that frames before it counts
    never encodes the body a second time: a traced envelope is the bare one
    plus its context tail (``P5;`` and ``P6;`` are equally long).
    """
    payload = encode_message(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    if message._size is None:
        ctx = message.trace_ctx
        tail = len(encode_value((ctx.trace_id, ctx.span_id))) if ctx is not None else 0
        message._size = FRAME_HEADER_SIZE + len(payload) - tail
    return struct.pack(">I", len(payload)) + payload


def message_frame_size(message: Message) -> int:
    """Frame length of the bare envelope (header plus encoded 5-tuple).

    Deliberately excludes the optional trace-context tail: ``size_bytes`` is
    memoised and feeds telemetry byte counters, which must report the same
    number whether or not tracing happens to have stamped the message —
    fixed-seed byte-identity with tracing on/off depends on it.  The traced
    frame a socket actually writes is a handful of bytes longer.
    """
    return FRAME_HEADER_SIZE + len(encode_message(message, include_trace=False))


# -- standard registrations --------------------------------------------------
#
# Signed content is rebuilt from the accountability layer's own wire payloads
# so decoded copies verify against the same PKI; ledger objects rebuild their
# construction-time fields (memo caches re-derive lazily per process).


def _register_standard_objects() -> None:
    from repro.consensus.certificates import (
        Certificate,
        SignedVote,
        certificate_from_payload,
        vote_from_payload,
    )
    from repro.consensus.proofs import ProofOfFraud
    from repro.crypto.signatures import SignedPayload
    from repro.ledger.block import Block
    from repro.ledger.transaction import Transaction, TxInput, TxOutput

    register_object(
        "signed-payload",
        SignedPayload,
        lambda signed: signed.to_payload(),
        lambda payload: SignedPayload(
            signer=payload["signer"],
            payload_hash=payload["payload_hash"],
            signature=payload["signature"],
            scheme=payload["scheme"],
        ),
    )
    register_object(
        "signed-vote",
        SignedVote,
        lambda vote: vote.to_payload(),
        vote_from_payload,
    )
    register_object(
        "certificate",
        Certificate,
        lambda certificate: certificate.to_payload(),
        certificate_from_payload,
    )
    register_object(
        "proof-of-fraud",
        ProofOfFraud,
        lambda pof: pof.to_payload(),
        ProofOfFraud.from_payload,
    )
    register_object(
        "tx-input",
        TxInput,
        lambda tx_input: tx_input.to_payload(),
        lambda payload: TxInput(
            utxo_id=payload["utxo_id"],
            account=payload["account"],
            amount=payload["amount"],
        ),
    )
    register_object(
        "tx-output",
        TxOutput,
        lambda tx_output: tx_output.to_payload(),
        lambda payload: TxOutput(
            account=payload["account"], amount=payload["amount"]
        ),
    )
    register_object(
        "transaction",
        Transaction,
        lambda tx: {
            "inputs": list(tx.inputs),
            "outputs": list(tx.outputs),
            "nonce": tx.nonce,
            "signatures": dict(tx.signatures),
            "public_materials": dict(tx.public_materials),
            "signer_names": dict(tx.signer_names),
        },
        lambda payload: Transaction(
            inputs=tuple(payload["inputs"]),
            outputs=tuple(payload["outputs"]),
            nonce=payload["nonce"],
            signatures=dict(payload["signatures"]),
            public_materials=dict(payload["public_materials"]),
            signer_names=dict(payload["signer_names"]),
        ),
    )
    register_object(
        "block",
        Block,
        lambda block: {
            "index": block.index,
            "parent_hash": block.parent_hash,
            "transactions": list(block.transactions),
            "proposers": list(block.proposers),
            "timestamp": block.timestamp,
        },
        lambda payload: Block(
            index=payload["index"],
            parent_hash=payload["parent_hash"],
            transactions=tuple(payload["transactions"]),
            proposers=tuple(payload["proposers"]),
            timestamp=payload["timestamp"],
        ),
    )


_register_standard_objects()
