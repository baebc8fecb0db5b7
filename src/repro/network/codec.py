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

Each half is one pass.  The decoder is one loop that reads scalars in place
and keeps the open containers on an explicit stack: a node costs no Python
frame, and a length or an integer of up to 18 digits no call (the loop reads
its digits itself).  The encoder appends every node to one ``bytearray``, and
a container writes its ``str`` and ``int`` members in place: a frame per
container, not per leaf.  Neither half nests deeper than :data:`MAX_DEPTH`
containers.

A body's ``vote`` is a :class:`~repro.consensus.certificates.SignedVote`,
written as the registered ``vote`` object: the decoder parses it — arity and
field types — once per frame, and no handler parses it again (in the
simulator, which encodes nothing, nobody parses it).  Certificates and proofs
of fraud ride as the ``to_payload()`` tuples bodies carry under
``certificate``, ``binary_certificates`` / ``rbc_certificates`` and ``pofs``,
and the handler rebuilds them.  All three are *positional*: a tuple costs one
node per field where a string-keyed dict costs two plus the key bytes, and a
certificate states what was signed once instead of once per vote (the
layouts, and the per-vote fallback that keeps them lossless, are in
:mod:`repro.consensus.certificates`).  At n=4 an ``ECHO`` frame is about
360 B and a ``CONFIRM`` about 3 KB.

Nothing a peer announces is trusted, and only canonical bytes are accepted:
a length, count or integer must be written the way ``%d`` writes it (no
``+``, space, ``_``, leading zero or ``-0``), a length or count must fit in
the bytes that are left, a float must re-pack to its own eight bytes and a
dict must hold as many distinct keys as it announces.  So every accepted value
without a registered object re-encodes to exactly the bytes it came from.
Nesting past :data:`MAX_DEPTH`, and whatever else hostile bytes trip over,
leaves :func:`decode_value` / :func:`decode_message` as :class:`CodecError`.

Deterministic by construction: the same value always encodes to the same
bytes within a process (dicts keep insertion order — protocol bodies are
built deterministically), so content digests of encoded frames are stable.

Framing for stream transports: :func:`frame_message` prefixes the encoded
envelope with a 4-byte big-endian length; :data:`FRAME_HEADER_SIZE` is what a
reader must consume first.  :meth:`Message.size_bytes` reports exactly
``len(frame_message(message))`` of the *bare* envelope, traced or not.  Only
the socket transport counts bytes, from the frames it writes; to size
simulated traffic, tap deliveries and sum ``size_bytes()``.

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
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.network.message import Message
from repro.network.topic import Topic, TopicTable

#: Bytes of the length prefix a stream reader consumes before each frame.
FRAME_HEADER_SIZE = 4

#: Upper bound on a single frame (sanity check against corrupt prefixes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Deepest nesting either half accepts, counting each list, tuple, dict and
#: registered object (one level above its payload) open at once.  The deepest
#: frame the protocol sends is a ``CATCHUP`` at 11 (records, proposals,
#: transactions, their inputs); an ``INIT`` is 8 and every other kind at most 6
#: (``tests/network/test_codec.py::TestDepthBound``).
MAX_DEPTH = 32

_DOUBLE = struct.Struct(">d")


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


# -- object registry ---------------------------------------------------------

#: type -> (the bytes that open its encoding, to-encodable converter).
_TO_WIRE: Dict[Type[Any], Tuple[bytes, Callable[[Any], Any]]] = {}
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
    raw = name.encode("ascii")
    _TO_WIRE[cls] = (b"OS%d;%b" % (len(raw), raw), encode)
    _FROM_WIRE[name] = decode


def registered_kinds() -> List[str]:
    """Wire names of every registered object type (for tests/introspection)."""
    return sorted(_FROM_WIRE)


# -- encoding ----------------------------------------------------------------


def _too_deep() -> CodecError:
    return CodecError(f"value nests deeper than MAX_DEPTH ({MAX_DEPTH})")


def _encode_into(value: Any, out: bytearray, depth: int) -> None:
    """Append ``value``'s encoding to ``out``; a container here is level ``depth``.

    A list, tuple or dict writes its ``str`` and ``int`` members in place, as
    :func:`repro.crypto.hashing._encode` does: a frame per container and per
    other member, not per leaf."""
    kind = type(value)
    if kind is str:
        raw = value.encode()
        out += b"S%d;" % len(raw)
        out += raw
    elif kind is int:
        out += b"I%d;" % value
    elif kind is tuple or kind is list or kind is dict:
        if depth > MAX_DEPTH:
            raise _too_deep()
        if kind is dict:
            out += b"D%d;" % len(value)
            groups = value.items()  # each pair writes its key, then its value
        else:
            out += (b"P%d;" if kind is tuple else b"L%d;") % len(value)
            groups = (value,)
        depth += 1
        for group in groups:
            for item in group:
                kind = type(item)
                if kind is str:
                    raw = item.encode()
                    out += b"S%d;" % len(raw)
                    out += raw
                elif kind is int:
                    out += b"I%d;" % item
                else:
                    _encode_into(item, out, depth)
    elif kind is bytes:
        out += b"B%d;" % len(value)
        out += value
    elif value is None:
        out += b"N"
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is float:
        out += b"R"
        out += _DOUBLE.pack(value)
    else:
        # Subscripted, not ``.get``: every vote-bearing frame encodes a
        # registered object, and a subscript costs no call.
        try:
            registered = _TO_WIRE[kind]
        except KeyError:
            # Subclasses of registered types (rare) fall back to an
            # isinstance scan before giving up.
            for base, candidate in _TO_WIRE.items():
                if isinstance(value, base):
                    registered = candidate
                    break
            else:
                raise CodecError(
                    f"cannot encode value of type {kind.__name__}: {value!r}"
                ) from None
        if depth > MAX_DEPTH:
            raise _too_deep()
        prefix, encode = registered
        out += prefix
        _encode_into(encode(value), out, depth + 1)


def encode_value(value: Any) -> bytes:
    """Encode any supported value to its canonical wire bytes."""
    out = bytearray()
    _encode_into(value, out, 1)
    return bytes(out)


# -- decoding ----------------------------------------------------------------

#: Tags as the ints ``data[pos]`` reads.
_N, _T, _F, _I, _R, _S, _B, _L, _P, _D, _O = b"NTFIRSBLPDO"
#: Tags followed by a length or a count.
_COUNTED = b"SBLPD"
#: Bytes of a decimal number, as ``data[pos]`` reads them.
_ZERO, _NINE, _MINUS, _SEMICOLON = b"09-;"
#: An integer is read digit by digit up to 18 digits; a longer one takes
#: :func:`_long_integer`, ``int``'s parse and its digit limit.
_LONG = 10**17


def _long_integer(data: bytes, start: int) -> Tuple[int, int]:
    """The integer of more than 18 digits written at ``data[start:]``, and
    the offset of the ``;`` after it."""
    end = data.index(b";", start)
    digits = data[start:end]
    value = int(digits)
    if digits != b"%d" % value:
        raise CodecError(f"integer {digits!r} at offset {start} is not canonical")
    return value, end


def _decode_at(data: bytes, pos: int, stop: int) -> Tuple[Any, int]:
    """The value written at ``data[pos:stop]`` and the offset just past it.

    One loop over the bytes.  The innermost open container is ``items``: a
    list of preallocated slots, or the dict being filled, whose pending key is
    ``key``.  ``opener`` is its tag, ``index`` its next slot and ``size`` its
    slot count (two per dict entry, a registered object's name and payload);
    the containers around it wait in ``parent``, a chain of tuples, and
    ``items`` is ``None`` while none is open.
    """
    depth = opener = index = size = 0
    items = key = parent = None
    while True:
        tag = data[pos]
        if tag in _COUNTED:
            # An announced number is not trusted: it must be written the way
            # ``%d`` writes it (digits, no leading zero) and lie in ``0 <= n
            # <= stop - start``.  Every element takes at least a byte, so the
            # same bound holds for counts; the digits are read until the
            # number passes it, so ``L999999999;`` costs a few loop turns
            # instead of a billion.
            pos += 1
            length = data[pos] - _ZERO
            pos += 1
            byte = data[pos]
            if 0 < length <= 9:
                while _ZERO <= byte <= _NINE:
                    length = 10 * length + byte - _ZERO
                    if length >= stop - pos:
                        break
                    pos += 1
                    byte = data[pos]
            elif length:
                byte = None  # not a digit
            if byte != _SEMICOLON or pos + length >= stop:
                raise CodecError(
                    f"length at offset {pos} is malformed or exceeds the buffer"
                )
            pos += 1
            if tag == _S:
                value = str(data[pos : pos + length], "utf-8")
                pos += length
            elif tag == _B:
                value = data[pos : pos + length]
                pos += length
            elif not length:
                value = [] if tag == _L else () if tag == _P else {}
            else:
                if depth == MAX_DEPTH:
                    raise _too_deep()
                depth += 1
                parent = (opener, items, index, size, key, parent)
                if tag == _D:
                    opener, items, index, size = tag, {}, 0, 2 * length
                else:
                    opener, items, index, size = tag, [None] * length, 0, length
                continue
        elif tag == _I:
            # The same rules, and a ``-`` only before a digit other than 0.
            start = pos + 1
            negative = data[start] == _MINUS
            pos = start + negative
            value = data[pos] - _ZERO
            pos += 1
            byte = data[pos]
            if 0 < value <= 9:
                while _ZERO <= byte <= _NINE and value < _LONG:
                    value = 10 * value + byte - _ZERO
                    pos += 1
                    byte = data[pos]
                if _ZERO <= byte <= _NINE:
                    value, pos = _long_integer(data, start)
                    byte = _SEMICOLON
                elif negative:
                    value = -value
            elif value or negative:
                byte = None  # not a digit, or "-0"
            if byte != _SEMICOLON:
                raise CodecError(f"integer at offset {start} is not canonical")
            pos += 1
        elif tag == _N:
            value = None
            pos += 1
        elif tag == _T:
            value = True
            pos += 1
        elif tag == _F:
            value = False
            pos += 1
        elif tag == _R:
            raw = data[pos + 1 : pos + 9]
            (value,) = _DOUBLE.unpack(raw)
            if _DOUBLE.pack(value) != raw:
                raise CodecError(f"float at offset {pos + 1} does not round-trip")
            pos += 9
        elif tag == _O:
            if depth == MAX_DEPTH:
                raise _too_deep()
            depth += 1
            parent = (opener, items, index, size, key, parent)
            opener, items, index, size = tag, [None, None], 0, 2
            pos += 1
            continue
        else:
            raise CodecError(f"unknown wire tag {bytes((tag,))!r} at offset {pos}")
        # ``value`` is complete: it fills the next slot of the innermost open
        # container, and every container that completes fills its parent's.
        while items is not None:
            if opener != _D:
                items[index] = value
            elif index & 1:
                items[key] = value
            else:
                key = value
            index += 1
            if index < size:
                break
            value = items
            if opener == _P:
                value = tuple(items)
            elif opener == _D:
                if 2 * len(items) != size:
                    raise CodecError(f"dict ending at offset {pos} repeats a key")
            elif opener == _O:
                name, payload = items
                try:
                    decode = _FROM_WIRE[name]
                except KeyError:
                    raise CodecError(f"unknown wire object kind {name!r}") from None
                value = decode(payload)
            depth -= 1
            opener, items, index, size, key, parent = parent
        else:
            # No container is open: ``value`` is the whole value.
            return value, pos


def decode_value(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    The bytes come from a peer, so whatever they make the walk or a registered
    ``decode`` raise — running off the buffer, an unhashable dict key, a
    payload of the wrong shape — surfaces as :class:`CodecError`, the one
    exception a transport has to expect.
    """
    stop = len(data)
    try:
        value, pos = _decode_at(data, 0, stop)
    except (LookupError, ValueError, TypeError, AttributeError, struct.error) as exc:
        raise CodecError(f"truncated or corrupt wire value: {exc}") from exc
    if pos != stop:
        raise CodecError(f"{stop - pos} trailing bytes after wire value")
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


def decode_message(data: bytes, topics: Optional[TopicTable] = None) -> Message:
    """Rebuild a :class:`Message` from :func:`encode_message` bytes.

    The topic is resolved against ``topics`` — the receiving node's table,
    so a topic it uses decodes to its own interned object — or, without one,
    decodes to a private topic.

    The decoded envelope gets a fresh local ``uid`` (uids are process-local
    tie-breakers, not wire identity).  Both envelope shapes decode: the bare
    5-tuple and the traced 6-tuple, whose ``(trace_id, span_id)`` tail is
    restored as the message's ``trace_ctx``.  Every field a transport reads
    before a handler sees the message is type-checked here: an unhashable
    recipient or a topic segment ``int`` refuses (``"²"`` is a digit) would
    otherwise raise out of the reader instead of costing one dropped frame.
    """
    fields = decode_value(data)
    if type(fields) is not tuple or len(fields) not in (5, 6):
        raise CodecError("wire envelope is not a 5- or 6-tuple")
    sender, recipient, topic_text, kind, body = fields[:5]
    if (
        type(sender) is not int
        or (recipient is not None and type(recipient) is not int)
        or type(topic_text) is not str
        or type(kind) is not str
        or type(body) is not dict
    ):
        raise CodecError(
            "wire envelope has a sender, recipient, topic, kind or body of the wrong type"
        )
    try:
        topic = Topic.parse(topic_text) if topics is None else topics.from_wire(topic_text)
    except ValueError as exc:
        raise CodecError(f"wire topic {topic_text!r} does not parse: {exc}") from exc
    message = Message(
        sender=sender, recipient=recipient, protocol=topic, kind=kind, body=body
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
    memoised and feeds the socket transport's byte counters, which must
    report the same number whether or not tracing happens to have stamped the
    message.  The traced frame a socket actually writes is a handful of bytes
    longer.
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
    # The one place bytes become a vote (``repro.consensus.certificates``,
    # "Where a vote is parsed"); a short name, as every vote-bearing frame
    # carries it.
    register_object("vote", SignedVote, SignedVote.to_payload, vote_from_payload)
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
