"""The decoder against a reference that reads numbers the plain way.

:func:`repro.network.codec.decode_value` reads a length, a count or an
integer digit by digit in its own loop.  The reference below is a small
recursive walk of the same format that reads each number with
``bytes.index`` (to find the ``;``), ``int()`` and a comparison with the
``b"%d"`` re-format, the rules the codec documents.  On any bytes the two
must agree: the same value, or both a :class:`CodecError`.
"""

import struct
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.network import codec
from repro.network.codec import CodecError, decode_value

from tests.network.test_codec import (
    WIRE_PINS,
    _frames_of_every_kind,
    _init_of_50_transfers,
)

_DOUBLE = struct.Struct(">d")


def _reference(data, sites=None):
    """``decode_value(data)`` by the plain rules; ``sites`` collects the
    ``(start, end)`` offsets of every number's digits."""
    stop = len(data)

    def number(pos):
        end = data.index(b";", pos)
        digits = data[pos:end]
        value = int(digits)
        if digits != b"%d" % value:
            raise CodecError(f"number {digits!r} at offset {pos} is not canonical")
        if sites is not None:
            sites.append((pos, end))
        return value, end + 1

    def walk(pos, depth):
        tag = data[pos : pos + 1]
        if tag in (b"S", b"B", b"L", b"P", b"D"):
            length, pos = number(pos + 1)
            if length < 0 or pos - 1 + length >= stop:
                raise CodecError(f"length {length} exceeds the buffer")
            if tag == b"S":
                return str(data[pos : pos + length], "utf-8"), pos + length
            if tag == b"B":
                return data[pos : pos + length], pos + length
            if length and depth == codec.MAX_DEPTH:
                raise CodecError("too deep")
            if tag == b"D":
                items = {}
                for _ in range(length):
                    key, pos = walk(pos, depth + 1)
                    items[key], pos = walk(pos, depth + 1)
                if len(items) != length:
                    raise CodecError("repeated key")
                return items, pos
            items = []
            for _ in range(length):
                item, pos = walk(pos, depth + 1)
                items.append(item)
            return (tuple(items) if tag == b"P" else items), pos
        if tag == b"I":
            return number(pos + 1)
        if tag in (b"N", b"T", b"F"):
            return {b"N": None, b"T": True, b"F": False}[tag], pos + 1
        if tag == b"R":
            raw = data[pos + 1 : pos + 9]
            (value,) = _DOUBLE.unpack(raw)
            if _DOUBLE.pack(value) != raw:
                raise CodecError("float does not round-trip")
            return value, pos + 9
        if tag == b"O":
            if depth == codec.MAX_DEPTH:
                raise CodecError("too deep")
            name, pos = walk(pos + 1, depth + 1)
            payload, pos = walk(pos, depth + 1)
            return codec._FROM_WIRE[name](payload), pos
        raise CodecError(f"unknown tag {tag!r}")

    try:
        value, pos = walk(0, 0)
    except (LookupError, ValueError, TypeError, AttributeError, struct.error) as exc:
        raise CodecError(str(exc)) from exc
    if pos != stop:
        raise CodecError("trailing bytes")
    return value


def _identical(one, other):
    """Equal, of the same types all the way down, floats compared bit for bit."""
    if type(one) is not type(other):
        return False
    if type(one) in (list, tuple):
        return len(one) == len(other) and all(map(_identical, one, other))
    if type(one) is dict:
        return len(one) == len(other) and all(
            _identical(k1, k2) and _identical(v1, v2)
            for (k1, v1), (k2, v2) in zip(one.items(), other.items())
        )
    if type(one) is float:
        return _DOUBLE.pack(one) == _DOUBLE.pack(other)
    return one == other


def _agree(data):
    try:
        expected = _reference(data)
    except CodecError:
        with pytest.raises(CodecError):
            decode_value(data)
        return
    assert _identical(decode_value(data), expected)


@pytest.fixture(scope="module")
def framed():
    """Every pinned frame, and the offsets of the numbers in it."""
    frames = _frames_of_every_kind()
    message, _ = _init_of_50_transfers()
    frames["INIT-50"] = codec.encode_message(message)
    framed = {}
    for kind, frame in frames.items():
        sites = []
        _reference(frame, sites)
        framed[kind] = (frame, sites)
    return framed


#: What goes into a number: a digit, and the bytes ``int()`` would take.
_INSERTED = b"0123456789+- _"


class TestDecoderMatchesTheReference:
    def test_the_pinned_frames_decode_alike(self, framed):
        assert set(framed) == set(WIRE_PINS)
        for frame, sites in framed.values():
            assert sites
            _agree(frame)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        st.binary(max_size=48)
        | st.text(alphabet="NTFIRSBLPDO0123456789;-+ _", max_size=32).map(str.encode)
    )
    @example(b"I" + b"9" * 18 + b";")
    @example(b"I-" + b"9" * 19 + b";")
    @example(b"I" + b"1" + b"0" * 18 + b";")
    @example(b"I-0;")
    @example(b"I00;")
    @example(b"I-;")
    @example(b"S0;")
    @example(b"S00;")
    @example(b"L1;I-12;")
    @example(b"S1;")
    def test_random_bytes(self, data):
        _agree(data)

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(
        st.sampled_from(sorted(WIRE_PINS)),
        st.floats(0, 1, exclude_max=True),
        st.sampled_from(["insert", "delete", "replace"]),
        st.floats(0, 1),
        st.sampled_from(_INSERTED),
    )
    def test_a_mutated_number(self, framed, kind, which, how, where, byte):
        frame, sites = framed[kind]
        start, end = sites[int(which * len(sites))]
        if how == "delete":
            at = start + int(where * (end - start - 1))
            mutated = frame[:at] + frame[at + 1 :]
        else:
            at = start + int(where * (end - start))
            rest = at + 1 if how == "replace" and at < end else at
            mutated = frame[:at] + bytes([byte]) + frame[rest:]
        _agree(mutated)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from(sorted(WIRE_PINS)),
        st.floats(0, 1, exclude_max=True),
    )
    def test_a_truncated_frame(self, framed, kind, where):
        frame, _ = framed[kind]
        _agree(frame[: int(where * len(frame))])

    @pytest.mark.parametrize("tag", [b"S", b"B", b"L", b"P", b"D", b"I", b"I-"])
    def test_a_million_digit_number_is_refused_at_once(self, tag):
        data = tag + b"9" * 1_000_000 + b";" + b"N"
        started = time.perf_counter()
        with pytest.raises(CodecError):
            decode_value(data)
        assert time.perf_counter() - started < 0.5
        with pytest.raises(CodecError):
            _reference(data)
