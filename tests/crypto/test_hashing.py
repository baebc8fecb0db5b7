"""Unit tests for canonical hashing."""

import enum
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import canonical_bytes, hash_payload, sha256_hex
from repro.ledger.transaction import Transaction, TxInput, TxOutput


class TestCanonicalBytes:
    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_set_order_independent(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_list_order_dependent(self):
        assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])

    def test_type_distinction(self):
        # 1 (int), 1.0 (float), "1" (str) and True must not collide.
        encodings = {
            canonical_bytes(1),
            canonical_bytes(1.0),
            canonical_bytes("1"),
            canonical_bytes(True),
        }
        assert len(encodings) == 4

    def test_nested_structures(self):
        payload = {"txs": [("a", 1), ("b", 2)], "meta": {"round": 3}}
        assert canonical_bytes(payload) == canonical_bytes(
            {"meta": {"round": 3}, "txs": [("a", 1), ("b", 2)]}
        )

    def test_bytes_and_none(self):
        assert canonical_bytes(None) == b"N;"
        assert canonical_bytes(b"xyz") != canonical_bytes("xyz")

    def test_string_length_prefix_prevents_ambiguity(self):
        assert canonical_bytes(["ab", "c"]) != canonical_bytes(["a", "bc"])

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonical_bytes(Opaque())

    def test_object_with_to_payload(self):
        class Wrapped:
            def to_payload(self):
                return {"v": 7}

        assert canonical_bytes(Wrapped()) == b"O" + canonical_bytes({"v": 7})


class TestHashPayload:
    def test_deterministic(self):
        assert hash_payload({"x": [1, 2, 3]}) == hash_payload({"x": [1, 2, 3]})

    def test_distinct_payloads_distinct_hashes(self):
        assert hash_payload({"x": 1}) != hash_payload({"x": 2})

    def test_is_hex_sha256(self):
        digest = hash_payload("hello")
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_known_vector(self):
        assert (
            sha256_hex(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -2


class Colour(str, enum.Enum):
    RED = "red"


class Size(int, enum.Enum):
    """An int mixin whose ``str`` is its name, not its value."""

    BIG = 3


class Name(str):
    pass


class Wrapped:
    def __init__(self, payload: Any):
        self.payload = payload

    def to_payload(self):
        return self.payload


class Opaque:
    pass


#: The hash pre-image format, one vector per supported type, as recorded
#: before the encoder dispatched on exact types.  A byte that moves here
#: moves every transaction id, proposal digest and signed statement.
KNOWN_ANSWERS = [
    (None, b"N;"),
    (True, b"B1;"),
    (False, b"B0;"),
    (0, b"I0;"),
    (-17, b"I-17;"),
    (2**70, b"I1180591620717411303424;"),
    (-(2**64) - 1, b"I-18446744073709551617;"),
    (-0.0, b"F-0.0;"),
    (1e300, b"F1e+300;"),
    (0.1, b"F0.1;"),
    ("héllo ☃", b"S10:h\xc3\xa9llo \xe2\x98\x83;"),
    ("", b"S0:;"),
    (b"\x00\xffz", b"Y3:\x00\xffz;"),
    ([1, "a"], b"L2:I1;S1:a;;"),
    ((1, "a"), b"L2:I1;S1:a;;"),
    ({3, 1, 2}, b"E3:I1;I2;I3;;"),
    (frozenset({"b", "a"}), b"E2:S1:a;S1:b;;"),
    (
        {"b": 1, 2: "x", None: [], (1,): b""},
        b"D4:I2;S1:x;L1:I1;;Y0:;N;L0:;S1:b;I1;;",
    ),
    (
        {"txs": [("a", 1)], "meta": {"round": {True, 0.5}}},
        b"D2:S3:txs;L1:L2:S1:a;I1;;;S4:meta;D1:S5:round;E2:B1;F0.5;;;;",
    ),
    (Level.HIGH, b"I-2;"),
    ([Level.LOW], b"L1:I1;;"),
    (Colour.RED, b"S3:red;"),
    (Name("né"), b"S3:n\xc3\xa9;"),
    (Wrapped({"v": [7, "x"]}), b"OD1:S1:v;L2:I7;S1:x;;;"),
    (
        Transaction(
            inputs=(TxInput("genesis:0", "acct-a", 5),),
            outputs=(TxOutput("acct-b", 3), TxOutput("acct-a", 2)),
            nonce=1,
        ),
        b"OD2:S4:body;D3:S5:nonce;I1;S6:inputs;L1:D3:S6:amount;I5;S7:account;"
        b"S6:acct-a;S7:utxo_id;S9:genesis:0;;;S7:outputs;L2:D2:S6:amount;I3;"
        b"S7:account;S6:acct-b;;D2:S6:amount;I2;S7:account;S6:acct-a;;;;"
        b"S5:tx_id;S64:24a9086661a8d5ea074eeef2a6e309b7364a4665fd0889620bfcdb1ae6ba31c0;;",
    ),
]


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "value, expected", KNOWN_ANSWERS, ids=[repr(v)[:40] for v, _ in KNOWN_ANSWERS]
    )
    def test_encoding_is_frozen(self, value, expected):
        assert canonical_bytes(value) == expected

    def test_transaction_digests_are_frozen(self):
        tx = KNOWN_ANSWERS[-1][0]
        assert tx.tx_id == (
            "24a9086661a8d5ea074eeef2a6e309b7364a4665fd0889620bfcdb1ae6ba31c0"
        )
        assert hash_payload(tx) == (
            "e476796ab40dda8b2eca7ef595ea165d4753b5f6148bb77e0fcbae5a4c869151"
        )


def _reference_encode(value: Any) -> bytes:
    """The encoder as it stood before it dispatched on exact types: an
    ``isinstance`` chain, one generator per container.  The oracle of
    :class:`TestMatchesReference`; nothing else calls it."""
    if value is None:
        return b"N;"
    if isinstance(value, bool):
        return b"B1;" if value else b"B0;"
    if isinstance(value, int):
        encoded = str(value).encode("ascii")
        return b"I" + encoded + b";"
    if isinstance(value, float):
        encoded = repr(value).encode("ascii")
        return b"F" + encoded + b";"
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"S" + str(len(encoded)).encode("ascii") + b":" + encoded + b";"
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value + b";"
    if isinstance(value, (list, tuple)):
        inner = b"".join(_reference_encode(item) for item in value)
        return b"L" + str(len(value)).encode("ascii") + b":" + inner + b";"
    if isinstance(value, (set, frozenset)):
        encoded_items = sorted(_reference_encode(item) for item in value)
        inner = b"".join(encoded_items)
        return b"E" + str(len(value)).encode("ascii") + b":" + inner + b";"
    if isinstance(value, dict):
        encoded_items = sorted(
            (_reference_encode(key), _reference_encode(val)) for key, val in value.items()
        )
        inner = b"".join(key + val for key, val in encoded_items)
        return b"D" + str(len(value)).encode("ascii") + b":" + inner + b";"
    # Objects that memoise their own canonical encoding (e.g. transactions,
    # which are immutable once built and re-hashed on every proposal digest)
    # short-circuit the recursive walk entirely.
    cached = getattr(value, "canonical_bytes_cached", None)
    if callable(cached):
        return cached()
    # Objects that know how to serialise themselves participate transparently.
    to_payload = getattr(value, "to_payload", None)
    if callable(to_payload):
        return b"O" + _reference_encode(to_payload())
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")


_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.text(),
    st.binary(),
    st.sampled_from([Level.LOW, Level.HIGH, Colour.RED, Size.BIG]),
    st.text().map(Name),
)
_hashables = st.recursive(
    _hashable_leaves,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=6,
)
_payloads = st.recursive(
    _hashables,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_hashables, children, max_size=5),
        st.sets(_hashables, max_size=5),
        children.map(Wrapped),
    ),
    max_leaves=25,
)


class TestMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(_payloads)
    def test_byte_identical_to_the_reference_encoder(self, payload):
        assert canonical_bytes(payload) == _reference_encode(payload)


class TestUnsupportedValues:
    @pytest.mark.parametrize(
        "payload",
        [Opaque(), [1, "a", Opaque()], {Opaque(): 1}, {"a", Opaque()}],
        ids=["top-level", "in-list", "dict-key", "set-member"],
    )
    def test_raises_type_error(self, payload):
        with pytest.raises(TypeError, match="Opaque"):
            canonical_bytes(payload)
