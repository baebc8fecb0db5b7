"""Round-trip property tests for the wire codec.

Every value a protocol body can carry — primitives, containers with exotic
but legal shapes (int dict keys, tuples inside dicts), and every registered
protocol object — must encode to bytes and decode back to an **equal** value,
and decoded signed content must still verify against the same PKI.
"""

import hashlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.consensus.certificates import (
    Certificate,
    SignedVote,
    VoteKind,
    make_vote,
    verify_vote,
)
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignedPayload
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.transaction import TxInput, TxOutput
from repro.ledger.workload import TransferWorkload
from repro.network import codec
from repro.network.codec import (
    FRAME_HEADER_SIZE,
    MAX_DEPTH,
    CodecError,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    frame_message,
    message_frame_size,
    registered_kinds,
)
from repro.network.message import Message
from repro.network.router import Router
from repro.network.topic import Topic, TopicTable
from repro.obs.trace import TraceContext
from repro.smr.replica import BaseReplica

from tests.consensus.harness import decided_asmr_committee


def roundtrip(value):
    return decode_value(encode_value(value))


def _provisioned_hosts(committee):
    """Unbound replicas: signing and verifying need no transport."""
    keys = KeyRegistry.provision(committee)
    return keys, {
        replica: BaseReplica(replica, committee, keys.signer_for(replica), keys.registry)
        for replica in committee
    }


class TestPrimitivesAndContainers:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**80,
            -(2**80),
            0.0,
            -1.5,
            3.141592653589793,
            "",
            "hello",
            "uniçøde ☃",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, 2, 3],
            (),
            (1, "two", 3.0),
            {},
            {"a": 1},
        ],
    )
    def test_scalar_roundtrip(self, value):
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_int_dict_keys_survive(self):
        # Protocol bodies key proposals and bitmasks by int slot; JSON-style
        # stringification would corrupt them.
        value = {0: "a", 1: [1, 2], -3: {"nested": (1, 2)}}
        decoded = roundtrip(value)
        assert decoded == value
        assert all(type(key) is int for key in decoded)

    def test_tuple_list_distinction_preserved(self):
        value = {"t": (1, 2), "l": [1, 2]}
        decoded = roundtrip(value)
        assert type(decoded["t"]) is tuple
        assert type(decoded["l"]) is list

    def test_bool_not_decoded_as_int(self):
        decoded = roundtrip({"flag": True, "count": 1})
        assert decoded["flag"] is True
        assert type(decoded["count"]) is int

    def test_truncated_buffer_raises(self):
        data = encode_value({"key": "value"})
        with pytest.raises(CodecError):
            decode_value(data[:-3])

    def test_trailing_bytes_raise(self):
        with pytest.raises(CodecError):
            decode_value(encode_value(7) + b"junk")

    def test_unencodable_object_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())


class TestRegisteredObjects:
    def test_all_expected_kinds_registered(self):
        assert registered_kinds() == [
            "block",
            "certificate",
            "proof-of-fraud",
            "signed-payload",
            "transaction",
            "tx-input",
            "tx-output",
            "vote",
        ]

    def test_signed_payload_roundtrip(self):
        keys, hosts = _provisioned_hosts([0, 1])
        signed = hosts[0].sign({"x": 1})
        decoded = roundtrip(signed)
        assert decoded == signed
        assert isinstance(decoded, SignedPayload)
        assert hosts[1].verify({"x": 1}, decoded)

    def test_signed_vote_roundtrip_and_verification(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        vote = make_vote(hosts[0], "ctx", 3, VoteKind.AUX, "digest-abc")
        decoded = roundtrip(vote)
        assert decoded == vote
        assert isinstance(decoded, SignedVote)
        assert verify_vote(decoded, hosts[1])

    def test_certificate_roundtrip_and_vote_verification(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        votes = tuple(
            make_vote(hosts[r], "ctx", 0, VoteKind.DECIDE, "digest-xyz")
            for r in (0, 1, 2)
        )
        certificate = Certificate(
            context="ctx", round=0, kind=VoteKind.DECIDE,
            value_digest="digest-xyz", votes=votes,
        )
        decoded = roundtrip(certificate)
        assert decoded == certificate
        assert isinstance(decoded, Certificate)
        assert all(verify_vote(vote, hosts[0]) for vote in decoded.votes)

    def test_proof_of_fraud_roundtrip(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        first = make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(0))
        second = make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(1))
        pof = ProofOfFraud(culprit=2, first=first, second=second)
        decoded = roundtrip(pof)
        assert decoded == pof
        assert isinstance(decoded, ProofOfFraud)
        assert decoded.is_well_formed()
        assert verify_vote(decoded.first, hosts[0])
        assert verify_vote(decoded.second, hosts[0])

    def test_transaction_roundtrip_still_valid(self):
        workload = TransferWorkload(num_accounts=4, seed=7)
        transaction = workload.batch(1)[0]
        decoded = roundtrip(transaction)
        assert decoded == transaction
        assert decoded.tx_id == transaction.tx_id
        assert decoded.is_valid()

    def test_tx_input_output_roundtrip(self):
        tx_input = TxInput(utxo_id="u-1", account="alice", amount=7)
        tx_output = TxOutput(account="bob", amount=7)
        assert roundtrip(tx_input) == tx_input
        assert roundtrip(tx_output) == tx_output

    def test_block_roundtrip(self):
        genesis, _ = make_genesis_block([("alice", 100), ("bob", 50)])
        workload = TransferWorkload(num_accounts=4, seed=3)
        block = Block(
            index=1,
            parent_hash=genesis.block_hash,
            transactions=tuple(workload.batch(3)),
            proposers=(0, 2),
            timestamp=1.25,
        )
        decoded = roundtrip(block)
        assert decoded == block
        assert decoded.block_hash == block.block_hash


class TestMessageEnvelopes:
    def test_envelope_roundtrip_preserves_interned_topic(self):
        workload = TransferWorkload(num_accounts=4, seed=1)
        topics = TopicTable()
        message = Message(
            sender=3,
            recipient=None,
            protocol=topics.of("sbc", 0, 5, "rbc", 2),
            kind="INIT",
            body={"proposal": workload.batch(2), "instance": 5},
        )
        decoded = decode_message(encode_message(message), topics)
        assert decoded.sender == 3
        assert decoded.recipient is None
        assert decoded.topic is message.topic  # interning survives the wire
        assert decoded.kind == "INIT"
        assert decoded.body == message.body
        # Without a table the topic is a private one that routes alike.
        private = decode_message(encode_message(message)).topic
        assert private is not message.topic and private == message.topic

    def test_invented_topics_intern_nothing(self):
        """A peer can put any topic in an envelope: decoding 10 000 invented
        ones adds nothing to the intern table, and what they decode to still
        routes by its segments."""
        topics = TopicTable()
        topics.of("junk", 0)
        decoded = [
            decode_message(encode_value((1, 0, f"junk:{index}:rbc", "ECHO", {})), topics)
            for index in range(10_000)
        ]
        assert (len(topics), len(topics._by_text)) == (1, 0)
        assert decoded[7].topic == Topic.of("junk", 7, "rbc")
        router, seen = Router(), []
        router.register(("junk", 7), lambda topic, *_: seen.append(topic.segments))
        assert router.dispatch(decoded[7].topic, 1, "ECHO", {})
        assert not router.dispatch(decoded[8].topic, 1, "ECHO", {})
        assert seen == [("junk", 7, "rbc")]

    def test_an_interned_topic_is_found_by_its_text(self):
        topics = TopicTable()
        by_text = topics._by_text
        topic = topics.of("wire", 3, "rbc", 1)
        assert "wire:3:rbc:1" not in by_text
        assert topics.from_wire("wire:3:rbc:1") is topic
        assert by_text["wire:3:rbc:1"] is topic
        assert topics.from_wire("wire:3:rbc:1") is topic
        # Another deployment's table knows nothing of it.
        assert TopicTable().from_wire("wire:3:rbc:1") is not topic

    def test_the_text_index_returns_what_the_parse_returns(self):
        """``("lookalike", "0")`` prints as ``lookalike:0``, which parses to
        ``("lookalike", 0)``: the text indexes whichever topic the parse finds,
        and never one whose text does not parse back to it."""
        topics = TopicTable()
        by_text = topics._by_text
        text_segment = topics.of("lookalike", "0")
        private = topics.from_wire("lookalike:0")
        assert private is not text_segment and private.segments == ("lookalike", 0)
        assert "lookalike:0" not in by_text
        int_segment = topics.of("lookalike", 0)
        assert topics.from_wire("lookalike:0") is int_segment
        assert by_text["lookalike:0"] is int_segment
        # Text the topic does not print as still finds it, unindexed.
        assert topics.from_wire("lookalike:00") is int_segment
        assert "lookalike:00" not in by_text

    def test_frame_is_header_plus_payload(self):
        message = Message(sender=0, recipient=1, protocol="t", kind="K", body={})
        frame = frame_message(message)
        payload = encode_message(message)
        assert frame[FRAME_HEADER_SIZE:] == payload
        assert int.from_bytes(frame[:FRAME_HEADER_SIZE], "big") == len(payload)

    def test_size_bytes_is_exact_frame_length(self):
        # The Message.size_bytes satellite: telemetry byte counters report
        # what the asyncio transport actually writes.
        workload = TransferWorkload(num_accounts=4, seed=2)
        message = Message(
            sender=1,
            recipient=None,
            protocol=Topic.of("sbc", 0, 0, "rbc", 1),
            kind="INIT",
            body={"proposal": workload.batch(2)},
        )
        assert message.size_bytes() == len(frame_message(message))
        assert message.size_bytes() == message_frame_size(message)

    def test_trace_context_rides_the_wire(self):
        # Tentpole: a payment's causal chain must survive process hops, so
        # the envelope optionally carries (trace id, span id).
        message = Message(
            sender=0, recipient=2, protocol="t", kind="K", body={"x": 1}
        )
        message.trace_ctx = TraceContext(41, 17)
        decoded = decode_message(encode_message(message))
        assert decoded.trace_ctx is not None
        assert decoded.trace_ctx.trace_id == 41
        assert decoded.trace_ctx.span_id == 17
        assert decoded.body == message.body

    def test_untraced_frames_stay_byte_identical(self):
        # Backward compat pin: a message without trace context encodes to the
        # exact bytes the pre-trace codec produced (the 5-tuple envelope), so
        # old recorded frames and mixed-version runs interoperate.
        message = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        golden = bytes.fromhex("50353b49313b4e53313b7453313b4b44313b53313b6e49373b")
        assert encode_message(message) == golden
        decoded = decode_message(golden)
        assert decoded.trace_ctx is None
        assert decoded.body == {"n": 7}

    def test_include_trace_false_strips_the_tail(self):
        traced = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        traced.trace_ctx = TraceContext(5, 9)
        bare = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        assert encode_message(traced, include_trace=False) == encode_message(bare)
        assert len(encode_message(traced)) > len(encode_message(bare))

    def test_size_bytes_ignores_trace_context(self):
        # Byte-identity pin: size_bytes feeds the socket transport's byte
        # counters and is memoised, so stamping a context after the fact must
        # not change it — byte counters agree with tracing on/off.
        message = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        before = message.size_bytes()
        message.trace_ctx = TraceContext(5, 9)
        assert message.size_bytes() == before
        assert message_frame_size(message) == before

    def test_protocol_shaped_body_roundtrip(self):
        # The CONFIRM/POFS body shapes: int-keyed proposal maps, digests,
        # nested lists — everything the SBC layer actually puts on the wire.
        workload = TransferWorkload(num_accounts=4, seed=5)
        message = Message(
            sender=0,
            recipient=2,
            protocol=Topic.of("sbc", 0, 1, "confirm"),
            kind="CONFIRM",
            body={
                "instance": 1,
                "proposals": {0: [tx.tx_id for tx in workload.batch(2)]},
                "digest": hash_payload({"any": "thing"}),
            },
        )
        decoded = decode_message(encode_message(message))
        assert decoded.body == message.body


# -- hostile bytes -----------------------------------------------------------------


class TestAnnouncedLengths:
    """A length or count a peer announces is bounded by the bytes that follow.

    Before the bound ``L3000000;S-4;`` built a three-million-element list out
    of 13 bytes (the negative length walks ``pos`` backwards, so each element
    re-reads the same four bytes) and ``L999999999;S-4;`` would have held the
    event loop for minutes — ahead of any look at the envelope.
    """

    @pytest.mark.parametrize(
        "data",
        [
            b"L3000000;S-4;",
            b"L999999999;S-4;",
            b"P999999999;S-4;",
            b"D999999999;S-4;N",
            b"S-4;",
            b"B-1;",
            b"S+2;ab",
            b"S 2;ab",
            b"S2_0;" + b"a" * 20,
            b"S02;ab",
            b"S3;ab",
            b"L2;N",
        ],
    )
    def test_rejected_at_once(self, data):
        started = time.perf_counter()
        with pytest.raises(CodecError):
            decode_value(data)
        assert time.perf_counter() - started < 0.05

    def test_exact_lengths_still_decode(self):
        assert decode_value(b"S0;") == "" and decode_value(b"L0;") == []
        assert decode_value(b"S2;ab") == "ab" and decode_value(b"L2;NN") == [None, None]
        assert decode_value(b"D1;S0;B0;") == {"": b""}

    @pytest.mark.parametrize(
        "data",
        [
            b"D1;L0;N",  # unhashable dict key
            b"OL0;N",  # unhashable object name
            b"OS14;signed-payloadD0;",  # registered decoder handed the wrong shape
            b"OS4;voteL0;",
            b"OS11;signed-voteP0;",  # the vote's wire name before it was "vote"
            b"L1;" * 5000 + b"N",  # nesting past MAX_DEPTH
        ],
    )
    def test_whatever_else_goes_wrong_is_a_codec_error(self, data):
        with pytest.raises(CodecError):
            decode_value(data)

    @pytest.mark.parametrize(
        "fields",
        [
            (1, None, 7, "K", {}),
            (1, None, b"t", "K", {}),
            (1, None, "t", ["K"], {}),
            (1, None, "t", "K", [("n", 7)]),
            (1, [], "t", "K", {}),
            (1, "2", "t", "K", {}),
            (None, 2, "t", "K", {}),
            (True, 2, "t", "K", {}),
        ],
    )
    def test_envelope_fields_of_the_wrong_type_are_a_codec_error(self, fields):
        with pytest.raises(CodecError):
            decode_message(encode_value(fields))

    @pytest.mark.parametrize(
        "text", ["t:²", "t:" + "9" * 5000], ids=["superscript-two", "5000-digits"]
    )
    def test_a_topic_segment_int_refuses_is_a_codec_error(self, text):
        # "²".isdigit() holds and int() refuses it: the ValueError used to
        # leave decode_message as itself, past a reader's CodecError handler.
        with pytest.raises(CodecError):
            decode_message(encode_value((1, None, text, "K", {})))


class TestCanonicalBytes:
    """Only the bytes the encoder writes decode: a number is written the way
    ``%d`` writes it, and a dict holds every key it announces."""

    @pytest.mark.parametrize(
        "data",
        [
            b"I05;",
            b"I+5;",
            b"I 5;",
            b"I5_0;",
            b"I-0;",
            b"I;",
            b"D2;I1;NI1;N",  # a repeated key
            b"D2;I1;NTN",  # True == 1: the same key twice
        ],
    )
    def test_non_canonical_bytes_are_refused(self, data):
        with pytest.raises(CodecError):
            decode_value(data)

    def test_canonical_neighbours_decode(self):
        assert [decode_value(b) for b in (b"I5;", b"I-5;", b"I0;", b"I50;")] == [5, -5, 0, 50]
        assert decode_value(b"D2;I1;NI2;N") == {1: None, 2: None}


#: Anything a body may carry: every primitive, every container, hashable keys.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=12)
)
_keys = st.recursive(
    st.integers(-(2**40), 2**40) | st.text(max_size=6) | st.binary(max_size=6),
    lambda children: st.tuples(children, children),
    max_leaves=3,
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=20,
)


def _same(decoded, value):
    """Equal *and* of the same types all the way down (``1 == True == 1.0``)."""
    if type(decoded) is not type(value):
        return False
    if isinstance(value, (list, tuple)):
        return len(decoded) == len(value) and all(map(_same, decoded, value))
    if isinstance(value, dict):
        return len(decoded) == len(value) and all(
            _same(dk, k) and _same(dv, v)
            for (dk, dv), (k, v) in zip(decoded.items(), value.items())
        )
    return decoded == value


def _messages_of_every_kind():
    """One real message of each kind an n=4 committee puts on the wire, and
    the committee's topic table."""
    simulator, replicas, seen = decided_asmr_committee(
        proposal_factory=lambda k, rid: TransferWorkload(num_accounts=4, seed=rid).batch(2)
    )
    first, second = (
        make_vote(replicas[3], "sbc:0:0:bin:0", 0, VoteKind.AUX, hash_payload(value))
        for value in (0, 1)
    )
    replicas[0]._broadcast_pofs([ProofOfFraud(culprit=3, first=first, second=second)])
    simulator.run()
    replicas[0].history.send_catchup([1])
    simulator.run()
    messages = {}
    for message in seen:
        messages.setdefault(message.kind, message)
    return messages, replicas[0].registry.topics


def _frames_of_every_kind():
    """One real frame of each kind an n=4 committee puts on the wire."""
    return {
        kind: encode_message(message)
        for kind, message in _messages_of_every_kind()[0].items()
    }


@pytest.fixture(scope="module")
def frames():
    return _frames_of_every_kind()


KINDS = ("INIT", "ECHO", "READY", "AUX", "DECIDE", "CONFIRM", "POFS")


def _decodes_or_codec_error(data):
    try:
        message = decode_message(data)
    except CodecError:
        return
    assert isinstance(message, Message)


def _plain(value):
    """Primitives and containers only: no registered object anywhere."""
    if type(value) in (list, tuple):
        return all(map(_plain, value))
    if type(value) is dict:
        return all(_plain(key) and _plain(item) for key, item in value.items())
    return value is None or type(value) in (bool, int, float, str, bytes)


def _accepted_only_if_canonical(data):
    """Bytes that decode to a value without a registered object are exactly
    the bytes that value encodes to."""
    try:
        value = decode_value(data)
    except CodecError:
        return
    if _plain(value):
        assert encode_value(value) == data


#: Hostile bytes: anything at all, and strings over the codec's own alphabet.
_hostile_bytes = st.binary(max_size=64) | st.text(
    alphabet="NTFIRSBLPDO0123456789;-", max_size=32
).map(str.encode)


class TestFuzzedDecode:
    """The decode half of the robustness bar: hostile bytes cost a CodecError."""

    def test_every_kind_was_captured_and_decodes(self, frames):
        assert set(KINDS) <= set(frames)
        for kind in KINDS:
            assert decode_message(frames[kind]).kind == kind
        assert b"transaction" in frames["INIT"]

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_random_nested_values_roundtrip(self, value):
        assert _same(decode_value(encode_value(value)), value)

    @settings(max_examples=500, deadline=None)
    @given(_hostile_bytes)
    @example(b"P2;I07;S0;")
    @example(b"L1;D2;S1;kNS1;kT")
    @example(b"I-0;")
    def test_random_bytes_decode_or_raise_codec_error(self, data):
        _decodes_or_codec_error(data)
        _accepted_only_if_canonical(data)

    @settings(max_examples=1500, deadline=None)
    @given(st.sampled_from(KINDS), st.floats(0, 1, exclude_max=True), st.integers(0, 255))
    def test_single_byte_mutations_decode_or_raise_codec_error(
        self, frames, kind, where, byte
    ):
        frame = frames[kind]
        position = int(where * len(frame))
        mutated = frame[:position] + bytes([byte]) + frame[position + 1 :]
        _decodes_or_codec_error(mutated)
        _accepted_only_if_canonical(mutated)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_truncation_raises_codec_error(self, frames, kind):
        frame = frames[kind]
        for length in range(len(frame)):
            with pytest.raises(CodecError):
                decode_message(frame[:length])


# -- nesting -----------------------------------------------------------------------


def _depth(frame, monkeypatch):
    """How deep ``frame`` nests: the least ``MAX_DEPTH`` it decodes under."""
    for bound in range(1, MAX_DEPTH + 1):
        monkeypatch.setattr(codec, "MAX_DEPTH", bound)
        try:
            decode_value(frame)
        except CodecError:
            continue
        return bound
    raise AssertionError("frame nests past MAX_DEPTH")


def _nested(levels, innermost=None):
    value = innermost
    for _ in range(levels):
        value = [value]
    return value


class TestDepthBound:
    """One nesting bound for both halves, far above any frame the protocol sends."""

    def test_deepest_frame_of_every_kind(self, frames, monkeypatch):
        # A CATCHUP nests deepest: envelope, body, records, record,
        # proposals, one proposal, transaction, its payload, inputs, input,
        # its payload.
        depths = {kind: _depth(frame, monkeypatch) for kind, frame in frames.items()}
        assert depths == {
            "INIT": 8,
            "ECHO": 4,
            "READY": 4,
            "BVAL": 2,
            "AUX": 4,
            "DECIDE": 5,
            "CONFIRM": 6,
            "POFS": 5,
            "CATCHUP": 11,
        }
        assert 2 * max(depths.values()) < MAX_DEPTH

    def test_decode_at_the_bound_and_past_it(self):
        assert decode_value(b"L1;" * MAX_DEPTH + b"N") == _nested(MAX_DEPTH)
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            decode_value(b"L1;" * (MAX_DEPTH + 1) + b"N")

    def test_encode_at_the_bound_and_past_it(self):
        assert encode_value(_nested(MAX_DEPTH)) == b"L1;" * MAX_DEPTH + b"N"
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            encode_value(_nested(MAX_DEPTH + 1))

    def test_a_registered_object_is_one_level_above_its_payload(self):
        output = TxOutput(account="bob", amount=7)  # its payload is a dict
        at_bound = encode_value(_nested(MAX_DEPTH - 2, output))
        assert decode_value(at_bound) == _nested(MAX_DEPTH - 2, output)
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            encode_value(_nested(MAX_DEPTH - 1, output))
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            decode_value(b"L1;" + at_bound)

    def test_nesting_thousands_deep_is_a_codec_error_both_ways(self):
        with pytest.raises(CodecError):
            encode_value(_nested(3000))
        with pytest.raises(CodecError):
            decode_value(b"P1;" * 3000 + b"N")


# -- the wire is byte-identical ------------------------------------------------------


def _init_of_50_transfers():
    """The INIT of a committee whose proposals are 50 transfers each, and the
    committee's topic table."""
    _, replicas, seen = decided_asmr_committee(
        proposal_factory=lambda k, rid: TransferWorkload(num_accounts=8, seed=rid).batch(50)
    )
    init = next(message for message in seen if message.kind == "INIT")
    return init, replicas[0].registry.topics


#: ``size_bytes()`` and the sha256 of each frame, as the recursive codec wrote
#: them; the single-pass walks must write every byte the same.  CONFIRM was
#: re-pinned when its body became ``SBCDecision.to_record``, which adds the
#: epoch the instance was decided in (3 072 B before).  AUX and BVAL were
#: re-pinned when binary rounds started at 1 (their round field), CATCHUP
#: when it began to carry decision records, a cursor and the view's
#: committees (7 674 B before), and again when the records of the
#: membership changes replaced the committees and the excluded replicas
#: (9 305 B before), and when the target left it (9 258 B before).  Every
#: vote-bearing frame (AUX, DECIDE, ECHO, INIT, READY) grew by the 8 bytes of
#: the registered ``vote`` object's name when a body's vote became the
#: ``SignedVote`` itself (AUX 290, DECIDE 612, ECHO 351, INIT 1 876, INIT-50
#: 38 215 and READY 353 B before).  DECIDE lost 240 B when it stopped carrying
#: the decider's own vote, which no recipient read (620 B before).
WIRE_PINS = {
    "AUX": (298, "ccf16b35994eb5ca5fbacceaccf036270840e8e5594e6cda2866fd5c7110295e"),
    "BVAL": (62, "8c1a16d2c60cd4b720fe7fdf12da29fbbb3da6cd24881f9eebc7e8518134e921"),
    "CATCHUP": (9235, "98b2b55f3e7abb5e7bbc6e466e3e80dbed2238904a8469e82e8fdf3bd9c4425d"),
    "CONFIRM": (3083, "72013884bb2ae032b94241f3f9e4621fdd0df81e5a4fde74ee596d620027b257"),
    "DECIDE": (380, "28df84a42c3d93600b761fd8cb82aa91d1fd129a8f2d97b01810069e09e6ca28"),
    "ECHO": (359, "9ed101d7b378e49cb373b4b6a9b41b8b1e9800cbd835a29ec1df005466494fa7"),
    "INIT": (1884, "acfcb262a48bc44b9dca721360daeb989704095fcf2fb45a9eb9a45e618cd54c"),
    "INIT-50": (38223, "a57dba86d23a901b6d2979b12cb90aa36b1f1dca845519bb74281039006b392c"),
    "POFS": (495, "a61a70a4eabcc4bc8e6eb37e7640ad2ad36eeb44cb06a5bd6ee715cab323ee73"),
    "READY": (361, "90ddd7c71bed2cb24922eef6d3e1c6c1b1f961f69b61b023d52860c867ed110f"),
}


class TestWireIsByteIdentical:
    @pytest.fixture(scope="class")
    def sent(self):
        """Each kind's message, and the topic table of its sender."""
        messages, topics = _messages_of_every_kind()
        sent = {kind: (message, topics) for kind, message in messages.items()}
        sent["INIT-50"] = _init_of_50_transfers()
        return sent

    def test_every_frame_and_size_is_pinned(self, sent):
        assert {
            kind: (message.size_bytes(), hashlib.sha256(encode_message(message)).hexdigest())
            for kind, (message, _) in sent.items()
        } == WIRE_PINS

    def test_every_frame_decodes_to_what_was_sent(self, sent):
        for message, topics in sent.values():
            decoded = decode_message(encode_message(message), topics)
            assert decoded.topic is message.topic
            assert (decoded.sender, decoded.recipient, decoded.kind) == (
                message.sender,
                message.recipient,
                message.kind,
            )
            assert _same(decoded.body, message.body)
