"""What a transfer costs on the byte path, in calls.

On the socket path every replica decodes each proposal's transfers, checks
their signatures and encodes the frames it sends.  As in
``test_call_budget.py`` the count is the interpreter's, under ``cProfile``,
summed over ``Profile.getstats()``, so the gate cannot flake; it fails when
a frame costs more calls to encode or decode, or a signature check encodes
the body it already holds the digest of.
"""

import cProfile
import gc

import pytest

from repro.crypto import hashing
from repro.network.codec import decode_message, encode_message

from tests.network.test_codec import _init_of_50_transfers, _messages_of_every_kind


def _profiled(call):
    """``call()``'s result and its profile.  The collector is off while it
    runs: a collection would count the finalizers of whatever earlier tests
    left behind."""
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        result = call()
        profile.disable()
    finally:
        gc.enable()
    return result, profile


def _calls(call) -> int:
    return sum(entry.callcount for entry in _profiled(call)[1].getstats())


def _calls_of(profile, name: str) -> int:
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if getattr(entry.code, "co_name", None) == name
    )


@pytest.fixture(scope="module")
def sent():
    """The pinned INIT-50 and CONFIRM messages, and their senders' topic tables."""
    messages, topics = _messages_of_every_kind()
    return {"INIT-50": _init_of_50_transfers(), "CONFIRM": (messages["CONFIRM"], topics)}


#: Calls to encode and to decode each frame (a decoded topic already known
#: to the table).  INIT-50 took 5 956 and 5 336, CONFIRM 368 and 196, while
#: the encoder spent a frame per leaf and the decoder called ``bytes.index``,
#: ``int()`` and the ``%d`` re-format per length and integer.
FRAME_CALLS = {"INIT-50": (4_541, 3_165), "CONFIRM": (258, 16)}


@pytest.mark.parametrize("kind", sorted(FRAME_CALLS))
def test_encoding_and_decoding_a_frame(sent, kind):
    message, topics = sent[kind]
    frame = encode_message(message)
    decode_message(frame, topics)  # the table learns the topic's text
    assert (
        _calls(lambda: encode_message(message)),
        _calls(lambda: decode_message(frame, topics)),
    ) == FRAME_CALLS[kind]


def test_verifying_a_decoded_init_of_50_transfers(sent, monkeypatch):
    message, topics = sent["INIT-50"]
    transfers = decode_message(encode_message(message), topics).body["value"]
    assert len(transfers) == 50
    encoded = []
    encode = hashing.canonical_bytes

    def recording(payload):
        nonlocal encoded
        encoded += (payload,)  # no call of its own: only its frame is counted
        return encode(payload)

    monkeypatch.setattr(hashing, "canonical_bytes", recording)

    def verify():
        for transfer in transfers:
            transfer.verify_signatures()

    _, profile = _profiled(verify)
    # The signature is checked against ``tx_id``: no body is rebuilt or
    # encoded.  The one canonical encode per transfer is its source's address
    # binding, a wallet name's digest.  3 802 calls, with 50 more encodes,
    # while each check rebuilt and hashed the body.
    assert _calls_of(profile, "body_payload") == 0
    assert encoded == [
        ["wallet-address", transfer.signer_names[transfer.inputs[0].account]]
        for transfer in transfers
    ]
    calls = sum(entry.callcount for entry in profile.getstats())
    assert calls - _calls_of(profile, "recording") == 1_402
