"""Unit tests for signature schemes and the key registry."""

import pytest

from repro.common.errors import InvalidSignatureError
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    EcdsaSigner,
    SignedPayload,
    SimulatedSigner,
    scheme_for,
)


class TestSimulatedSigner:
    def test_sign_and_verify(self):
        keys = KeyRegistry.provision(range(4))
        signer = keys.signer_for(1)
        signed = signer.sign({"vote": 1, "round": 3})
        assert keys.registry.verify({"vote": 1, "round": 3}, signed)

    def test_tampered_payload_rejected(self):
        keys = KeyRegistry.provision(range(4))
        signed = keys.signer_for(0).sign({"vote": 1})
        assert not keys.registry.verify({"vote": 0}, signed)

    def test_forged_signer_id_rejected(self):
        keys = KeyRegistry.provision(range(4))
        signed = keys.signer_for(2).sign({"vote": 1})
        forged = SignedPayload(
            signer=3,
            payload_hash=signed.payload_hash,
            signature=signed.signature,
            scheme=signed.scheme,
        )
        assert not keys.registry.verify({"vote": 1}, forged)

    def test_different_root_secrets_do_not_cross_verify(self):
        keys_a = KeyRegistry.provision(range(2), root_secret=b"run-a")
        keys_b = KeyRegistry.provision(range(2), root_secret=b"run-b")
        signed = keys_a.signer_for(0).sign("x")
        assert not keys_b.registry.verify("x", signed)


class TestEcdsaSigner:
    def test_sign_and_verify(self):
        keys = KeyRegistry.provision(range(3), use_ecdsa=True)
        signed = keys.signer_for(0).sign({"block": "abc"})
        assert keys.registry.verify({"block": "abc"}, signed)

    def test_cross_scheme_rejected(self):
        registry = KeyRegistry()
        ecdsa_signer = EcdsaSigner(0)
        registry.register_signer(ecdsa_signer)
        simulated = SimulatedSigner(0)
        signed = simulated.sign("payload")
        assert not registry.verify("payload", signed)

    def test_tampered_payload_rejected(self):
        keys = KeyRegistry.provision(range(1), use_ecdsa=True)
        signed = keys.signer_for(0).sign({"amount": 10})
        assert not keys.registry.verify({"amount": 11}, signed)


class TestKeyRegistry:
    def test_unknown_signer_rejected(self):
        registry = KeyRegistry()
        signer = SimulatedSigner(5)
        signed = signer.sign("hello")
        assert not registry.verify("hello", signed)

    def test_require_valid_raises(self):
        registry = KeyRegistry()
        signer = SimulatedSigner(5)
        signed = signer.sign("hello")
        with pytest.raises(InvalidSignatureError):
            registry.require_valid("hello", signed)

    def test_knows_and_replicas(self):
        keys = KeyRegistry.provision(range(3))
        assert keys.registry.knows(2)
        assert not keys.registry.knows(7)
        assert set(keys.registry.replicas()) == {0, 1, 2}

    def test_add_replica_after_provision(self):
        keys = KeyRegistry.provision(range(3))
        keys.add_replica(10)
        signed = keys.signer_for(10).sign("joined")
        assert keys.registry.verify("joined", signed)

    def test_unknown_scheme_raises(self):
        with pytest.raises(InvalidSignatureError):
            scheme_for("no-such-scheme")


class TestPayloadDigest:
    def test_stable(self):
        assert hash_payload({"a": 1}) == hash_payload({"a": 1})
        assert hash_payload({"a": 1}) != hash_payload({"a": 2})


#: A vote statement, its canonical digest and replica 3's tag over it under
#: the default root secret: a change to the encoder moves the first pin, a
#: change to the MAC the second, and every signature a run makes with them.
PINNED_PAYLOAD = {"context": "bin:0:1", "round": 0, "kind": "aux", "value_digest": "x"}
PINNED_DIGEST = "227e5fbf1b579a73e8889409f1dd99df4cc6a53008064a6f3e465ad37acc4532"
PINNED_TAG = "712d0a4aafdd9b34a05fa75d016c85bea8882181925ad91e4ed8e7c198530979"


class TestSignGivenDigest:
    """``sign(payload, digest)`` skips the encoding and changes no byte."""

    @pytest.mark.parametrize("signer", [SimulatedSigner(3), EcdsaSigner(3)], ids=["hmac", "ecdsa"])
    @pytest.mark.parametrize("payload", [PINNED_PAYLOAD, "x", {"vote": 1, "round": 3}])
    def test_signature_is_byte_identical(self, signer, payload):
        assert signer.sign(payload, hash_payload(payload)) == signer.sign(payload)

    def test_hmac_tag_is_pinned(self):
        assert hash_payload(PINNED_PAYLOAD) == PINNED_DIGEST
        signer = SimulatedSigner(3, root_secret=b"repro-simulated")
        for signed in (signer.sign(PINNED_PAYLOAD), signer.sign(PINNED_PAYLOAD, PINNED_DIGEST)):
            assert signed.payload_hash == PINNED_DIGEST
            assert signed.signature.hex() == PINNED_TAG
        keys = KeyRegistry.provision(range(4))
        assert keys.registry.verify(PINNED_PAYLOAD, signer.sign(PINNED_PAYLOAD))


class TestVerifiedSignatureCache:
    """The registry memoises cryptographic verdicts; caching must never
    change *what* verifies — only how often the HMAC/ECDSA math runs."""

    def test_tampered_signature_rejected_after_cache_hit(self):
        keys = KeyRegistry.provision(range(4))
        payload = {"vote": 1, "round": 3}
        signed = keys.signer_for(1).sign(payload)
        # Warm the cache with the genuine signature.
        assert keys.registry.verify(payload, signed)
        assert keys.registry.verify(payload, signed)
        # A tampered signature shares signer and payload_hash but differs in
        # the signature bytes — a different cache key, so it must re-verify
        # and fail, not ride the cached True.
        tampered = SignedPayload(
            signer=signed.signer,
            payload_hash=signed.payload_hash,
            signature=b"\x00" * len(signed.signature),
            scheme=signed.scheme,
        )
        assert not keys.registry.verify(payload, tampered)
        # And the genuine one still verifies afterwards.
        assert keys.registry.verify(payload, signed)

    def test_tampered_payload_rejected_after_cache_hit(self):
        keys = KeyRegistry.provision(range(4))
        signed = keys.signer_for(0).sign({"vote": 1})
        assert keys.registry.verify({"vote": 1}, signed)
        # Same SignedPayload, different claimed payload: the digest binding
        # check runs before the cache is consulted.
        assert not keys.registry.verify({"vote": 0}, signed)
        assert not keys.registry.verify_digest(
            hash_payload({"vote": 0}), signed
        )

    def test_negative_verdicts_cached_without_poisoning(self):
        keys = KeyRegistry.provision(range(2))
        forged = SignedPayload(
            signer=1,
            payload_hash=hash_payload("x"),
            signature=b"garbage",
            scheme="simulated",
        )
        assert not keys.registry.verify("x", forged)
        assert not keys.registry.verify("x", forged)
        genuine = keys.signer_for(1).sign("x")
        assert keys.registry.verify("x", genuine)

    def test_unknown_signer_not_cached_before_registration(self):
        registry = KeyRegistry()
        signer = SimulatedSigner(7, root_secret=b"late")
        signed = signer.sign("hello")
        # Unknown signer: False, but must NOT be cached as a verdict …
        assert not registry.verify("hello", signed)
        # … because after registration the same signature becomes valid.
        registry.register_signer(signer)
        assert registry.verify("hello", signed)

    def test_key_overwrite_drops_stale_verdicts_and_rotates_token(self):
        registry = KeyRegistry()
        old_signer = SimulatedSigner(3, root_secret=b"old")
        registry.register_signer(old_signer)
        signed = old_signer.sign("payload")
        assert registry.verify("payload", signed)
        token_before = registry.verification_token
        new_signer = SimulatedSigner(3, root_secret=b"new")
        registry.register_signer(new_signer)
        # The cached True for the old key must not survive the overwrite.
        assert not registry.verify("payload", signed)
        assert registry.verify("payload", new_signer.sign("payload"))
        assert registry.verification_token != token_before

    def test_tokens_unique_per_registry(self):
        assert KeyRegistry().verification_token != KeyRegistry().verification_token
