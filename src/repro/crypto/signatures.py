"""Signature schemes with a common interface.

Protocol code never touches raw keys: it asks a :class:`Signer` to sign a
payload and a :class:`SignatureScheme` (via the key registry) to verify a
:class:`SignedPayload`.  This lets large simulations swap real ECDSA for the
fast keyed-hash :class:`SimulatedSigner` without changing a single protocol
line — accountability (certificates, proofs of fraud) operates on
``SignedPayload`` objects either way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
from typing import Any, Dict, Optional

from repro.common.errors import InvalidSignatureError
from repro.common.types import ReplicaId
from repro.crypto.ecdsa import (
    EcdsaKeyPair,
    EcdsaSignature,
    ecdsa_generate_keypair,
    ecdsa_sign,
    ecdsa_verify,
)
from repro.crypto.hashing import hash_payload


@dataclasses.dataclass(frozen=True)
class SignedPayload:
    """A payload together with the signer id and signature bytes.

    The payload hash, not the payload itself, is what gets signed.  A verifier
    holds the canonical digest of the payload it received (hashed, or memoised
    where the payload lives) and checks it against ``payload_hash``, so a
    tampered payload fails verification.
    """

    signer: ReplicaId
    payload_hash: str
    signature: bytes
    scheme: str

    def to_payload(self) -> Dict[str, Any]:
        return {
            "signer": self.signer,
            "payload_hash": self.payload_hash,
            "signature": self.signature,
            "scheme": self.scheme,
        }


class Signer:
    """Interface implemented by every signature scheme's signing side."""

    scheme_name = "abstract"

    def __init__(self, replica: ReplicaId):
        self.replica = replica

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        """Sign ``payload`` and return a :class:`SignedPayload`.

        ``digest`` is the caller's statement that it is ``payload``'s
        canonical digest (:func:`~repro.crypto.hashing.hash_payload`) — the
        contract of :meth:`~repro.crypto.keys.KeyRegistry.verify_digest` — and
        spares encoding the payload; without it the payload is encoded here.
        The signature is the same either way.
        """
        raise NotImplementedError

    def public_material(self) -> Any:
        """Return the public verification material to register in the PKI."""
        raise NotImplementedError


class SignatureScheme:
    """Interface implemented by every signature scheme's verification side."""

    scheme_name = "abstract"

    def verify_digest(
        self, digest: str, signed: SignedPayload, public_material: Any
    ) -> bool:
        """Return True when ``signed`` validly signs the given payload digest.

        The caller holds the payload's canonical digest (the key registry
        hashes what it is handed, a transaction keeps its body's as
        ``tx_id``) and is responsible for checking that ``digest ==
        signed.payload_hash`` binds the digest to the payload it claims to
        sign; a scheme checks the scheme name and the signature.
        """
        raise NotImplementedError


class EcdsaSigner(Signer):
    """Signs payload hashes with secp256k1 ECDSA (paper §4.2.4)."""

    scheme_name = "ecdsa-secp256k1"

    def __init__(self, replica: ReplicaId, keypair: Optional[EcdsaKeyPair] = None):
        super().__init__(replica)
        self._keypair = keypair or ecdsa_generate_keypair(seed=replica)

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        if digest is None:
            digest = hash_payload(payload)
        signature = ecdsa_sign(self._keypair.private_key, digest.encode("ascii"))
        return SignedPayload(
            signer=self.replica,
            payload_hash=digest,
            signature=signature.encode(),
            scheme=self.scheme_name,
        )

    def public_material(self) -> Any:
        return self._keypair.public_key


class EcdsaScheme(SignatureScheme):
    """Verification side of :class:`EcdsaSigner`."""

    scheme_name = "ecdsa-secp256k1"

    def verify_digest(
        self, digest: str, signed: SignedPayload, public_material: Any
    ) -> bool:
        if signed.scheme != self.scheme_name:
            return False
        try:
            signature = EcdsaSignature.decode(signed.signature)
        except ValueError:
            return False
        return ecdsa_verify(public_material, digest.encode("ascii"), signature)


class SimulatedSigner(Signer):
    """A fast keyed-hash signature scheme for large simulations.

    Each replica holds a secret derived from a per-run root secret; signatures
    are HMAC-SHA256 over the payload hash.  Within the simulation only the
    holder of the secret (or the verifier, who is trusted simulation
    infrastructure) can produce a valid tag, so equivocation still requires the
    signer to actually sign both conflicting payloads — exactly the property
    proofs of fraud rely on.
    """

    scheme_name = "simulated-hmac"

    def __init__(self, replica: ReplicaId, root_secret: bytes = b"repro-simulated"):
        super().__init__(replica)
        self._secret = hashlib.sha256(
            root_secret + b":" + str(replica).encode("ascii")
        ).digest()
        self._root_secret = root_secret

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        if digest is None:
            digest = hash_payload(payload)
        tag = hmac.digest(self._secret, digest.encode("ascii"), "sha256")
        return SignedPayload(
            signer=self.replica,
            payload_hash=digest,
            signature=tag,
            scheme=self.scheme_name,
        )

    def public_material(self) -> Any:
        # Verification recomputes the per-replica secret from the root secret;
        # the "public material" is the root secret handle (shared by the
        # simulation's trusted verifier, standing in for a PKI).
        return self._root_secret


class SimulatedScheme(SignatureScheme):
    """Verification side of :class:`SimulatedSigner`."""

    scheme_name = "simulated-hmac"

    def verify_digest(
        self, digest: str, signed: SignedPayload, public_material: Any
    ) -> bool:
        if signed.scheme != self.scheme_name:
            return False
        secret = hashlib.sha256(
            public_material + b":" + str(signed.signer).encode("ascii")
        ).digest()
        expected = hmac.digest(secret, digest.encode("ascii"), "sha256")
        return hmac.compare_digest(expected, signed.signature)


_SCHEMES: Dict[str, SignatureScheme] = {
    EcdsaScheme.scheme_name: EcdsaScheme(),
    SimulatedScheme.scheme_name: SimulatedScheme(),
}


def scheme_for(name: str) -> SignatureScheme:
    """Look up the verification scheme registered under ``name``."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise InvalidSignatureError(f"unknown signature scheme {name!r}") from None
