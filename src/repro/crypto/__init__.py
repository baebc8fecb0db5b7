"""Cryptographic substrate: hashing, Merkle trees, ECDSA and signature schemes.

Two signature schemes share the :class:`~repro.crypto.signatures.Signer`
interface:

* :class:`~repro.crypto.signatures.EcdsaSigner` — a pure-Python secp256k1
  ECDSA implementation matching what the paper deploys (§4.2.4).
* :class:`~repro.crypto.signatures.SimulatedSigner` — a fast keyed-hash scheme
  used inside large simulations; it preserves unforgeability within the
  simulation so the accountability machinery (certificates, proofs of fraud)
  exercises identical code paths.
"""

from repro.crypto.hashing import sha256_hex, hash_payload
from repro.crypto.merkle import MerkleTree, merkle_root
from repro.crypto.ecdsa import (
    EcdsaKeyPair,
    EcdsaSignature,
    ecdsa_generate_keypair,
    ecdsa_sign,
    ecdsa_verify,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    EcdsaSigner,
    SignatureScheme,
    SignedPayload,
    Signer,
    SimulatedSigner,
)

__all__ = [
    "sha256_hex",
    "hash_payload",
    "MerkleTree",
    "merkle_root",
    "EcdsaKeyPair",
    "EcdsaSignature",
    "ecdsa_generate_keypair",
    "ecdsa_sign",
    "ecdsa_verify",
    "KeyRegistry",
    "EcdsaSigner",
    "SignatureScheme",
    "SignedPayload",
    "Signer",
    "SimulatedSigner",
]
