"""Client wallets: account keys and transaction signing.

Accounts are permissionless clients (§4.2): anyone can create a wallet and
submit transactions to any replica.  A wallet owns a key pair; its *address*
identifies the account inside transactions and the UTXO table.

Two key flavours mirror the replica-side schemes:

* ECDSA wallets (``use_ecdsa=True``) derive the address from the hash of the
  public key, exactly like Bitcoin; verification is self-contained.
* Simulated wallets (default) use the fast keyed-hash scheme.  The address is
  derived from the wallet name and the verification material is shared
  simulation infrastructure; within the simulation no component ever forges
  another account's signature, so UTXO safety arguments are unaffected.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import (
    EcdsaSigner,
    SignedPayload,
    SimulatedSigner,
    scheme_for,
)

_wallet_counter = itertools.count()


class Wallet:
    """An account key pair able to sign transaction bodies."""

    def __init__(self, name: Optional[str] = None, use_ecdsa: bool = False,
                 seed: Optional[int] = None):
        if name is None:
            name = f"account-{next(_wallet_counter)}"
        self.name = name
        self._use_ecdsa = use_ecdsa
        if use_ecdsa:
            from repro.crypto.ecdsa import ecdsa_generate_keypair

            keypair = ecdsa_generate_keypair(seed=seed)
            self._signer = EcdsaSigner(replica=name, keypair=keypair)  # type: ignore[arg-type]
            self.address = "acct-" + hash_payload(
                ["wallet-address", keypair.public_key]
            )[:40]
        else:
            self._signer = SimulatedSigner(replica=name)  # type: ignore[arg-type]
            self.address = "acct-" + hash_payload(["wallet-address", name])[:40]

    def public_material(self) -> Any:
        """Verification material to embed in transactions."""
        return self._signer.public_material()

    @property
    def scheme(self) -> str:
        """Name of the signature scheme used by this wallet."""
        return self._signer.scheme_name

    def sign(self, payload: Any, digest: Optional[str] = None) -> SignedPayload:
        """Sign an arbitrary payload (normally a transaction body).

        ``digest``, when given, is ``payload``'s canonical digest, as
        :meth:`~repro.crypto.signatures.Signer.sign` takes it.
        """
        return self._signer.sign(payload, digest)

    def __repr__(self) -> str:
        return f"Wallet(name={self.name!r}, address={self.address!r})"


def verify_wallet_signature(
    payload: Any, signed: SignedPayload, public_material: Any
) -> bool:
    """Verify a wallet signature given the embedded public material."""
    try:
        scheme = scheme_for(signed.scheme)
    except Exception:
        return False
    return scheme.verify(payload, signed, public_material)


def address_matches_material(
    address: str, scheme: str, public_material: Any, signer_name: Any
) -> bool:
    """Check that an address is bound to the provided verification material.

    For ECDSA wallets the address commits to the public key.  For simulated
    wallets the address commits to the wallet name carried as the signer id.
    """
    if scheme == EcdsaSigner.scheme_name:
        expected = "acct-" + hash_payload(["wallet-address", public_material])[:40]
    else:
        expected = "acct-" + hash_payload(["wallet-address", signer_name])[:40]
    return address == expected
