"""Public-key infrastructure: the registry mapping replica ids to public keys.

The paper assumes a standard PKI common to all replicas (§3.2).  The registry
is the single verification entry point used by the accountability layer:
certificates and proofs of fraud are validated by calling
:meth:`KeyRegistry.verify` on each embedded :class:`SignedPayload`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Optional

from repro.common.errors import InvalidSignatureError
from repro.common.memo import AgedMemo
from repro.common.types import ReplicaId
from repro.crypto.hashing import hash_payload
from repro.crypto.signatures import (
    EcdsaSigner,
    SignedPayload,
    Signer,
    SimulatedSigner,
    scheme_for,
)

#: Process-unique registry tokens: caches living outside the registry (e.g.
#: certificate validity maps) key their entries by this token so verdicts
#: from one deployment's PKI can never leak into another's.
_REGISTRY_TOKENS = itertools.count(1)


class KeyRegistry:
    """Maps replica ids to their public verification material.

    The registry also acts as a signer factory so tests and simulations can
    provision a whole committee in one call (:meth:`provision`).
    """

    def __init__(self) -> None:
        self._public: Dict[ReplicaId, Any] = {}
        self._schemes: Dict[ReplicaId, str] = {}
        #: Verified-signature cache: ``(signer, payload_hash, signature,
        #: scheme) -> bool``.  The key covers every input of the cryptographic
        #: check, so each distinct signature is verified once while its
        #: instance is live — re-checks (certificates re-validated against
        #: shrinking committees, every recipient of a broadcast vote) become
        #: one dict probe.  A signature is about one instance, so the cache
        #: ages with the replicas' retirement horizon (:meth:`retire`, see
        #: :mod:`repro.common.memo`); one looked up again after that, such as
        #: a late catch-up certificate, is simply verified again.  Tampering
        #: any component of the signature changes the key and therefore
        #: misses the cache; tampering the *payload* is caught by the digest
        #: comparison done before the cache is ever consulted.
        self._verified: AgedMemo = AgedMemo(cap=1 << 20)
        #: Unique identity of this registry for external verification caches.
        self.verification_token: int = next(_REGISTRY_TOKENS)

    def register(self, replica: ReplicaId, scheme: str, public_material: Any) -> None:
        """Register (or overwrite) the public material of ``replica``."""
        if replica in self._public:
            # Overwriting a key changes what verifies: drop the replica's
            # cached verdicts and retire the token so external caches keyed
            # by it go stale too (rare — provisioning and inclusion only).
            for generation in (self._verified, self._verified.previous):
                for key in [key for key in generation if key[0] == replica]:
                    del generation[key]
            self.verification_token = next(_REGISTRY_TOKENS)
        self._public[replica] = public_material
        self._schemes[replica] = scheme

    def register_signer(self, signer: Signer) -> None:
        """Register the public material of an existing signer."""
        self.register(signer.replica, signer.scheme_name, signer.public_material())

    def knows(self, replica: ReplicaId) -> bool:
        """Return True when ``replica`` has registered public material."""
        return replica in self._public

    def replicas(self) -> Iterable[ReplicaId]:
        """Iterate over every registered replica id."""
        return self._public.keys()

    def verify(self, payload: Any, signed: SignedPayload) -> bool:
        """Return True when ``signed`` validly signs ``payload``.

        Unknown signers and scheme mismatches verify to False rather than
        raising: a Byzantine replica may claim an arbitrary identity, and the
        protocol treats such messages as invalid, not as crashes.
        """
        return self.verify_digest(hash_payload(payload), signed)

    def verify_digest(self, digest: str, signed: SignedPayload) -> bool:
        """Verify ``signed`` against a precomputed canonical payload digest.

        The digest-to-payload binding is the caller's statement ("this is the
        canonical digest of the payload I received"); this method checks that
        the digest matches the one the signer committed to and that the
        signature over it is genuine.  The cryptographic check is memoised in
        the verified-signature cache — every re-verification of the same
        ``(signer, digest, signature, scheme)`` tuple is a dict probe.
        """
        if digest != signed.payload_hash:
            return False
        key = (signed.signer, signed.payload_hash, signed.signature, signed.scheme)
        try:
            return self._verified[key]
        except KeyError:
            pass
        material = self._public.get(signed.signer)
        if material is None:
            return False
        if self._schemes.get(signed.signer) != signed.scheme:
            return False
        scheme = scheme_for(signed.scheme)
        ok = scheme.verify_digest(digest, signed, material)
        self._verified[key] = ok
        return ok

    def retire(self, horizon: int, depth: int) -> None:
        """Instances up to ``horizon`` are retired: age the verdict cache."""
        self._verified.retire(horizon, depth)

    def require_valid(self, payload: Any, signed: SignedPayload) -> None:
        """Raise :class:`InvalidSignatureError` when verification fails."""
        if not self.verify(payload, signed):
            raise InvalidSignatureError(
                f"invalid signature from replica {signed.signer}"
            )

    @staticmethod
    def provision(
        replicas: Iterable[ReplicaId],
        use_ecdsa: bool = False,
        root_secret: bytes = b"repro-simulated",
    ) -> "ProvisionedKeys":
        """Create signers for ``replicas`` and a registry knowing all of them.

        ``use_ecdsa=True`` provisions real secp256k1 keys (slow but faithful);
        the default provisions :class:`SimulatedSigner` instances suitable for
        large simulations.
        """
        registry = KeyRegistry()
        signers: Dict[ReplicaId, Signer] = {}
        for replica in replicas:
            if use_ecdsa:
                signer: Signer = EcdsaSigner(replica)
            else:
                signer = SimulatedSigner(replica, root_secret=root_secret)
            signers[replica] = signer
            registry.register_signer(signer)
        return ProvisionedKeys(registry=registry, signers=signers)


class ProvisionedKeys:
    """The result of :meth:`KeyRegistry.provision`: a registry plus signers."""

    def __init__(self, registry: KeyRegistry, signers: Dict[ReplicaId, Signer]):
        self.registry = registry
        self.signers = signers

    def signer_for(self, replica: ReplicaId) -> Signer:
        """Return the signer of ``replica``; raises KeyError if unknown."""
        return self.signers[replica]

    def add_replica(
        self,
        replica: ReplicaId,
        use_ecdsa: bool = False,
        root_secret: Optional[bytes] = None,
    ) -> Signer:
        """Provision and register a new replica (used by the inclusion phase)."""
        if use_ecdsa:
            signer: Signer = EcdsaSigner(replica)
        else:
            secret = root_secret if root_secret is not None else b"repro-simulated"
            signer = SimulatedSigner(replica, root_secret=secret)
        self.signers[replica] = signer
        self.registry.register_signer(signer)
        return signer
