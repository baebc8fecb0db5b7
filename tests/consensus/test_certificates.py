"""Unit tests for signed votes, certificates and proofs of fraud."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import InvalidCertificateError
from repro.common.types import quorum_size
from repro.consensus.certificates import (
    _VOTE_DIGESTS,
    Certificate,
    SignedVote,
    VoteKind,
    _clear_memos,
    certificate_from_payload,
    make_vote,
    verify_vote,
    vote_from_payload,
    vote_payload,
)
from repro.consensus.proofs import (
    ProofOfFraud,
    culprits,
    extract_pofs_from_grouped,
    extract_pofs_from_votes,
    group_votes,
    merge_pofs,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import EcdsaSigner, SignedPayload
from repro.network.codec import decode_value, encode_value


class _Host:
    """Minimal host exposing replica_id / sign / verify for vote helpers."""

    def __init__(self, keys, replica_id):
        self._keys = keys
        self.replica_id = replica_id

    def sign(self, payload, digest=None):
        return self._keys.signer_for(self.replica_id).sign(payload, digest)

    def verify(self, payload, signed):
        return self._keys.registry.verify(payload, signed)


@pytest.fixture
def keys():
    return KeyRegistry.provision(range(7))


@pytest.fixture
def hosts(keys):
    return [_Host(keys, i) for i in range(7)]


def _vote(host, value="v", context="bin:0:1", round_number=0, kind=VoteKind.AUX):
    return make_vote(host, context, round_number, kind, value)


class TestSignedVote:
    def test_roundtrip_verification(self, hosts):
        vote = _vote(hosts[0])
        assert verify_vote(vote, hosts[1])

    def test_mismatched_signer_rejected(self, hosts):
        vote = _vote(hosts[0])
        forged = SignedVote(
            context=vote.context,
            round=vote.round,
            kind=vote.kind,
            value_digest=vote.value_digest,
            signer=3,
            signature=vote.signature,
        )
        assert not verify_vote(forged, hosts[1])

    def test_payload_roundtrip(self, hosts):
        vote = _vote(hosts[2])
        assert vote_from_payload(vote.to_payload()) == vote

    def test_a_vote_object_is_returned_as_it_is(self, hosts):
        # A decoded body's "vote" is already the object: parsing it again is
        # the identity, so a reader of either form gets the vote.
        vote = _vote(hosts[2])
        assert vote_from_payload(vote) is vote

    @pytest.mark.parametrize("memo", ["warm", "cleared"])
    @pytest.mark.parametrize("use_ecdsa", [False, True], ids=["hmac", "ecdsa"])
    def test_signature_equals_signing_the_payload(self, memo, use_ecdsa):
        # make_vote signs the digest _VOTE_DIGESTS holds for the statement;
        # whether another replica put it there or this call computes it, the
        # signature is the one signing the encoded payload gives.
        keys = KeyRegistry.provision(range(3), use_ecdsa=use_ecdsa)
        statement = ("bin:0:1", 2, VoteKind.AUX, "x")
        key = ("bin:0:1", 2, "aux", "x")
        make_vote(_Host(keys, 0), *statement)
        assert key in _VOTE_DIGESTS
        if memo == "cleared":
            _clear_memos()
        vote = make_vote(_Host(keys, 1), *statement)
        assert key in _VOTE_DIGESTS
        assert vote.signature == keys.signer_for(1).sign(vote_payload(*statement))
        assert verify_vote(vote, keys.registry)

    def test_host_with_only_an_identity_and_a_signer(self):
        # The least a host can be, and what the benchmark's probes hand to
        # make_vote: replica_id plus a signer's own bound ``sign``.
        class VoteHost:
            __slots__ = ("replica_id", "sign")

            def __init__(self, signer):
                self.replica_id = signer.replica
                self.sign = signer.sign

        keys = KeyRegistry.provision(range(4))
        vote = make_vote(VoteHost(keys.signer_for(2)), "bin:3:1", 1, VoteKind.DECIDE, "v")
        assert vote.signer == 2
        assert vote_from_payload(vote.to_payload()) == vote
        assert verify_vote(vote_from_payload(vote.to_payload()), keys.registry)

    def test_conflicts_with(self, hosts):
        vote_a = _vote(hosts[0], value="a")
        vote_b = _vote(hosts[0], value="b")
        vote_c = _vote(hosts[1], value="b")
        assert vote_a.conflicts_with(vote_b)
        assert not vote_a.conflicts_with(vote_a)
        assert not vote_a.conflicts_with(vote_c)
        different_round = _vote(hosts[0], value="b", round_number=1)
        assert not vote_a.conflicts_with(different_round)


class TestCertificate:
    def test_quorum_certificate_verifies(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[: quorum_size(7)]]
        certificate = Certificate.from_votes(votes)
        certificate.verify(hosts[0], committee=range(7))

    def test_insufficient_quorum_rejected(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[:3]]
        certificate = Certificate.from_votes(votes)
        with pytest.raises(InvalidCertificateError):
            certificate.verify(hosts[0], committee=range(7))

    def test_mixed_values_rejected(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[:5]]
        votes.append(_vote(hosts[5], value="y"))
        certificate = Certificate(
            context=votes[0].context,
            round=0,
            kind=VoteKind.AUX,
            value_digest="x",
            votes=tuple(votes),
        )
        with pytest.raises(InvalidCertificateError):
            certificate.verify(hosts[0], committee=range(7))

    def test_signers_outside_committee_do_not_count(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[:5]]
        certificate = Certificate.from_votes(votes)
        # Committee restricted to 3 of the signers: quorum of |C'|=4 is 3,
        # but only signers within the committee count.
        assert certificate.is_valid(hosts[0], committee=[0, 1, 2, 6])
        assert not certificate.is_valid(hosts[0], committee=[4, 5, 6])

    def test_duplicate_signers_collapse(self, hosts):
        votes = [_vote(hosts[0], value="x")] * 5
        certificate = Certificate.from_votes(votes)
        assert len(certificate.votes) == 1

    def test_payload_roundtrip(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[:5]]
        certificate = Certificate.from_votes(votes)
        rebuilt = certificate_from_payload(certificate.to_payload())
        assert rebuilt.signers() == certificate.signers()
        rebuilt.verify(hosts[0], committee=range(7))

    def test_conflicting_certificates(self, hosts):
        cert_x = Certificate.from_votes([_vote(h, value="x") for h in hosts[:5]])
        cert_y = Certificate.from_votes([_vote(h, value="y") for h in hosts[2:]])
        assert cert_x.conflicts_with(cert_y)
        assert not cert_x.conflicts_with(cert_x)

    def test_empty_certificate_rejected(self):
        with pytest.raises(InvalidCertificateError):
            Certificate.from_votes([])


class TestProofOfFraud:
    def test_extract_from_conflicting_votes(self, hosts):
        votes = [_vote(hosts[0], value="x"), _vote(hosts[0], value="y")]
        votes += [_vote(hosts[1], value="x")]
        pofs = extract_pofs_from_votes(votes)
        assert culprits(pofs) == {0}
        assert pofs[0].verify(hosts[2])

    def test_no_pof_for_consistent_votes(self, hosts):
        votes = [_vote(host, value="x") for host in hosts]
        assert extract_pofs_from_votes(votes) == []

    def test_no_pof_across_rounds(self, hosts):
        votes = [
            _vote(hosts[0], value="x", round_number=0),
            _vote(hosts[0], value="y", round_number=1),
        ]
        assert extract_pofs_from_votes(votes) == []

    def test_extract_from_conflicting_certificates(self, hosts):
        # Replicas 2..4 sign both values: they equivocated.
        cert_x = Certificate.from_votes([_vote(h, value="x") for h in hosts[:5]])
        cert_y = Certificate.from_votes([_vote(h, value="y") for h in hosts[2:]])
        pofs = extract_pofs_from_votes([*cert_x.votes, *cert_y.votes])
        assert culprits(pofs) == {2, 3, 4}

    def test_merge_pofs_deduplicates_and_verifies(self, hosts, keys):
        votes = [_vote(hosts[0], value="x"), _vote(hosts[0], value="y")]
        pof = extract_pofs_from_votes(votes)[0]
        existing = {}
        added = merge_pofs(existing, [pof, pof], verifier=hosts[1])
        assert len(added) == 1
        assert merge_pofs(existing, [pof], verifier=hosts[1]) == []

    def test_merge_rejects_malformed(self, hosts):
        vote_a = _vote(hosts[0], value="x")
        vote_b = _vote(hosts[1], value="y")
        bogus = ProofOfFraud(culprit=0, first=vote_a, second=vote_b)
        assert merge_pofs({}, [bogus], verifier=hosts[2]) == []

    def test_pof_payload_roundtrip(self, hosts):
        votes = [_vote(hosts[3], value="x"), _vote(hosts[3], value="y")]
        pof = extract_pofs_from_votes(votes)[0]
        rebuilt = ProofOfFraud.from_payload(pof.to_payload())
        assert rebuilt.culprit == 3
        assert rebuilt.verify(hosts[0])


def _unsigned_votes(steps):
    """One distinguishable vote per ``(signer, context, round, kind, value)``
    step: the signature carries the step's position, so two votes for one
    digest differ and the test sees which of them a PoF kept."""
    return [
        SignedVote(
            context=context,
            round=round_number,
            kind=kind,
            value_digest=value,
            signer=signer,
            signature=SignedPayload(signer, "hash", b"%d" % position, "test"),
        )
        for position, (signer, context, round_number, kind, value) in enumerate(steps)
    ]


_STEP = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["rbc:0:1", "bin:0:1"]),
    st.integers(0, 1),
    st.sampled_from([VoteKind.RBC_ECHO, VoteKind.AUX]),
    st.sampled_from(["x", "y", "z"]),
)


class TestGroupedExtractionMatchesFlatScan:
    """``extract_pofs_from_grouped`` scans only its second set; the flat scan
    over both sets' votes is the reference for culprits, their order and the
    two votes each PoF keeps."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_STEP, max_size=24),
        st.lists(_STEP, max_size=12),
        st.sets(st.integers(0, 3)),
    )
    # Signer 0 equivocates in two groups of ``first`` only, completed in the
    # opposite order to the one they were opened in.
    @example(
        [
            (0, "rbc:0:1", 0, VoteKind.RBC_ECHO, "x"),
            (0, "bin:0:1", 0, VoteKind.AUX, "x"),
            (0, "bin:0:1", 0, VoteKind.AUX, "y"),
            (0, "rbc:0:1", 0, VoteKind.RBC_ECHO, "y"),
        ],
        [(1, "rbc:0:1", 0, VoteKind.RBC_ECHO, "x")],
        set(),
    )
    # ... the same inside ``second`` only, in groups ``first`` never saw.
    @example(
        [(1, "rbc:0:1", 0, VoteKind.RBC_ECHO, "x")],
        [
            (0, "rbc:0:1", 0, VoteKind.RBC_ECHO, "x"),
            (0, "bin:0:1", 0, VoteKind.AUX, "x"),
            (0, "bin:0:1", 0, VoteKind.AUX, "y"),
            (0, "rbc:0:1", 0, VoteKind.RBC_ECHO, "y"),
        ],
        set(),
    )
    # Signer 2 conflicts across the sets in two groups (``second`` lists them
    # in the other order) and repeats a digest ``first`` already holds;
    # signer 3 equivocates inside ``second`` in a group ``first`` has too.
    @example(
        [
            (2, "rbc:0:1", 0, VoteKind.RBC_ECHO, "x"),
            (2, "bin:0:1", 1, VoteKind.AUX, "x"),
            (3, "bin:0:1", 0, VoteKind.AUX, "z"),
        ],
        [
            (2, "bin:0:1", 1, VoteKind.AUX, "x"),
            (2, "bin:0:1", 1, VoteKind.AUX, "y"),
            (2, "rbc:0:1", 0, VoteKind.RBC_ECHO, "y"),
            (3, "bin:0:1", 0, VoteKind.AUX, "x"),
            (3, "bin:0:1", 0, VoteKind.AUX, "y"),
        ],
        {1},
    )
    def test_same_pofs_as_the_flat_scan(self, first_steps, second_steps, skip):
        votes = _unsigned_votes(first_steps + second_steps)
        first, second = votes[: len(first_steps)], votes[len(first_steps) :]
        expected = [
            pof for pof in extract_pofs_from_votes(first + second)
            if pof.culprit not in skip
        ]
        found = extract_pofs_from_grouped(group_votes(first), group_votes(second), skip)
        assert found == expected
        assert all(pof.is_well_formed() for pof in found)


class _TokenHost(_Host):
    """Host exposing the registry's verification token, like real replicas.

    With the token present the certificate-validity cache is shared across
    hosts of the same deployment (``_CERT_VALIDITY``); without it only the
    per-instance memo applies.
    """

    @property
    def verification_token(self):
        return self._keys.registry.verification_token

    def verify_digest(self, digest, signed):
        return self._keys.registry.verify_digest(digest, signed)


class TestCertificateValidityCache:
    """Memoised certificate verification must be invisible to correctness."""

    def test_repeat_verification_is_idempotent(self, keys, hosts):
        from repro.consensus.certificates import _clear_memos

        _clear_memos()
        votes = [_vote(host, value="x") for host in hosts[:5]]
        certificate = Certificate.from_votes(votes)
        host = _TokenHost(keys, 0)
        for _ in range(3):
            certificate.verify(host, committee=range(7))
            assert certificate.is_valid(host, committee=range(7))

    def test_shrinking_committee_recheck_uses_cached_validity(self, keys, hosts):
        from repro.consensus.certificates import _CERT_VALIDITY, _clear_memos

        _clear_memos()
        votes = [_vote(host, value="x") for host in hosts[:5]]
        certificate = Certificate.from_votes(votes)
        host = _TokenHost(keys, 0)
        certificate.verify(host, committee=range(7))
        assert len(_CERT_VALIDITY) == 1
        # Exclusion shrinks the committee (Alg. 1 lines 31-36): the re-check
        # must reuse the cached per-signer validity, not re-verify, and the
        # committee restriction must still bite.
        assert certificate.is_valid(host, committee=[0, 1, 2, 6])
        assert not certificate.is_valid(host, committee=[4, 5, 6])
        assert len(_CERT_VALIDITY) == 1

    def test_cache_is_keyed_per_registry(self, hosts):
        from repro.consensus.certificates import _clear_memos

        _clear_memos()
        keys_a = KeyRegistry.provision(range(7))
        host_a = _TokenHost(keys_a, 0)
        votes = [
            make_vote(_Host(keys_a, i), "bin:0:1", 0, VoteKind.AUX, "x")
            for i in range(5)
        ]
        certificate = Certificate.from_votes(votes)
        certificate.verify(host_a, committee=range(7))
        # A different deployment (fresh registry, different keys) must not
        # inherit the cached verdict: its token differs, so the signatures
        # are re-checked and rejected.
        keys_b = KeyRegistry.provision(range(7), root_secret=b"other-deployment")
        host_b = _TokenHost(keys_b, 0)
        assert not certificate.is_valid(host_b, committee=range(7))
        # And the original deployment still accepts it afterwards.
        assert certificate.is_valid(host_a, committee=range(7))

    def test_rebuilt_certificate_shares_cache_entry(self, keys, hosts):
        from repro.consensus.certificates import _CERT_VALIDITY, _clear_memos

        _clear_memos()
        votes = [_vote(host, value="x") for host in hosts[:5]]
        certificate = Certificate.from_votes(votes)
        host = _TokenHost(keys, 0)
        certificate.verify(host, committee=range(7))
        rebuilt = certificate_from_payload(certificate.to_payload())
        rebuilt.verify(host, committee=range(7))
        # Same content, same registry: one shared entry, not one per object.
        assert len(_CERT_VALIDITY) == 1

    def test_tampered_vote_rejected_despite_warm_cache(self, keys, hosts):
        from dataclasses import replace

        from repro.consensus.certificates import _clear_memos

        _clear_memos()
        votes = [_vote(host, value="x") for host in hosts[:5]]
        Certificate.from_votes(votes).verify(_TokenHost(keys, 0), committee=range(7))
        # Swap one vote's signature for another signer's: the tampered
        # certificate has different content, so it misses the cache and the
        # fresh check rejects it.
        forged = replace(votes[0], signature=votes[1].signature)
        tampered = Certificate.from_votes([forged] + votes[1:])
        with pytest.raises(InvalidCertificateError):
            tampered.verify(_TokenHost(keys, 0), committee=range(7))


# -- wire payloads: positional, factored, lossless -------------------------------


def _over_the_wire(payload):
    return decode_value(encode_value(payload))


def _resigned(vote, **changes):
    return dataclasses.replace(
        vote, signature=dataclasses.replace(vote.signature, **changes)
    )


def _ecdsa_vote(replica_id, like):
    """``like``'s statement signed by ``replica_id`` under the other scheme."""
    signature = EcdsaSigner(replica_id).sign(like.vote_payload())
    return dataclasses.replace(like, signer=replica_id, signature=signature)


#: Certificates whose votes do *not* all restate the header: each must reach
#: the far side exactly as built, so that it is judged there as it is here.
AWKWARD_CERTIFICATES = {
    "quorum": lambda votes, other: votes,
    "foreign-context vote": lambda votes, other: [votes[0], other, *votes[2:]],
    "first vote foreign": lambda votes, other: [other, *votes[1:]],
    "vote attributed to another signer": lambda votes, other: [
        votes[0], dataclasses.replace(votes[1], signer=6), *votes[2:]
    ],
    "mixed schemes": lambda votes, other: [
        *votes[:2], _ecdsa_vote(2, votes[2]), *votes[3:]
    ],
    "wrong payload hash": lambda votes, other: [
        *votes[:3], _resigned(votes[3], payload_hash="0" * 64), votes[4]
    ],
    "first vote has the wrong payload hash": lambda votes, other: [
        _resigned(votes[0], payload_hash="0" * 64), *votes[1:]
    ],
    "duplicate signers": lambda votes, other: [votes[0], votes[0], votes[1], *votes],
    "no votes": lambda votes, other: [],
}


class TestWirePayloads:
    """``to_payload`` -> codec -> ``from_payload`` changes nothing a verifier sees."""

    @staticmethod
    def _verdict(certificate, host):
        try:
            certificate.verify(host, committee=range(7))
        except InvalidCertificateError as error:
            return str(error)
        return "valid"

    @pytest.mark.parametrize("case", sorted(AWKWARD_CERTIFICATES))
    def test_certificate_is_lossless_and_judged_the_same(self, keys, hosts, case):
        from repro.consensus.certificates import _clear_memos

        votes = [_vote(host, value="x") for host in hosts[:5]]
        other = _vote(hosts[1], value="x", context="bin:9:9")
        certificate = Certificate(
            "bin:0:1", 0, VoteKind.AUX, "x", tuple(AWKWARD_CERTIFICATES[case](votes, other))
        )
        rebuilt = certificate_from_payload(_over_the_wire(certificate.to_payload()))
        assert rebuilt == certificate
        assert rebuilt._content_key() == certificate._content_key()
        host = _TokenHost(keys, 0)
        _clear_memos()
        before = self._verdict(certificate, host)
        per_vote = [verify_vote(vote, host) for vote in certificate.votes]
        _clear_memos()
        assert self._verdict(rebuilt, host) == before
        assert [verify_vote(vote, host) for vote in rebuilt.votes] == per_vote
        assert (before == "valid") == (case in ("quorum", "duplicate signers"))

    def test_votes_that_restate_the_header_shrink_and_the_rest_do_not(self, hosts):
        votes = [_vote(host, value="x") for host in hosts[:5]]
        stray = dataclasses.replace(votes[2], signer=6)
        payload = Certificate(
            "bin:0:1", 0, VoteKind.AUX, "x", (*votes[:2], stray, *votes[3:])
        ).to_payload()
        header, entries = payload[:-1], payload[-1]
        signature = votes[0].signature
        assert header == (
            "bin:0:1", 0, "aux", "x", signature.scheme, signature.payload_hash
        )
        # The stray vote keeps its full tuple, in its own position.
        assert [len(entry) for entry in entries] == [2, 2, 9, 2, 2]
        assert entries[0] == (0, signature.signature)
        assert entries[2] == stray.to_payload()

    def test_one_more_vote_costs_a_signer_and_a_signature(self, hosts):
        # header + k x (signer, signature): the step, scheme and signed hash
        # are not repeated per vote, which is what CONFIRM and DECIDE are made of.
        votes = [_vote(host, value="x") for host in hosts]
        sizes = [
            len(encode_value(Certificate.from_votes(votes[:k]).to_payload()))
            for k in range(1, 8)
        ]
        steps = [after - before for before, after in zip(sizes, sizes[1:])]
        assert len(votes[0].signature.signature) == 32
        assert all(32 < step <= 64 for step in steps), steps
        assert len(encode_value(votes[0].to_payload())) > 3 * max(steps)

    def test_vote_names_its_signature_signer_only_when_it_differs(self, hosts):
        vote = _vote(hosts[2])
        forged = dataclasses.replace(vote, signer=3)
        assert len(vote.to_payload()) == 8 and len(forged.to_payload()) == 9
        for original in (vote, forged):
            rebuilt = vote_from_payload(_over_the_wire(original.to_payload()))
            assert rebuilt == original
            assert rebuilt.signature.signer == 2
            assert verify_vote(rebuilt, hosts[0]) == (original is vote)

    @pytest.mark.parametrize(
        "case", ["genuine", "blames someone else", "second vote misattributed", "no conflict"]
    )
    def test_proof_of_fraud_is_lossless_and_judged_the_same(self, hosts, case):
        first, second = _vote(hosts[3], value="x"), _vote(hosts[3], value="y")
        pof = {
            "genuine": ProofOfFraud(3, first, second),
            "blames someone else": ProofOfFraud(4, first, second),
            "second vote misattributed": ProofOfFraud(
                3, first, dataclasses.replace(_vote(hosts[5], value="y"), signer=3)
            ),
            "no conflict": ProofOfFraud(3, first, first),
        }[case]
        rebuilt = ProofOfFraud.from_payload(_over_the_wire(pof.to_payload()))
        assert rebuilt == pof
        assert rebuilt.is_well_formed() == pof.is_well_formed()
        assert rebuilt.verify(hosts[0]) == pof.verify(hosts[0]) == (case == "genuine")

    def test_the_keyed_dict_forms_are_gone(self, hosts):
        vote = _vote(hosts[0])
        signature = vote.signature
        keyed_vote = {
            "context": vote.context,
            "round": vote.round,
            "kind": vote.kind.value,
            "value_digest": vote.value_digest,
            "signer": vote.signer,
            "signature": {
                "signer": signature.signer,
                "payload_hash": signature.payload_hash,
                "signature": signature.signature,
                "scheme": signature.scheme,
            },
        }
        keyed_certificate = {
            "context": vote.context,
            "round": vote.round,
            "kind": vote.kind.value,
            "value_digest": vote.value_digest,
            "votes": [keyed_vote],
        }
        keyed_pof = {"culprit": 0, "first": keyed_vote, "second": keyed_vote}
        for parse, keyed in (
            (vote_from_payload, keyed_vote),
            (certificate_from_payload, keyed_certificate),
            (ProofOfFraud.from_payload, keyed_pof),
        ):
            with pytest.raises(TypeError):
                parse(keyed)
