"""``host.quorum`` / ``host.support`` follow the committee.

Components read both thresholds off their host on every message and keep no
copy, so every host assigns its committee through ``_set_committee``, which
re-derives them whenever the committee changes.
"""

import pytest

from repro.common.types import quorum_size, recovery_threshold
from repro.consensus.host import ProtocolHost
from repro.crypto.keys import KeyRegistry
from repro.smr.membership import _RestrictedHost
from repro.smr.replica import BaseReplica

SIZES = range(1, 41)


def _follows(host):
    size = len(host.committee())
    return (host.quorum, host.support) == (quorum_size(size), recovery_threshold(size))


def _replica(committee):
    keys = KeyRegistry.provision(range(1))
    return BaseReplica(0, committee, keys.signer_for(0), keys.registry)


def test_update_committee_moves_both_thresholds():
    host = _replica(range(40))
    assert _follows(host)
    # Growing, shrinking and back again: nothing is left over from before.
    for size in [*SIZES, *reversed(SIZES)]:
        host.update_committee(range(100, 100 + size))
        assert len(host.committee()) == size and _follows(host)


def test_restricted_host_shrinks_one_member_at_a_time():
    host = _RestrictedHost(_replica(range(40)), range(40))
    assert _follows(host)
    for member in range(39, 0, -1):
        host.remove([member])
        assert len(host.committee()) == member and _follows(host)
    # The base host keeps its own committee and thresholds.
    assert (host._base.quorum, host._base.support) == (27, 14)


def test_a_host_that_never_sets_its_committee_has_no_thresholds():
    class Bare(ProtocolHost):
        def committee(self):
            return [0, 1, 2, 3]

    with pytest.raises(AttributeError):
        Bare().quorum
    with pytest.raises(AttributeError):
        Bare().support


def test_an_empty_committee_is_refused_where_it_is_assigned():
    with pytest.raises(ValueError):
        _replica([])
    host = _replica(range(4))
    with pytest.raises(ValueError):
        host.update_committee([])
    restricted = _RestrictedHost(host, range(4))
    with pytest.raises(ValueError):
        restricted.remove(range(4))
