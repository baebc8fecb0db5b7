"""Catching a joiner up on a history longer than one CATCHUP.

Members send the first :data:`~repro.smr.log.CATCHUP_RECORDS` decided
instances with the view; the joiner asks its source for the rest, one chunk
per ``MORE``, and fetches it instance by instance when the source goes quiet.
What it caught up on is history: it moves no memo's retirement horizon.
"""

from repro.common.memo import AgedMemo
from repro.crypto.signatures import SimulatedSigner
from repro.obs.core import Probe
from repro.obs.metrics import TelemetryRegistry
from repro.smr.asmr import ASMRReplica
from repro.smr.log import CATCHUP_RECORDS, CATCHUP_WAIT_S

from tests.consensus.harness import decided_asmr_committee, of_kind, start_inclusion

#: Enough decided instances for a first chunk, a full MORE and a short one.
HISTORY = 2 * CATCHUP_RECORDS + 4
#: The committee after a membership change excluded replica 3 and included
#: replica 4.
JOINED = [0, 1, 2, 4]


def _counters(replica):
    return replica.probe.metrics.snapshot()["counters"]


def _long_history():
    """Four members that decided :data:`HISTORY` instances, and replica 4, a
    standby in their pool whose driver asked for as many."""
    simulator, replicas, seen = decided_asmr_committee()
    for replica in replicas:
        replica.submit_instances(HISTORY - 1)
    simulator.run()
    signer = SimulatedSigner(4)
    # Its key is known: once a member, it votes.
    replicas[0].registry.register_signer(signer)
    standby = ASMRReplica(
        replica_id=4,
        committee=[0, 1, 2, 3],
        signer=signer,
        registry=replicas[0].registry,
        standby=True,
    )
    simulator.add_process(standby)
    standby.submit_instances(HISTORY)
    for replica in [*replicas, standby]:
        replica.probe = Probe(metrics=TelemetryRegistry())
    for replica in replicas:
        assert replica.decided_instances() == list(range(HISTORY))
    return simulator, replicas, seen, standby


def _send_catchups(simulator, replicas, standby, live=0):
    """A membership change excludes replica 3 and includes replica 4, with
    ``live`` more instances to run after it, at the members and at the
    standby: each member that completes it sends replica 4 its catch-up."""
    standby.submit_instances(live)
    start_inclusion(simulator, replicas, culprit=3, joiner=4, live=live)


def _on_the_members_history(standby, replicas, length=HISTORY):
    digests = {k: replicas[0].instances[k].decision.digest for k in range(length)}
    assert standby.decided_instances() == list(range(length))
    assert standby.history.next_commit == length
    assert {k: standby.instances[k].decision.digest for k in range(length)} == digests
    assert (standby.standby, standby.epoch, standby.committee()) == (False, 1, JOINED)


def test_a_joiner_takes_a_long_history_chunk_by_chunk(monkeypatch):
    """The joiner runs the instance the members start with it and ends on
    their history having asked one source for two more chunks, each served
    late, and fetched nothing — deciding the live instance before the last
    chunk came did not fetch what the chunks carry; a second MORE for a
    cursor already served is dropped; no memo sees a horizon from the
    caught-up records."""
    simulator, replicas, seen, standby = _long_history()
    horizons = []
    retire = AgedMemo.retire

    def spy(memo, horizon, depth):
        horizons.append(horizon)
        retire(memo, horizon, depth)

    monkeypatch.setattr(AgedMemo, "retire", spy)
    for replica in replicas:
        serve = replica.history.serve_catchup
        replica.history.serve_catchup = lambda joiner, cursor, replica=replica, serve=serve: (
            replica.set_timer(CATCHUP_WAIT_S / 4, lambda: serve(joiner, cursor))
        )
    _send_catchups(simulator, replicas, standby, live=1)
    simulator.run()
    _on_the_members_history(standby, replicas, HISTORY + 1)
    completed = standby.history.catchup_completed_at
    assert standby.instances[HISTORY].decided_at < completed
    assert "asmr.fetches" not in _counters(standby)
    # Only the live instance's decision moved a horizon.
    assert set(horizons) == {HISTORY - 5}
    asked = of_kind(seen, "MORE")
    assert [message.body["cursor"] for message in asked] == [
        CATCHUP_RECORDS,
        2 * CATCHUP_RECORDS,
    ]
    source = replicas[asked[0].recipient]
    assert {message.recipient for message in asked} == {source.replica_id}
    standby.emit_to(source.replica_id, ASMRReplica.CATCHUP_TOPIC, "MORE", {"cursor": CATCHUP_RECORDS})
    simulator.run()
    assert _counters(source).get("asmr.dropped_catchups") == 1
    assert len(of_kind(seen, "MORE")) == 3


def test_a_joiner_whose_source_goes_quiet_fetches_the_rest():
    """The source never answers MORE: after :data:`CATCHUP_WAIT_S` the
    joiner fetches every instance past the first chunk from the members and
    still ends on their history."""
    simulator, replicas, seen, standby = _long_history()
    for replica in replicas:
        replica.history.serve_catchup = lambda joiner, cursor: None
    _send_catchups(simulator, replicas, standby)
    simulator.run(until=simulator.now + CATCHUP_WAIT_S / 2)
    assert standby.decided_instances() == list(range(CATCHUP_RECORDS))
    assert "asmr.fetches" not in _counters(standby)
    simulator.run()
    _on_the_members_history(standby, replicas)
    assert _counters(standby)["asmr.fetches"] == HISTORY - CATCHUP_RECORDS
    assert standby.history.catchup_completed_at is not None


def _far_next_instance(standby):
    """Every CATCHUP reaching ``standby`` names a next instance no member
    ran: nothing proves that counter."""
    join = standby.history.join
    standby.history.join = lambda sender, body, live: join(
        sender, {**body, "next_instance": 10**12}, live
    )


def test_a_far_next_instance_from_a_quiet_source_cannot_hang_the_joiner():
    """The CATCHUP the joiner joins on carries a cursor and a far next
    instance, and its source never answers MORE: the joiner runs from its
    own target, fetches the history below it :data:`CATCHUP_RECORDS`
    instances at a time and nothing past it, ends on the members' history,
    and completes the next membership change as a member."""
    simulator, replicas, seen, standby = _long_history()
    for replica in replicas:
        replica.history.serve_catchup = lambda joiner, cursor: None
    _far_next_instance(standby)
    _send_catchups(simulator, replicas, standby)
    simulator.run()
    _on_the_members_history(standby, replicas)
    assert _counters(standby)["asmr.fetches"] == HISTORY - CATCHUP_RECORDS
    assert (standby.history.live_from, standby.next_instance) == (HISTORY, HISTORY)
    assert standby.target_instances == HISTORY
    # Replica 2 is excluded next and replica 5 (no process) included.
    start_inclusion(simulator, [*replicas[:3], standby], culprit=2, joiner=5)
    simulator.run()
    for member in (replicas[0], replicas[1], standby):
        assert member.membership_change is None
        assert (member.epoch, member.committee()) == (2, [0, 1, 4, 5])


def test_the_last_chunk_bounds_a_far_next_instance():
    """Every chunk of the joiner's source names a far next instance: the
    joiner waits at its own target, past the one live instance, until the
    last chunk bounds it to one past what it holds; it then runs the live
    instance and ends on the members' history."""
    simulator, replicas, seen, standby = _long_history()
    _far_next_instance(standby)
    _send_catchups(simulator, replicas, standby, live=1)
    simulator.run()
    _on_the_members_history(standby, replicas, HISTORY + 1)
    assert len(of_kind(seen, "MORE")) == 2
    assert standby.history.live_from <= HISTORY + 1 == standby.next_instance
