"""Trace-context propagation through the simulator, router and timers."""

import timeit

import pytest

from repro.common.config import SimulationConfig
from repro.network.message import Message
from repro.network.simulator import NetworkSimulator, Process
from repro.network.router import RoutedProcess
from repro.obs import Probe
from repro.obs.trace import TraceContext, TraceRuntime, Tracer, topic_trace_attrs


def make_simulator(runtime=None, delay="200ms"):
    from repro.network.delays import delay_model_from_name

    return NetworkSimulator(
        delay_model=delay_model_from_name(delay),
        config=SimulationConfig(seed=1),
        probe=Probe(trace=runtime) if runtime is not None else None,
    )


class Echo(Process):
    """Bounces PING back until hops run out; records active ctx per delivery."""

    def __init__(self, replica_id):
        super().__init__(replica_id)
        self.seen = []

    def on_message(self, message):
        self.seen.append((message.trace_ctx, self.probe.trace.tracer.current_ctx))
        if message.body["hops"] > 0:
            self.send_to(
                message.sender, "ping", "PING", {"hops": message.body["hops"] - 1}
            )


class TestUnicastPropagation:
    def test_context_stamped_and_chained_across_hops(self):
        runtime = TraceRuntime.enabled()
        simulator = make_simulator(runtime)
        a, b = Echo(0), Echo(1)
        simulator.add_process(a)
        simulator.add_process(b)

        root = runtime.tracer.start_trace("client", replica=0, at=0.0)
        previous = runtime.tracer.activate(root.ctx)
        simulator.submit(
            Message(sender=0, recipient=1, protocol="ping", kind="PING", body={"hops": 3})
        )
        runtime.tracer.restore(previous)
        simulator.run()

        # Every delivery ran under a span whose trace is the client's root.
        spans = runtime.tracer.spans
        assert all(span.trace_id == root.trace_id for span in spans)
        # 4 deliveries (hops 3,2,1,0) → 4 delivery spans + the root.
        assert len(spans) == 5
        # The chain is causal: each delivery span's parent is the span that
        # was active when the message was sent.
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_message_describe_includes_trace_id(self):
        message = Message(sender=0, recipient=1, protocol="p", kind="K")
        assert "[" not in message.describe()
        message.trace_ctx = TraceContext(trace_id=7, span_id=3)
        assert message.describe().endswith("[t7:s3]")
        assert "t7:s3" in repr(message)

    def test_with_recipient_copies_trace_ctx(self):
        message = Message(sender=0, recipient=None, protocol="p", kind="K")
        message.trace_ctx = TraceContext(trace_id=1, span_id=2)
        assert message.with_recipient(4).trace_ctx is message.trace_ctx


class TestBroadcastPropagation:
    def test_each_recipient_gets_a_child_span(self):
        runtime = TraceRuntime.enabled()
        simulator = make_simulator(runtime)

        class Sink(Process):
            def on_message(self, message):
                pass

        class Caster(Process):
            def on_start(self):
                root = self.probe.trace.tracer.start_trace("root", self.replica_id, self.now)
                previous = self.probe.trace.tracer.activate(root.ctx)
                self.broadcast("fanout", "HELLO", {}, include_self=False)
                self.probe.trace.tracer.restore(previous)

        caster = Caster(0)
        sinks = [Sink(i) for i in (1, 2, 3)]
        simulator.add_process(caster)
        for sink in sinks:
            simulator.add_process(sink)
        simulator.run()

        root = next(s for s in runtime.tracer.spans if s.name == "root")
        children = [
            s for s in runtime.tracer.spans if s.parent_id == root.span_id
        ]
        # One shared envelope, but one delivery span per recipient.
        assert sorted(span.replica for span in children) == [1, 2, 3]
        assert all(span.name == "fanout/HELLO" for span in children)


class TestTimerPropagation:
    def test_timer_callback_runs_on_scheduling_context(self):
        runtime = TraceRuntime.enabled()
        simulator = make_simulator(runtime)
        observed = []

        class Armer(Process):
            def on_start(self):
                root = self.probe.trace.tracer.start_trace("root", self.replica_id, self.now)
                previous = self.probe.trace.tracer.activate(root.ctx)
                self.set_timer(1.0, lambda: observed.append(
                    self.probe.trace.tracer.current_ctx
                ))
                self.probe.trace.tracer.restore(previous)
                # Outside the activation the context is gone again.
                assert self.probe.trace.tracer.current_ctx is None

        simulator.add_process(Armer(0))
        simulator.run()

        assert len(observed) == 1
        root = next(s for s in runtime.tracer.spans if s.name == "root")
        assert observed[0] is root.ctx

    def test_timer_without_context_fires_plainly(self):
        runtime = TraceRuntime.enabled()
        simulator = make_simulator(runtime)
        fired = []

        class Armer(Process):
            def on_start(self):
                self.set_timer(1.0, lambda: fired.append(self.probe.trace.tracer.current_ctx))

        simulator.add_process(Armer(0))
        simulator.run()
        assert fired == [None]


class TestRouterPropagation:
    def test_routed_dispatch_sees_active_context(self):
        runtime = TraceRuntime.enabled()
        simulator = make_simulator(runtime)
        observed = []

        class Routed(RoutedProcess):
            def __init__(self, replica_id):
                super().__init__(replica_id)
                self.router.register(
                    ("proto", "deep"),
                    lambda topic, sender, kind, body: observed.append(
                        ("deep", self.probe.trace.tracer.current_ctx)
                    ),
                )
                self.router.register(
                    ("proto",),
                    lambda topic, sender, kind, body: observed.append(
                        ("shallow", self.probe.trace.tracer.current_ctx)
                    ),
                )

        class Sender(Process):
            def on_start(self):
                root = self.probe.trace.tracer.start_trace("root", self.replica_id, self.now)
                previous = self.probe.trace.tracer.activate(root.ctx)
                self.send_to(1, ("proto", "deep", 5), "K", {})
                self.send_to(1, ("proto", "other"), "K", {})
                self.probe.trace.tracer.restore(previous)

        simulator.add_process(Sender(0))
        simulator.add_process(Routed(1))
        simulator.run()

        assert sorted(kind for kind, _ in observed) == ["deep", "shallow"]
        # Longest-prefix dispatch happens *inside* the delivery span.
        assert all(ctx is not None for _, ctx in observed)
        root_trace = runtime.tracer.spans[0].trace_id
        assert all(ctx.trace_id == root_trace for _, ctx in observed)


class TestTopicTraceAttrs:
    def test_rbc_topic(self):
        attrs = topic_trace_attrs(("asmr", 0, 3, "rbc", 2))
        assert attrs == {"head": "asmr", "instance": 3, "slot": 2}

    def test_bin_topic(self):
        attrs = topic_trace_attrs(("asmr", 0, 4, "bin", 1))
        assert attrs == {"head": "asmr", "instance": 4, "slot": 1}

    def test_sbc_topic(self):
        attrs = topic_trace_attrs(("sbc", 0, 7))
        assert attrs == {"head": "sbc", "instance": 7}


class TestDisabledModeNoOp:
    """The zero-overhead-when-disabled contract, on the trace verbs."""

    def test_disabled_simulator_stamps_nothing(self):
        simulator = make_simulator(None)
        assert simulator.probe is None
        seen = []

        class Sink(Process):
            def on_message(self, message):
                seen.append(message.trace_ctx)

        simulator.add_process(Sink(1))
        probe_message = Message(
            sender=0, recipient=1, protocol="ping", kind="PING", body={}
        )
        sender = Process(0)
        simulator.add_process(sender)
        simulator.submit(probe_message)
        simulator.run()
        assert seen == [None]
        assert probe_message.trace_ctx is None

    def test_disabled_guard_overhead_is_a_pointer_check(self):
        """The hot-path guard must cost no more than a None comparison."""
        probe = None
        live = Probe(trace=TraceRuntime(Tracer()))

        def disabled():
            if probe is not None:
                probe.event("x", 0, 0.0)

        def bare():
            pass

        def enabled():
            if live is not None:
                live.event("x", 0, 0.0)

        iterations = 50_000
        bare_s = min(timeit.repeat(bare, number=iterations, repeat=5))
        disabled_s = min(timeit.repeat(disabled, number=iterations, repeat=5))
        enabled_s = min(timeit.repeat(enabled, number=iterations, repeat=5))
        # The disabled guard stays within noise of an empty call; the margin
        # is deliberately loose (5x) because both sides are nanoseconds.
        assert disabled_s < bare_s * 5
        # Sanity: actually recording is the expensive side.
        assert enabled_s > disabled_s
