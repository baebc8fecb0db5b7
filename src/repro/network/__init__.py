"""Network substrate: the transport seam and its two backends.

Protocol code talks to an abstract :class:`~repro.network.transport.Transport`
(send, broadcast, timers, clock, membership).  Two backends implement it:

* :class:`~repro.network.simulator.NetworkSimulator` — the deterministic
  discrete-event simulator the paper's experiments run on, with pluggable
  :mod:`delay models <repro.network.delays>` including the partition-aware
  delays used to mount the coalition attacks of §5.2–§5.3.
* :class:`~repro.network.asyncio_transport.AsyncioTransport` — real TCP or
  UNIX-domain sockets with wall-clock timers, used by the ``python -m
  repro.cluster`` launcher to run the unmodified protocol stack as separate
  OS processes (messages cross via :mod:`repro.network.codec` frames).
"""

from repro.network.message import Message
from repro.network.codec import (
    CodecError,
    decode_message,
    encode_message,
    frame_message,
)
from repro.network.delays import (
    AwsRegionDelay,
    ConstantDelay,
    DelayModel,
    GammaDelay,
    PartitionedDelay,
    UniformDelay,
    delay_model_from_name,
)
from repro.network.faults import LinkFaults
from repro.network.partition import PartitionSpec
from repro.network.router import RoutedProcess, Router
from repro.network.simulator import NetworkSimulator, Process
from repro.network.topic import Topic, TopicLike, as_topic, topic
from repro.network.transport import Clock, Transport
from repro.network.asyncio_transport import AsyncioTransport, Endpoint

__all__ = [
    "Message",
    "Topic",
    "TopicLike",
    "as_topic",
    "topic",
    "Router",
    "RoutedProcess",
    "AwsRegionDelay",
    "ConstantDelay",
    "DelayModel",
    "GammaDelay",
    "PartitionedDelay",
    "UniformDelay",
    "delay_model_from_name",
    "LinkFaults",
    "PartitionSpec",
    "NetworkSimulator",
    "Process",
    "Clock",
    "Transport",
    "CodecError",
    "encode_message",
    "decode_message",
    "frame_message",
    "AsyncioTransport",
    "Endpoint",
]
