"""Network substrate: the layer below the Core's Peer Interface.

The paper implements Core-to-Core communication on Java RMI over real
sockets.  Here the substrate is pluggable behind one abstract protocol:

- :mod:`repro.net.transport` — the abstract :class:`Transport` protocol
  (attach/send/post/close, peer addressing, stats and trace hooks,
  capability-gated chaos) that :class:`RpcEndpoint` and
  :class:`PeerInterface` depend on, plus :class:`TransportGroup` for
  presenting per-Core hubs as one cluster-wide view.
- :mod:`repro.net.simnet` — :class:`SimTransport`, a simulated network
  of named nodes connected by links with configurable bandwidth and
  latency (mutable at runtime), partitions, and full transfer
  accounting.  Deterministic; the default backend for tests.
- :mod:`repro.net.tcp` — :class:`TcpTransport`, real TCP
  sockets with the length-prefixed framing of :mod:`repro.net.framing`,
  so Cores run as separate OS processes (see :mod:`repro.cluster.launch`).
- :mod:`repro.net.serializer` — pickle-based serialization with
  pluggable persistent-id hooks; *every* payload crossing a link is
  serialized and deserialized, so no object identity ever leaks between
  Cores (the isolation separate JVMs gave the original system).
- :mod:`repro.net.rpc` — synchronous request/reply (the RMI analogue)
  plus one-way posts, with by-value exception propagation.
- :mod:`repro.net.peer` — the Peer Interface of Figure 1: the typed
  facade Cores use to talk to each other.
"""

from repro.errors import TransportCapabilityError, TransportError
from repro.net.framing import FrameDecoder, FramingError
from repro.net.messages import Envelope, MessageKind
from repro.net.serializer import Serializer
from repro.net.transport import (
    CAP_BANDWIDTH,
    CAP_LATENCY,
    CAP_LINK_STATE,
    CAP_NODE_DOWN,
    CAP_PARTITION,
    CAP_VIRTUAL_TIME,
    LinkStats,
    NetworkStats,
    TraceLog,
    Transport,
    TransportGroup,
)
from repro.net.simnet import Link, SimTransport
from repro.net.tcp import TcpTransport
from repro.net.rpc import RpcEndpoint
from repro.net.peer import PeerInterface

__all__ = [
    "Envelope",
    "MessageKind",
    "Serializer",
    "Link",
    "LinkStats",
    "NetworkStats",
    "TraceLog",
    "Transport",
    "TransportGroup",
    "TransportError",
    "TransportCapabilityError",
    "SimTransport",
    "TcpTransport",
    "FrameDecoder",
    "FramingError",
    "RpcEndpoint",
    "PeerInterface",
    "CAP_NODE_DOWN",
    "CAP_LINK_STATE",
    "CAP_LATENCY",
    "CAP_BANDWIDTH",
    "CAP_PARTITION",
    "CAP_VIRTUAL_TIME",
]
