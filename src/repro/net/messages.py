"""Wire message kinds and the envelope frame.

Each inter-Core interaction is one :class:`Envelope` carrying a kind tag
and an opaque payload.  The kinds enumerate the complete Core-to-Core
protocol of the runtime; having them in one place makes the protocol
auditable and lets tests assert on traffic shape (e.g. that a group move
of N complets is exactly one ``MOVE_COMPLET`` message — the paper's
single-stream claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.net.serializer import Segments


class MessageKind(str, Enum):
    """Every message kind of the Core-to-Core protocol."""

    # Invocation unit
    INVOKE = "invoke"                       # forward a method invocation
    # Movement unit
    MOVE_COMPLET = "move_complet"           # carry a marshaled movement group
    MOVE_REQUEST = "move_request"           # ask the hosting Core to move a complet
    CLONE_REQUEST = "clone_request"         # ask for a marshaled copy (remote duplicate)
    # Reference handler
    TRACKER_LOOKUP = "tracker_lookup"       # resolve a tracker address / walk a chain
    TRACKER_UPDATE = "tracker_update"       # (de)register a remote pointer
    # Location registry (the paper's future-work naming scheme)
    LOCATION_UPDATE = "location_update"     # complet arrived somewhere: tell its home
    LOCATION_QUERY = "location_query"       # ask a home Core where a complet is
    # Naming service
    NAME_BIND = "name_bind"
    NAME_LOOKUP = "name_lookup"
    NAME_UNBIND = "name_unbind"
    NAME_LIST = "name_list"
    # Remote instantiation
    INSTANTIATE = "instantiate"
    # Liveness detection
    HEARTBEAT = "heartbeat"                 # failure-detector ping
    # Monitoring / events
    EVENT_NOTIFY = "event_notify"           # deliver a fired event to a listener
    EVENT_SUBSCRIBE = "event_subscribe"     # register a remote listener
    EVENT_SUBSCRIBE_COMPLET = "event_subscribe_complet"  # register a complet listener
    EVENT_UNSUBSCRIBE = "event_unsubscribe"
    PROFILE_PROBE = "profile_probe"         # measure latency/bandwidth
    # Administration (shell / viewer)
    ADMIN_QUERY = "admin_query"             # layout snapshots, complet lists
    # Transport-level aggregation (repro.net.batching)
    BATCH = "batch"                         # several one-way envelopes, one transfer

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


@dataclass(slots=True)
class Envelope:
    """One framed message travelling between two Cores."""

    src: str
    dst: str
    kind: MessageKind
    payload: bytes | memoryview | Segments
    msg_id: int = 0
    headers: dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        """Short human-readable form for traces and the viewer."""
        return f"[{self.msg_id}] {self.src} -> {self.dst} {self.kind.value} ({len(self.payload)}B)"


#: Envelope headers carrying the distributed-tracing context.  Every
#: cross-Core interaction of a traced operation carries these, which is
#: how one logical operation yields one span tree spanning Cores.
TRACE_ID_HEADER = "trace-id"
SPAN_ID_HEADER = "span-id"
