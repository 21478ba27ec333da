"""The abstract Transport protocol: the pluggable substrate below RPC.

The paper runs Core-to-Core traffic on Java RMI over real sockets; this
reproduction historically ran everything over one in-process simulated
network.  This module is the seam that makes the substrate
interchangeable: :class:`Transport` names exactly the surface the
:class:`~repro.net.rpc.RpcEndpoint` and
:class:`~repro.net.peer.PeerInterface` depend on, and everything above
(invocation, movement, recovery, chaos) goes through it.

Two implementations ship:

- :class:`~repro.net.simnet.SimTransport` — the deterministic simulated
  network (virtual clock, links with bandwidth and latency).  Default
  backend for tests and benchmarks.
- :class:`~repro.net.tcp.TcpTransport` — real TCP sockets with
  length-prefixed framing, so Cores run as separate OS processes (see
  :mod:`repro.cluster.launch`).

A transport is a *hub*: one instance carries several local nodes (every
Core of a cluster in this process, or the one Core of a child process
plus an address book of remote peers).  The failure model — crashed
nodes, cut links, partitions — is written here once, and both backends
refuse what it forbids through the same check.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, CoreDownError, CoreError, CoreUnreachableError
from repro.net.messages import Envelope, MessageKind

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Scheduler

#: Handler installed by each node: consumes an envelope, returns reply bytes.
NodeHandler = Callable[[Envelope], bytes]

#: Bandwidth meaning "effectively infinite" (loopback, un-modelled links).
UNLIMITED = float("inf")


@dataclass(slots=True)
class LinkStats:
    """Cumulative accounting for one directed link."""

    messages: int = 0
    bytes: int = 0
    seconds: float = 0.0

    def record(self, nbytes: int, seconds: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.seconds += seconds


@dataclass(slots=True)
class NetworkStats:
    """Global accounting across one transport."""

    messages: int = 0
    bytes: int = 0
    seconds: float = 0.0
    by_kind: Counter = field(default_factory=Counter)

    def record(self, kind: MessageKind, nbytes: int, seconds: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.seconds += seconds
        self.by_kind[kind] += 1


class TraceLog:
    """Bounded log of recent envelopes, formatted lazily.

    Appending stores a small tuple; the human-readable line (the hot-path
    cost of string formatting per message) is only built when someone
    actually iterates the log.
    """

    __slots__ = ("_entries",)

    def __init__(self, capacity: int) -> None:
        self._entries: deque[tuple[int, str, str, str, int]] = deque(maxlen=capacity)

    def append(self, envelope: Envelope) -> None:
        self._entries.append(
            (envelope.msg_id, envelope.src, envelope.dst,
             envelope.kind.value, len(envelope.payload))
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        for msg_id, src, dst, kind, nbytes in self._entries:
            yield f"[{msg_id}] {src} -> {dst} {kind} ({nbytes}B)"

    def clear(self) -> None:
        self._entries.clear()


class Transport(ABC):
    """Abstract Core-to-Core message substrate (connect/listen/send/close).

    Concrete transports provide attachment (:meth:`register`, the
    "listen" side: a TCP hub opens a listener socket per node, simnet adds
    a dispatch entry), delivery (:meth:`send` is synchronous
    request/reply returning the destination handler's bytes, :meth:`post`
    is fire-and-forget) and what they model of a link's speed
    (:meth:`_shape_link`).

    The base class owns the rest, with one meaning on every backend: the
    failure model (:meth:`set_node_down`, :meth:`set_link`'s ``up``,
    :meth:`partition`, :meth:`heal_partition`), the reachability it
    implies (:meth:`is_up`, :meth:`can_reach`, and :meth:`_refusal`,
    which the send paths call) and the accounting (:attr:`stats`,
    :meth:`link_stats`, :attr:`trace`).
    """

    def __init__(
        self, scheduler: "Scheduler", nodes: Mapping[str, object], trace_capacity: int
    ) -> None:
        #: Timer scheduler whose clock stamps durations (virtual for simnet,
        #: real for TCP).
        self.scheduler = scheduler
        #: Global accounting for traffic through this hub.
        self.stats = NetworkStats()
        #: Bounded log of recent envelopes.
        self.trace = TraceLog(trace_capacity)
        #: Every node this hub can address, by name (the backend's own table).
        self._nodes = nodes
        self._down: set[str] = set()
        self._blocked: set[tuple[str, str]] = set()
        self._partition_of: dict[str, int] = {}
        self._link_stats: dict[tuple[str, str], LinkStats] = {}

    # -- attachment ---------------------------------------------------------

    @abstractmethod
    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a local node (a Core) and start listening for it."""

    @abstractmethod
    def deregister(self, name: str) -> None:
        """Detach a node permanently (Core shutdown completed)."""

    # -- delivery -----------------------------------------------------------

    @abstractmethod
    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Deliver ``envelope`` and return the destination's reply bytes.

        ``timeout`` bounds the round trip in *real* seconds where the
        backend can enforce it (TCP); the simulated network ignores it
        because virtual-time deadlines are checked by the RPC layer.
        """

    @abstractmethod
    def post(self, envelope: Envelope) -> None:
        """Deliver ``envelope`` one-way; any reply bytes are discarded."""

    # -- addressing / reachability ------------------------------------------

    def nodes(self) -> list[str]:
        """Sorted names of every node this hub can address."""
        return sorted(self._nodes)

    def is_up(self, name: str) -> bool:
        """Whether ``name`` is attached and not known to be down."""
        return name in self._nodes and name not in self._down

    def can_reach(self, src: str, dst: str) -> bool:
        """Would a message from ``src`` to ``dst`` be deliverable now?"""
        return self._refusal(src, dst) is None

    def _refusal(self, src: str, dst: str, kind: str = "") -> CoreError | None:
        """The typed error delivery from src to dst would hit now, if any.

        A remote crash this hub was never told about surfaces later, as a
        connection failure.  A ``CHAOS`` message crosses cut links and
        partitions: it may be the one that heals them.
        """
        for name in (src, dst):
            if name not in self._nodes:
                return CoreUnreachableError(f"node {name!r} is not on the network")
            if name in self._down:
                return CoreDownError(f"node {name!r} is down")
        if src == dst or kind == MessageKind.CHAOS:
            return None
        if (src, dst) in self._blocked:
            return CoreUnreachableError(f"link {src!r} -> {dst!r} is down")
        if self._partition_of and self._partition_of.get(src) != self._partition_of.get(dst):
            return CoreUnreachableError(f"nodes {src!r} and {dst!r} are in different partitions")
        return None

    # -- the failure model --------------------------------------------------

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a node without deregistering it: this hub
        refuses its traffic, sent or received, with ``CoreDownError``."""
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def set_link(
        self,
        a: str,
        b: str,
        *,
        bandwidth: float | None = None,
        latency: float | None = None,
        up: bool | None = None,
        symmetric: bool = True,
    ) -> None:
        """Reconfigure the a→b link (and b→a unless ``symmetric=False``):
        ``up`` cuts or restores it, ``bandwidth`` and ``latency`` set what
        the backend models of its speed."""
        if bandwidth is not None and bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
        if latency is not None and latency < 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        for key in ([(a, b), (b, a)] if symmetric else [(a, b)]):
            self._shape_link(key, bandwidth, latency)
            if up is True:
                self._blocked.discard(key)
            elif up is False:
                self._blocked.add(key)

    @abstractmethod
    def _shape_link(
        self, key: tuple[str, str], bandwidth: float | None, latency: float | None
    ) -> None:
        """Set the directed link's speed; ``None`` leaves that part as it is."""

    def partition(self, *groups: set[str]) -> None:
        """Split the network: traffic flows only within each group.

        Nodes *not* listed in any group form an implicit group of their
        own: they can still reach each other, but not any grouped node.
        (Think of the groups as islands that broke off the mainland —
        whatever was not named stays on the mainland together, a node
        attached later included.)
        """
        partition_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in partition_of:
                    raise ConfigurationError(f"node {name!r} appears in two partitions")
                partition_of[name] = index
        self._partition_of = partition_of

    def heal_partition(self) -> None:
        """Remove any partition; link up/down state is unaffected."""
        self._partition_of = {}

    # -- accounting ---------------------------------------------------------

    def link_stats(self, src: str, dst: str) -> LinkStats:
        """Cumulative accounting for the directed link ``src`` → ``dst``."""
        stats = self._link_stats.get((src, dst))
        if stats is None:
            stats = self._link_stats.setdefault((src, dst), LinkStats())
        return stats

    def reset_stats(self) -> None:
        """Zero the global accounting (per-experiment measurement)."""
        self.stats = NetworkStats()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the whole transport down (listeners, connections, threads)."""
