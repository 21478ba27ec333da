"""Simulated wide-area network connecting Cores.

Each pair of nodes is joined by a :class:`Link` with a bandwidth
(bytes/second) and a latency (seconds); both are mutable at runtime,
which is how experiments reproduce the paper's premise of "dynamically
changing transfer rates".  Every transfer charges virtual time
``latency + size / bandwidth`` to the scheduler's clock and is recorded
in per-link and global accounting, which the monitoring layer and the
benchmarks read.

Failure injection covers the cases the paper's layout policies react to:
individual links can go down, nodes can be stopped (Core shutdown), and
the network can be split into partitions.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    CoreDownError,
    CoreError,
    CoreUnreachableError,
    DuplicateCoreError,
    TransportError,
)
from repro.net.messages import Envelope, MessageKind
from repro.net.transport import (
    CAP_BANDWIDTH,
    CAP_LATENCY,
    CAP_LINK_STATE,
    CAP_NODE_DOWN,
    CAP_PARTITION,
    CAP_VIRTUAL_TIME,
    UNLIMITED,
    LinkStats,
    NetworkStats,
    NodeHandler,
    TraceLog,
    Transport,
)
from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)

__all__ = ["Link", "SimTransport"]


@dataclass(slots=True)
class Link:
    """State of one directed link between two nodes."""

    bandwidth: float = 1_000_000.0  # bytes per second
    latency: float = 0.01           # seconds, one way
    up: bool = True

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` across this link."""
        if self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.bandwidth == UNLIMITED:
            return self.latency
        return self.latency + nbytes / self.bandwidth


class SimTransport(Transport):
    """A set of named nodes joined by configurable links.

    The network is synchronous: :meth:`send` delivers the envelope to the
    destination handler and returns its reply, charging virtual time for
    both directions.  :meth:`post` is fire-and-forget (one direction).

    This is the deterministic default backend: every chaos capability is
    supported and every delivery charges virtual time, so a failure
    scenario replays identically on any machine.
    """

    CAPABILITIES = frozenset(
        {
            CAP_NODE_DOWN,
            CAP_LINK_STATE,
            CAP_LATENCY,
            CAP_BANDWIDTH,
            CAP_PARTITION,
            CAP_VIRTUAL_TIME,
        }
    )

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        default_bandwidth: float = 1_000_000.0,
        default_latency: float = 0.01,
        trace_capacity: int = 256,
    ) -> None:
        self.scheduler = scheduler
        self._default_bandwidth = default_bandwidth
        self._default_latency = default_latency
        self._handlers: dict[str, NodeHandler] = {}
        self._down: set[str] = set()
        self._links: dict[tuple[str, str], Link] = {}
        self._link_stats: dict[tuple[str, str], LinkStats] = {}
        self._partition_of: dict[str, int] = {}
        self._msg_ids = itertools.count(1)
        self.stats = NetworkStats()
        self.trace = TraceLog(trace_capacity)

    # -- topology -----------------------------------------------------------

    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a node (a Core) to the network."""
        if name in self._handlers:
            raise DuplicateCoreError(f"node {name!r} is already registered")
        self._handlers[name] = handler
        self._down.discard(name)

    def deregister(self, name: str) -> None:
        """Detach a node permanently (Core shutdown completed)."""
        self._handlers.pop(name, None)
        self._down.add(name)

    def nodes(self) -> list[str]:
        return sorted(self._handlers)

    def is_up(self, name: str) -> bool:
        return name in self._handlers and name not in self._down

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a node without deregistering it."""
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def can_reach(self, src: str, dst: str) -> bool:
        """Would a message from ``src`` to ``dst`` be deliverable right now?

        Accounts for crashed nodes, downed links, and partitions — the
        same checks :meth:`send` applies — without sending anything.
        """
        try:
            self._check_reachable(src, dst)
        except CoreError:
            return False
        return True

    def link(self, src: str, dst: str) -> Link:
        """The directed link src→dst, created with defaults on first use."""
        key = (src, dst)
        if key not in self._links:
            self._links[key] = Link(self._default_bandwidth, self._default_latency)
        return self._links[key]

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
        """Reconfigure the a→b link (and b→a unless ``symmetric=False``)."""
        directions = [(a, b), (b, a)] if symmetric else [(a, b)]
        for src, dst in directions:
            link = self.link(src, dst)
            if bandwidth is not None:
                if bandwidth <= 0:
                    raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
                link.bandwidth = bandwidth
            if latency is not None:
                if latency < 0:
                    raise ConfigurationError(f"latency must be non-negative, got {latency}")
                link.latency = latency
            if up is not None:
                link.up = up

    def partition(self, *groups: set[str]) -> None:
        """Split the network: traffic flows only within each group.

        Nodes *not* listed in any group form an implicit group of their
        own: they can still reach each other, but not any grouped node.
        (Think of the groups as islands that broke off the mainland —
        whatever was not named stays on the mainland together.)
        """
        self._partition_of = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in self._partition_of:
                    raise ConfigurationError(f"node {name!r} appears in two partitions")
                self._partition_of[name] = index

    def heal_partition(self) -> None:
        """Remove any partition; link up/down state is unaffected."""
        self._partition_of = {}

    def link_stats(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        if key not in self._link_stats:
            self._link_stats[key] = LinkStats()
        return self._link_stats[key]

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Predicted one-way transfer time for ``nbytes`` from src to dst."""
        if src == dst:
            return 0.0
        return self.link(src, dst).transfer_time(nbytes)

    # -- delivery -------------------------------------------------------------

    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Deliver ``envelope`` and return the destination's reply bytes.

        ``timeout`` is accepted for :class:`~repro.net.transport.Transport`
        signature parity and ignored: the simulated network is synchronous
        in virtual time, so deadlines are enforced after the fact by the
        RPC layer against the virtual clock.
        """
        self._deliver(envelope)
        handler = self._handlers[envelope.dst]
        reply = handler(envelope)
        if not isinstance(reply, bytes):
            raise TransportError(
                f"handler at {envelope.dst!r} returned {type(reply).__name__}, expected bytes"
            )
        self._charge(envelope.dst, envelope.src, envelope.kind, len(reply))
        return reply

    def post(self, envelope: Envelope) -> None:
        """Deliver ``envelope`` one-way; any reply bytes are discarded.

        One-way means one-way: an exception inside the *receiving*
        handler is caught at the receiving boundary and logged — the
        sender already moved on, so nothing propagates back to it.
        Reachability failures (raised before delivery) still surface at
        the sender, exactly like a failed network write.
        """
        self._deliver(envelope)
        try:
            self._handlers[envelope.dst](envelope)
        except Exception:  # noqa: BLE001 - receiving-boundary isolation
            logger.warning(
                "one-way %s handler at %r failed", envelope.kind.value, envelope.dst,
                exc_info=True,
            )

    def _deliver(self, envelope: Envelope) -> None:
        envelope.msg_id = next(self._msg_ids)
        self._check_reachable(envelope.src, envelope.dst)
        self.trace.append(envelope)
        self._charge(envelope.src, envelope.dst, envelope.kind, len(envelope.payload))

    def _check_reachable(self, src: str, dst: str) -> None:
        for name in (src, dst):
            if name not in self._handlers:
                raise CoreUnreachableError(f"node {name!r} is not on the network")
            if name in self._down:
                raise CoreDownError(f"node {name!r} is down")
        if src == dst:
            return
        if not self.link(src, dst).up:
            raise CoreUnreachableError(f"link {src!r} -> {dst!r} is down")
        if self._partition_of:
            src_group = self._partition_of.get(src)
            dst_group = self._partition_of.get(dst)
            if src_group != dst_group:
                raise CoreUnreachableError(
                    f"nodes {src!r} and {dst!r} are in different partitions"
                )

    def _charge(self, src: str, dst: str, kind: MessageKind, nbytes: int) -> None:
        seconds = self.transfer_time(src, dst, nbytes)
        self.stats.record(kind, nbytes, seconds)
        if src != dst:
            self.link_stats(src, dst).record(nbytes, seconds)
        if seconds > 0.0:
            # Quiet: transfer time moves the clock but never fires timers
            # mid-protocol; due work runs at the next explicit advance.
            self.scheduler.advance_quiet(seconds)

    def close(self) -> None:
        """Detach every node; the simulated fabric itself has no resources."""
        for name in list(self._handlers):
            self.deregister(name)
