"""Simulated wide-area network connecting Cores.

Each pair of nodes is joined by a :class:`Link` with a bandwidth
(bytes/second) and a latency (seconds); both are mutable at runtime,
which is how experiments reproduce the paper's premise of "dynamically
changing transfer rates".  Every transfer charges virtual time
``latency + size / bandwidth`` to the scheduler's clock and is recorded
in per-link and global accounting, which the monitoring layer and the
benchmarks read.

Failure injection — crashed nodes, cut links, partitions — is the
:class:`~repro.net.transport.Transport` failure model, the same one the
TCP hub refuses by.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from repro.errors import ConfigurationError, DuplicateCoreError, TransportError
from repro.net.messages import Envelope, MessageKind
from repro.net.transport import UNLIMITED, NodeHandler, Transport
from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)

__all__ = ["Link", "SimTransport"]


@dataclass(slots=True)
class Link:
    """Speed of one directed link between two nodes."""

    bandwidth: float = 1_000_000.0  # bytes per second
    latency: float = 0.01           # seconds, one way

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

    This is the deterministic default backend: every delivery charges
    virtual time at the link's bandwidth and latency, so a failure
    scenario replays identically on any machine.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        default_bandwidth: float = 1_000_000.0,
        default_latency: float = 0.01,
        trace_capacity: int = 256,
    ) -> None:
        self._handlers: dict[str, NodeHandler] = {}
        super().__init__(scheduler, self._handlers, trace_capacity)
        self._default_bandwidth = default_bandwidth
        self._default_latency = default_latency
        self._links: dict[tuple[str, str], Link] = {}
        self._msg_ids = itertools.count(1)

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

    def link(self, src: str, dst: str) -> Link:
        """The directed link src→dst, created with defaults on first use."""
        key = (src, dst)
        if key not in self._links:
            self._links[key] = Link(self._default_bandwidth, self._default_latency)
        return self._links[key]

    def _shape_link(
        self, key: tuple[str, str], bandwidth: float | None, latency: float | None
    ) -> None:
        link = self.link(*key)
        if bandwidth is not None:
            link.bandwidth = bandwidth
        if latency is not None:
            link.latency = latency

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
        error = self._refusal(envelope.src, envelope.dst, envelope.kind)
        if error is not None:
            raise error
        self.trace.append(envelope)
        self._charge(envelope.src, envelope.dst, envelope.kind, len(envelope.payload))

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
