"""The Peer Interface: the Core's port for low-level Core-to-Core traffic.

This is the bottom box of Figure 1.  It wraps the RPC endpoint with
object-level convenience calls, letting each interaction choose its own
serializer — control traffic uses the plain serializer, while invocation
and movement payloads are encoded by the complet-aware marshalers before
they reach this layer.
"""

from __future__ import annotations

from repro.net.messages import MessageKind
from repro.net.retry import RetryPolicy
from repro.net.rpc import RpcEndpoint, RpcHandler
from repro.net.serializer import PLAIN, Segments, Serializer
from repro.net.transport import LinkStats, Transport


class PeerInterface:
    """Typed facade over one Core's RPC endpoint.

    Works against any :class:`Transport`.  Besides the messaging calls
    this facade also exposes the protocol-level topology accessors
    (:meth:`peers`, :meth:`is_peer_up`, :meth:`can_reach`,
    :meth:`link_stats`) so the layers above never have to reach into the
    transport themselves.
    """

    def __init__(self, core_name: str, transport: Transport) -> None:
        self.core_name = core_name
        self.endpoint = RpcEndpoint(core_name, transport)
        self.transport = self.endpoint.transport

    # -- topology -------------------------------------------------------------

    def peers(self) -> list[str]:
        """Every node name known to the transport, this Core included."""
        return self.transport.nodes()

    def is_peer_up(self, name: str) -> bool:
        """Whether ``name`` is attached and not administratively down."""
        return self.transport.is_up(name)

    def can_reach(self, dst: str) -> bool:
        """Whether traffic from this Core can currently reach ``dst``."""
        return self.transport.can_reach(self.core_name, dst)

    def link_stats(self, dst: str) -> LinkStats:
        """Directed traffic counters from this Core towards ``dst``."""
        return self.transport.link_stats(self.core_name, dst)

    def link_bytes(self, peer: str) -> int:
        """Total bytes exchanged with ``peer`` (both directions)."""
        outgoing = self.transport.link_stats(self.core_name, peer)
        incoming = self.transport.link_stats(peer, self.core_name)
        return outgoing.bytes + incoming.bytes

    # -- fault-tolerance configuration ----------------------------------------

    def configure_retry(
        self, policy: RetryPolicy | None, kind: MessageKind | None = None
    ) -> None:
        """Retry policy for outgoing requests of ``kind`` (default: all)."""
        self.endpoint.set_retry_policy(policy, kind)

    def configure_timeout(
        self, seconds: float | None, kind: MessageKind | None = None
    ) -> None:
        """Round-trip deadline for outgoing requests of ``kind`` (default: all)."""
        self.endpoint.set_timeout(seconds, kind)

    # -- outgoing -------------------------------------------------------------

    def request(
        self,
        dst: str,
        kind: MessageKind,
        body: object,
        *,
        serializer: Serializer = PLAIN,
        reply_serializer: Serializer | None = None,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> object:
        """Serialize ``body``, send it, and deserialize the reply.

        ``serializer`` encodes the request; ``reply_serializer`` (default:
        the same) decodes the reply.  Movement and invocation use
        asymmetric pairs because tokens are resolved against different
        Cores on each side.  ``timeout`` and ``retry`` override the
        endpoint's per-kind configuration for this one request.
        """
        payload = serializer.dumps(body)
        reply = self.endpoint.call(dst, kind, payload, timeout=timeout, retry=retry)
        decoder = reply_serializer if reply_serializer is not None else serializer
        return decoder.loads(reply)

    def request_raw(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes | Segments,
        *,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> bytes:
        """Send a pre-encoded payload and return raw reply bytes."""
        return self.endpoint.call(dst, kind, payload, timeout=timeout, retry=retry)

    def notify(
        self,
        dst: str,
        kind: MessageKind,
        body: object,
        *,
        serializer: Serializer = PLAIN,
    ) -> None:
        """One-way message (event notifications, shutdown broadcasts)."""
        self.endpoint.post(dst, kind, serializer.dumps(body))

    # -- incoming -------------------------------------------------------------

    def register_raw(self, kind: MessageKind, handler: RpcHandler) -> None:
        """Install a raw bytes-level handler (used by movement/invocation)."""
        self.endpoint.register(kind, handler)

    def register(self, kind: MessageKind, handler, *, serializer: Serializer = PLAIN) -> None:
        """Install an object-level handler: ``handler(src, body) -> reply``."""

        def raw_handler(src: str, payload: bytes) -> bytes:
            body = serializer.loads(payload)
            reply = handler(src, body)
            return serializer.dumps(reply)

        self.endpoint.register(kind, raw_handler)

    def close(self) -> None:
        self.endpoint.close()
