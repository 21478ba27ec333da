"""The Naming service: logical names for complets.

Every Core keeps a local table mapping logical names to complet
references (live stubs, so a binding keeps following its complet as it
migrates — the name does not break when the complet moves away from the
Core that holds the binding).  Remote Cores can bind, look up, unbind,
and list over the network; reference transfer uses the invocation
marshaler, so what travels is a reference token, never the complet.
"""

from __future__ import annotations

from repro.complet.stub import Stub
from repro.errors import NameAlreadyBoundError, NameNotFoundError
from repro.net.messages import MessageKind

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core


class NamingService:
    """One Core's name table plus remote access to other Cores' tables."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        self._bindings: dict[str, Stub] = {}
        core.peer.register_raw(MessageKind.NAME_BIND, self._handle_bind)
        core.peer.register_raw(MessageKind.NAME_LOOKUP, self._handle_lookup)
        core.peer.register(MessageKind.NAME_UNBIND, self._handle_unbind)
        core.peer.register(MessageKind.NAME_LIST, self._handle_list)

    # -- local table ---------------------------------------------------------------

    def bind(self, name: str, stub: Stub, *, replace: bool = False) -> None:
        """Bind ``name`` to a complet reference in this Core's table."""
        if not replace and name in self._bindings:
            raise NameAlreadyBoundError(
                f"name {name!r} is already bound at Core {self.core.name!r}"
            )
        self._bindings[name] = stub

    def lookup(self, name: str) -> Stub:
        """Resolve ``name`` in this Core's table."""
        try:
            return self._bindings[name]
        except KeyError:
            raise NameNotFoundError(
                f"no complet bound as {name!r} at Core {self.core.name!r}"
            ) from None

    def unbind(self, name: str) -> None:
        if name not in self._bindings:
            raise NameNotFoundError(
                f"no complet bound as {name!r} at Core {self.core.name!r}"
            )
        del self._bindings[name]

    def names(self) -> list[str]:
        return sorted(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    # -- remote access -----------------------------------------------------------------

    def bind_at(self, core_name: str, name: str, stub: Stub, *, replace: bool = False) -> None:
        """Bind a name in *another* Core's table."""
        if core_name == self.core.name:
            self.bind(name, stub, replace=replace)
            return
        payload = self.core.invocation.marshaler.dumps((name, stub, replace))
        self.core.peer.request_raw(core_name, MessageKind.NAME_BIND, payload)

    def lookup_at(self, core_name: str, name: str) -> Stub:
        """Resolve a name bound at another Core; returns a local stub."""
        if core_name == self.core.name:
            return self.lookup(name)
        payload = self.core.invocation.marshaler.dumps(name)
        reply = self.core.peer.request_raw(core_name, MessageKind.NAME_LOOKUP, payload)
        stub = self.core.invocation.marshaler.loads(reply)
        assert isinstance(stub, Stub)
        return stub

    def unbind_at(self, core_name: str, name: str) -> None:
        if core_name == self.core.name:
            self.unbind(name)
            return
        self.core.peer.request(core_name, MessageKind.NAME_UNBIND, name)

    def names_at(self, core_name: str) -> list[str]:
        if core_name == self.core.name:
            return self.names()
        reply = self.core.peer.request(core_name, MessageKind.NAME_LIST, None)
        assert isinstance(reply, list)
        return reply

    def lookup_anywhere(self, name: str) -> Stub:
        """Search every reachable Core's table for ``name``.

        The local table is consulted first; remote Cores are then probed
        in sorted order.  Convenience for applications that do not track
        where a binding was made.
        """
        if name in self._bindings:
            return self._bindings[name]
        for core_name in self.core.peer.peers():
            if core_name == self.core.name or not self.core.peer.is_peer_up(core_name):
                continue
            try:
                return self.lookup_at(core_name, name)
            except NameNotFoundError:
                continue
        raise NameNotFoundError(f"no Core binds the name {name!r}")

    # -- message handlers ------------------------------------------------------------------

    def _handle_bind(self, src: str, payload: bytes) -> bytes:
        name, stub, replace = self.core.invocation.marshaler.loads(payload)  # type: ignore[misc]
        self.bind(name, stub, replace=replace)
        return self.core.invocation.marshaler.dumps(None)

    def _handle_lookup(self, src: str, payload: bytes) -> bytes:
        name = self.core.invocation.marshaler.loads(payload)
        assert isinstance(name, str)
        return self.core.invocation.marshaler.dumps(self.lookup(name))

    def _handle_unbind(self, src: str, name: object) -> None:
        assert isinstance(name, str)
        self.unbind(name)

    def _handle_list(self, src: str, _body: object) -> list[str]:
        return self.names()
