"""Stubs and the stub compiler.

The FarGo compiler accepts an anchor class (``Message_``) and generates
a stub class (``Message``) whose constructors and method signatures are
identical to the anchor's.  Programs hold and call stubs exactly as if
they were the anchor — the paper's syntactic transparency — while the
stub delegates every call to the Core-local tracker for its target.

:func:`compile_complet` is that compiler, run at import time instead of
offline.  The generated stub class:

- mirrors every public method of the anchor (same name, signature,
  docstring), each forwarding through the invocation unit;
- mirrors every public read property;
- constructs a *new complet* when instantiated: ``Message("hi")``
  instantiates the anchor on the current (or given) Core, installs it,
  and wires the stub — one statement, like Java's ``new``.
"""

from __future__ import annotations

import functools

from repro.complet.anchor import Anchor, anchor_type_name, current_core
from repro.complet.metaref import MetaRef
from repro.complet.relocators import Link, Relocator
from repro.complet.tracker import Tracker
from repro.errors import (
    CompletError,
    NotAnAnchorError,
    SerializationError,
    StubGenerationError,
)
from repro.util.ids import CompletId
from repro.util.introspect import public_methods

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core


class Stub:
    """Base class of every generated stub.

    All runtime attributes are ``_fargo``-prefixed so they can never
    collide with the mirrored anchor interface.
    """

    #: Anchor class this stub class was compiled from (set per subclass).
    _fargo_anchor_cls: type[Anchor] = Anchor

    _fargo_core: "Core | None"
    _fargo_tracker: Tracker
    _fargo_meta: MetaRef

    def __init__(self, *args, _core: "Core | None" = None, _at: str | None = None, **kwargs):
        """Instantiate a *new* complet and wire this stub to it.

        ``_core`` names the Core issuing the instantiation (defaults to
        the Core of the currently executing complet code); ``_at`` asks
        for remote instantiation on another Core.  All other arguments
        go to the anchor's constructor — by value if remote.
        """
        core = _core if _core is not None else current_core()
        if core is None:
            raise CompletError(
                f"cannot instantiate {type(self).__name__}: no Core in context; "
                "pass _core= or instantiate from within complet code"
            )
        anchor_cls = self._fargo_anchor_cls
        if _at is None or _at == core.name:
            # Constructor parameters obey the same passing semantics as
            # method parameters (§3.1): regular objects by value, complet
            # references by reference — re-materialized at the hosting
            # Core so the new complet never shares state with its creator.
            marshaler = core.invocation.marshaler
            args, kwargs = marshaler.loads(marshaler.dumps((args, kwargs)))  # type: ignore[misc]
            tracker = core.repository.install_new(anchor_cls, args, kwargs)
            self._fargo_wire_to(core, tracker, Link())
        else:
            token = core.instantiate_remote(anchor_cls, _at, args, kwargs)
            donor = core.references.materialize(token)
            self._fargo_wire_to(core, donor._fargo_tracker, donor._fargo_meta.get_relocator())

    # -- wiring ----------------------------------------------------------------

    def _fargo_wire_to(self, core: "Core | None", tracker: Tracker, relocator: Relocator) -> None:
        self._fargo_core = core
        self._fargo_tracker = tracker
        self._fargo_meta = MetaRef(self, relocator)
        tracker.attach_stub(self)

    @classmethod
    def _fargo_from_tracker(
        cls, core: "Core | None", tracker: Tracker, relocator: Relocator
    ) -> "Stub":
        """Materialize a stub for an existing complet (no construction)."""
        stub = object.__new__(cls)
        stub._fargo_wire_to(core, tracker, relocator)
        return stub

    # -- delegation ---------------------------------------------------------------

    def _fargo_invoke(self, method: str, args: tuple, kwargs: dict) -> object:
        core = self._fargo_core
        if core is None:
            raise CompletError(f"stub {self!r} is not wired to a Core")
        return core.invocation.invoke_stub(self, method, args, kwargs)

    @property
    def _fargo_target_id(self) -> CompletId:
        return self._fargo_tracker.target_id

    # -- safety ---------------------------------------------------------------------

    def __reduce__(self):
        # Stubs may only cross a Core boundary through the marshal hooks,
        # which divert them into reference tokens before pickle ever asks.
        raise SerializationError(
            f"stub {type(self).__name__} reached a serializer without complet-aware "
            "hooks; complet references cannot be pickled directly"
        )

    def __repr__(self) -> str:
        tracker = getattr(self, "_fargo_tracker", None)
        if tracker is None:
            return f"<{type(self).__name__} stub (unwired)>"
        return (
            f"<{type(self).__name__} stub -> {tracker.target_id} "
            f"({self._fargo_meta.type_name})>"
        )


# -- public accessors ------------------------------------------------------
#
# The runtime attributes of a stub are ``_fargo``-prefixed to keep the
# mirrored anchor interface collision-free, which makes them *private to
# this package*.  Other layers (cluster, scripts, apps) read them through
# these accessors instead of reaching into the prefix namespace.


def stub_core(stub: Stub) -> "Core | None":
    """The Core a reference is wired to (None for an unwired stub)."""
    _require_stub(stub, "stub_core")
    return stub._fargo_core


def stub_tracker(stub: Stub) -> Tracker:
    """The Core-local tracker a reference delegates to."""
    _require_stub(stub, "stub_tracker")
    return stub._fargo_tracker


def stub_meta(stub: Stub) -> MetaRef:
    """The meta reference (relocator, statistics) of a reference."""
    _require_stub(stub, "stub_meta")
    return stub._fargo_meta


def stub_target_id(stub: Stub) -> CompletId:
    """The complet id a reference points at."""
    _require_stub(stub, "stub_target_id")
    return stub._fargo_target_id


def _require_stub(value: object, accessor: str) -> None:
    if not isinstance(value, Stub):
        raise CompletError(
            f"{accessor} expects a complet reference, got {type(value).__name__}"
        )


_STUB_CACHE: dict[type[Anchor], type[Stub]] = {}


def compile_complet(anchor_cls: type) -> type[Stub]:
    """Generate (or fetch) the stub class for ``anchor_cls``.

    This is the runtime equivalent of the offline FarGo Compiler.  The
    anchor class name must end with an underscore (the paper's
    convention); the stub class drops it: ``Message_`` → ``Message``.
    """
    if not isinstance(anchor_cls, type) or not issubclass(anchor_cls, Anchor):
        raise NotAnAnchorError(
            f"{getattr(anchor_cls, '__name__', anchor_cls)!r} is not an Anchor subclass"
        )
    if anchor_cls is Anchor:
        raise StubGenerationError("cannot compile the Anchor base class itself")
    if not anchor_cls.__name__.endswith("_"):
        raise StubGenerationError(
            f"anchor class {anchor_cls.__name__!r} must end with an underscore "
            "(e.g. Message_); the stub class takes the name without it"
        )
    cached = _STUB_CACHE.get(anchor_cls)
    if cached is not None:
        return cached

    namespace: dict[str, object] = {
        "_fargo_anchor_cls": anchor_cls,
        "__doc__": f"Compiled stub for complet anchor {anchor_cls.__name__}.",
        "__module__": anchor_cls.__module__,
    }
    for name, func in public_methods(anchor_cls, stop_at=Anchor):
        namespace[name] = _make_stub_method(name, func)
    for name, prop in _public_properties(anchor_cls):
        namespace[name] = _make_stub_property(name, prop)

    stub_cls = type(anchor_type_name(anchor_cls), (Stub,), namespace)
    _STUB_CACHE[anchor_cls] = stub_cls
    return stub_cls


def stub_class_for(anchor_cls: type[Anchor]) -> type[Stub]:
    """Stub class for an anchor class, compiling on first use."""
    return compile_complet(anchor_cls)


def _make_stub_method(name: str, anchor_func) -> object:
    @functools.wraps(anchor_func)
    def stub_method(self: Stub, *args, **kwargs):
        return self._fargo_invoke(name, args, kwargs)

    return stub_method


def _make_stub_property(name: str, anchor_prop: property) -> property:
    def getter(self: Stub):
        return self._fargo_invoke(name, (), {})

    getter.__name__ = name
    getter.__doc__ = anchor_prop.__doc__
    return property(getter, doc=anchor_prop.__doc__)


def _public_properties(anchor_cls: type):
    seen: set[str] = set()
    for klass in anchor_cls.__mro__:
        if klass is object or klass is Anchor or not issubclass(klass, Anchor):
            continue
        for name, member in vars(klass).items():
            if name.startswith("_") or name in seen:
                continue
            if isinstance(member, property):
                seen.add(name)
                yield name, member
