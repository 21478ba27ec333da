"""Anchors: the interface objects of complets.

A programmer defines a complet by subclassing :class:`Anchor` with a
trailing underscore in the class name (the paper's convention:
``Message_`` is the anchor class; the compiler emits a stub class called
``Message``).  The anchor's public methods are the complet's interface;
everything reachable from the anchor — without crossing a stub — is the
complet's closure and relocates with it.

Anchors may override the four movement callbacks of §3.3
(:meth:`pre_departure`, :meth:`pre_arrival`, :meth:`post_arrival`,
:meth:`post_departure`) and can reach the Core they are currently
executing on through :attr:`Anchor.core` (a dynamic context lookup, so
the attribute never pins a Core into the closure).
"""

from __future__ import annotations

import contextvars

from repro.errors import CompletError
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: The Core currently executing complet code (set by the invocation unit
#: and the movement protocol around every entry into complet code).
_current_core: contextvars.ContextVar["Core | None"] = contextvars.ContextVar(
    "fargo_current_core", default=None
)
#: The complet whose method is currently executing (for application
#: profiling: attributing invocation rates to source complets).
_current_complet: contextvars.ContextVar[CompletId | None] = contextvars.ContextVar(
    "fargo_current_complet", default=None
)


def current_core() -> "Core | None":
    """The Core on whose behalf complet code is currently running."""
    return _current_core.get()


def current_complet() -> CompletId | None:
    """The complet whose method is currently executing, if any."""
    return _current_complet.get()


class execution_context:
    """Context manager installing the (core, complet) execution context."""

    def __init__(self, core: "Core | None", complet_id: CompletId | None) -> None:
        self._core = core
        self._complet_id = complet_id
        self._core_token: contextvars.Token | None = None
        self._complet_token: contextvars.Token | None = None

    def __enter__(self) -> "execution_context":
        self._core_token = _current_core.set(self._core)
        self._complet_token = _current_complet.set(self._complet_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._core_token is not None and self._complet_token is not None
        _current_core.reset(self._core_token)
        _current_complet.reset(self._complet_token)


class Anchor:
    """Base class of every complet anchor.

    The underscore naming convention is enforced by the stub compiler,
    not here, so anchors can be unit-tested without a Core.
    """

    #: Set when the complet is installed at a Core; travels with the complet.
    _complet_id: CompletId | None = None

    #: Monotonic count of attribute writes, used by the clone-stream
    #: cache to detect state changes between marshals.  Nested-container
    #: mutations bypass ``__setattr__``, so the runtime also bumps this
    #: after every served invocation (see :func:`bump_state_version`).
    _fargo_state_version: int = 0

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name != "_fargo_state_version":
            object.__setattr__(
                self, "_fargo_state_version", self._fargo_state_version + 1
            )

    # -- identity -------------------------------------------------------------

    @property
    def complet_id(self) -> CompletId:
        """Global identity of this complet instance."""
        if self._complet_id is None:
            raise CompletError(
                f"{type(self).__name__} instance is not installed at any Core; "
                "instantiate complets through their stub class"
            )
        return self._complet_id

    @property
    def is_installed(self) -> bool:
        return self._complet_id is not None

    @property
    def core(self) -> "Core":
        """The Core this complet's code is currently executing on.

        Only valid while complet code runs (inside a method invocation,
        a movement callback, or a continuation); raises otherwise.  The
        value is looked up dynamically, so it is never captured into the
        complet's closure.
        """
        core = current_core()
        if core is None:
            raise CompletError(
                "Anchor.core is only available while complet code executes on a Core"
            )
        return core

    # -- movement callbacks (§3.3) ---------------------------------------------

    def pre_departure(self, destination: str) -> None:
        """Called at the sending Core before this complet is marshaled."""

    def abort_departure(self, destination: str) -> None:
        """Called at the sending Core when a move fails after ``pre_departure``.

        The move never committed: this complet stays hosted where it is,
        every tracker is untouched, and ``post_departure`` will *not*
        run.  Override to undo whatever ``pre_departure`` prepared
        (flush buffers reopened, leases re-acquired, ...)."""

    def pre_arrival(self) -> None:
        """Called at the receiving Core right after unmarshaling this anchor,
        before the complet is wired into the Core's repository."""

    def post_arrival(self) -> None:
        """Called at the receiving Core once the complet is fully installed."""

    def post_departure(self) -> None:
        """Called at the sending Core right before the old copy is released."""

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        identity = str(self._complet_id) if self._complet_id else "uninstalled"
        return f"<{type(self).__name__} anchor {identity}>"


def bump_state_version(anchor: Anchor) -> None:
    """Mark ``anchor``'s state as changed (invalidates cached streams).

    Attribute writes bump the version automatically; the runtime calls
    this after every served invocation and movement callback to cover
    in-place mutations of nested containers, which ``__setattr__``
    cannot observe.
    """
    object.__setattr__(
        anchor, "_fargo_state_version", anchor._fargo_state_version + 1
    )


def anchor_type_name(anchor_cls: type) -> str:
    """User-facing complet type name: the anchor class minus the underscore."""
    name = anchor_cls.__name__
    return name[:-1] if name.endswith("_") else name


def qualified_class_ref(cls: type) -> str:
    """Stable ``module:qualname`` reference used in wire tokens."""
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve_class_ref(ref: str) -> type:
    """Inverse of :func:`qualified_class_ref` (used by stamp resolution)."""
    import importlib

    module_name, _, qualname = ref.partition(":")
    obj: object = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not isinstance(obj, type):
        raise CompletError(f"class reference {ref!r} does not resolve to a class")
    return obj
