"""Relocators: reified relocation semantics of complet references.

Each complet reference carries a Relocator object (reachable through the
reference's meta reference) that decides how the reference behaves when
its *source* complet moves:

- :class:`Link` — the default: keep tracking the target wherever it is.
- :class:`Pull` — the target moves along with the source.
- :class:`Duplicate` — a *copy* of the target moves along; the original
  stays put.
- :class:`Stamp` — reconnect at the destination to a local complet of an
  equivalent type (the paper's printer example).

New reference types are added by subclassing :class:`Relocator`
(possibly one of the built-ins) and overriding the two protocol hooks;
the movement protocol consults the hooks for every outgoing reference it
meets while traversing the moving complet's closure, which is exactly
the extension mechanism of §3.3.

Relocators must be picklable: they travel inside wire tokens so the
reference keeps its semantics after materialization at the destination.

Failure semantics: relocator hooks run during the *planning and
marshaling* phases of a move, before anything leaves the sending Core.
An exception raised from a hook — or a send failure afterwards — aborts
the move before commit: every planned mover (pulls and the root alike)
stays hosted where it was, duplicates registered during planning are
discarded unmaterialized, and the movement unit runs the anchors'
``abort_departure`` callbacks.  Hooks therefore never need their own
compensation logic for the in-group complets.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - annotations alone use these
    from typing import Protocol

    from repro.complet.stub import Stub

    class GroupPlanner(Protocol):
        """What a relocator may ask of the movement planner (phase one).

        Implemented by :class:`repro.complet.marshal.MovementPlan`.
        """

        def pull(self, stub: "Stub") -> None:
            """Request that the stub's target complet move in the same stream."""

        def duplicate(self, stub: "Stub") -> None:
            """Request that a copy of the stub's target travel in the stream."""

    class TokenContext(Protocol):
        """What a relocator may ask of the marshaler (phase two).

        Implemented by :class:`repro.complet.marshal.MovementMarshaler`.
        """

        def reference_token(self, stub: "Stub", relocator: "Relocator") -> object:
            """Token for a target that stays put (or travels, if in-group)."""

        def clone_token(self, stub: "Stub", relocator: "Relocator") -> object:
            """Token for the copy registered for this stub during planning."""

        def stamp_token(self, stub: "Stub", relocator: "Relocator") -> object:
            """Token requesting by-type reconnection at the destination."""


class Relocator:
    """Base class of all reference relocation semantics.

    The default behaviour is exactly :class:`Link`: subclasses override
    :meth:`plan` to influence which complets join the movement group and
    :meth:`make_token` to choose the wire token for the reference.
    """

    #: Display name used by the meta reference, the viewer and scripts.
    type_name = "relocator"

    def plan(self, stub: "Stub", planner: GroupPlanner) -> None:
        """Phase one: extend the movement group for this outgoing reference."""

    def make_token(self, stub: "Stub", ctx: TokenContext) -> object:
        """Phase two: produce the wire token replacing this reference."""
        return ctx.reference_token(stub, self)

    def degraded_for_parameter(self) -> "Relocator":
        """Relocator assigned when this reference is passed as a parameter.

        §3.1: a complet reference passed to another complet is conceptually
        part of the *receiving* complet from then on, so its type is
        degraded to the default ``link``.
        """
        return Link()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Link(Relocator):
    """Default semantics: a movement-tracking remote reference."""

    type_name = "link"


class Pull(Relocator):
    """The target complet moves along whenever the source complet moves."""

    type_name = "pull"

    def plan(self, stub: "Stub", planner: GroupPlanner) -> None:
        planner.pull(stub)


class Duplicate(Relocator):
    """A copy of the target complet moves along; the original stays."""

    type_name = "duplicate"

    def plan(self, stub: "Stub", planner: GroupPlanner) -> None:
        planner.duplicate(stub)

    def make_token(self, stub: "Stub", ctx: TokenContext) -> object:
        return ctx.clone_token(stub, self)


class Stamp(Relocator):
    """Reconnect by type at the destination (e.g. the local printer).

    ``fallback`` controls what happens when the destination hosts no
    complet of the stamped type: ``"error"`` (the default) raises
    :class:`~repro.errors.StampResolutionError` and aborts the move;
    ``"link"`` keeps a plain link to the original target instead — an
    extension beyond the paper, useful for devices that exist only at
    some sites.
    """

    type_name = "stamp"

    _FALLBACKS = ("error", "link")

    def __init__(self, fallback: str = "error") -> None:
        if fallback not in self._FALLBACKS:
            raise ConfigurationError(
                f"stamp fallback must be one of {self._FALLBACKS}, got {fallback!r}"
            )
        self.fallback = fallback

    def make_token(self, stub: "Stub", ctx: TokenContext) -> object:
        return ctx.stamp_token(stub, self)

    def __repr__(self) -> str:
        return f"Stamp(fallback={self.fallback!r})"


#: Registry used by the scripting language and the shell to retype
#: references by name (``retype $ref to pull``).
BUILTIN_RELOCATORS: dict[str, type[Relocator]] = {
    cls.type_name: cls for cls in (Link, Pull, Duplicate, Stamp)
}


def relocator_from_name(name: str) -> Relocator:
    """Instantiate a built-in relocator from its script-facing name."""
    try:
        return BUILTIN_RELOCATORS[name.lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown reference type {name!r}; expected one of "
            f"{sorted(BUILTIN_RELOCATORS)}"
        ) from None
