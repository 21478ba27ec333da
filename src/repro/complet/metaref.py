"""Meta references: reflection on complet references (§3.2).

Every complet reference owns a meta reference object that reifies the
reference without disturbing its use: the program keeps invoking the
stub with plain method-call syntax, while the meta reference exposes —
and lets the program *change* — the reference's relocation semantics,
and reports where the target currently is and how the reference has been
used.  Obtained through ``Core.get_meta_ref(stub)``, mirroring the
paper's ``Core.getMetaRef``.
"""

from __future__ import annotations

from repro.complet.relocators import Link, Relocator
from repro.errors import ConfigurationError
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.complet.stub import Stub


class MetaRef:
    """Reified view of one complet reference (one stub)."""

    def __init__(self, stub: "Stub", relocator: Relocator | None = None) -> None:
        self._stub = stub
        self._relocator: Relocator = relocator if relocator is not None else Link()
        #: Method invocations issued through this reference.
        self.invocation_count = 0
        #: Serialized argument + result bytes that crossed this reference.
        self.bytes_transferred = 0

    # -- relocation semantics ---------------------------------------------------

    def get_relocator(self) -> Relocator:
        """The object reifying this reference's relocation type."""
        return self._relocator

    def set_relocator(self, relocator: Relocator) -> None:
        """Change the reference's relocation type at runtime.

        Fires a ``referenceRetyped`` event on the hosting Core so
        monitors (and the graphical viewer) observe the change.
        """
        if not isinstance(relocator, Relocator):
            raise ConfigurationError(
                f"expected a Relocator, got {type(relocator).__name__}"
            )
        old, self._relocator = self._relocator, relocator
        core = self._stub._fargo_core
        if core is not None:
            if core.sanitizer is not None:
                core.sanitizer.record(
                    "retype",
                    f"ref:{self.get_target_id()}",
                    core=core,
                    detail=relocator.type_name,
                )
            core.events.publish(
                "referenceRetyped",
                target=str(self.get_target_id()),
                old_type=old.type_name,
                new_type=relocator.type_name,
            )

    @property
    def type_name(self) -> str:
        return self._relocator.type_name

    # -- target reflection --------------------------------------------------------

    def get_target_id(self) -> CompletId:
        """Global identity of the referenced complet."""
        return self._stub._fargo_tracker.target_id

    def get_target_type(self) -> str:
        """``module:qualname`` of the target's anchor class."""
        return self._stub._fargo_tracker.anchor_ref

    def get_target_location(self) -> str:
        """Name of the Core currently hosting the target.

        Resolving may walk the tracker chain over the network; as a side
        effect the local tracker is shortened to point at the answer.
        """
        core = self._stub._fargo_core
        if core is None:
            raise ConfigurationError("stub is not wired to a Core")
        return core.references.locate(self._stub._fargo_tracker)

    @property
    def is_local(self) -> bool:
        """True when the target complet is on the same Core as this reference."""
        return self._stub._fargo_tracker.is_local

    # -- accounting (fed by the invocation unit) -----------------------------------

    def record_invocation(self, nbytes: int) -> None:
        self.invocation_count += 1
        self.bytes_transferred += nbytes

    def __repr__(self) -> str:
        return (
            f"<MetaRef {self.type_name} -> {self.get_target_id()} "
            f"({self.invocation_count} invocations)>"
        )
