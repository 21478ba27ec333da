"""Wire tokens: the serialized form of complet references.

When a complet reference (a stub) is reached during marshaling — either
while moving a complet or while passing parameters — the reference
itself is diverted out of the pickle stream and replaced by one of these
tokens.  The receiving Core's reference handler materializes each token
back into a stub wired to a Core-local tracker.  Which token a reference
produces is decided by its :class:`~repro.complet.relocators.Relocator`,
exactly the paper's pluggable per-type (un)marshaling routines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.complet.tracker import TrackerAddress
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.complet.relocators import Relocator


@dataclass(frozen=True, slots=True)
class RefToken:
    """A reference to a complet that stays where it is.

    ``last_known`` is the address of a tracker that can (transitively)
    reach the target; the receiving Core wires its own tracker to it.
    """

    target_id: CompletId
    anchor_ref: str
    last_known: TrackerAddress
    relocator: "Relocator"


@dataclass(frozen=True, slots=True)
class InGroupToken:
    """A reference to a complet travelling in the same movement stream.

    The receiving Core wires the stub to the (new, local) tracker of the
    group member instead of going back over the network.
    """

    target_id: CompletId
    anchor_ref: str
    relocator: "Relocator"


@dataclass(frozen=True, slots=True)
class CloneToken:
    """A reference to a *copy* of the target carried in the stream.

    Produced by ``duplicate`` references: ``clone_id`` is the fresh
    identity assigned to the copy, whose closure travels as a group
    member of the same stream.
    """

    clone_id: CompletId
    anchor_ref: str
    relocator: "Relocator"


@dataclass(frozen=True, slots=True)
class StampToken:
    """A by-type reconnection request.

    The receiving Core looks up a local complet whose anchor is an
    instance of ``anchor_ref`` and wires the stub to it.  ``fallback``
    optionally carries a plain reference to the original target, used
    when the relocator was configured to degrade instead of fail.
    """

    anchor_ref: str
    relocator: "Relocator"
    fallback: RefToken | None = None
