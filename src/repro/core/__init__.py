"""The Core runtime: FarGo's stationary per-node infrastructure (Figure 1).

One :class:`~repro.core.core.Core` runs per node.  It hosts complets in
its :class:`~repro.core.repository.Repository`, realizes complet
references through the :class:`~repro.core.references.ReferenceHandler`,
executes remote method calls in the
:class:`~repro.core.invocation.InvocationUnit`, migrates complets with
the :class:`~repro.core.movement.MovementUnit`, publishes runtime events
through the :class:`~repro.core.events.EventBus`, and maps logical names
in the :class:`~repro.core.naming.NamingService`.
"""

from repro.core.core import Core
from repro.core.carrier import Carrier
from repro.core.events import Event
from repro.core.locator import LocationRegistry, Locator
from repro.core.persistence import Snapshot, restore, snapshot

__all__ = [
    "Core",
    "Carrier",
    "Event",
    "LocationRegistry",
    "Locator",
    "Snapshot",
    "restore",
    "snapshot",
]
