"""Complet closure computation.

The closure of a complet is the directed graph of objects reachable from
its anchor, *stopping at stubs* (references to other complets).  The
scanner here discovers that graph the same way the movement protocol
will later serialize it — by driving a pickler with a diverting hook —
so what the scanner reports is exactly what would move.

The scanner also enforces the complet boundary: reaching another
complet's anchor directly (not through a stub) means two complets share
state and would be silently torn apart by a move, so it raises
:class:`~repro.errors.CompletBoundaryError` instead.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field

from repro.complet.anchor import Anchor
from repro.complet.stub import Stub
from repro.errors import CompletBoundaryError, SerializationError
from repro.net.serializer import BULK_BYTES


@dataclass(slots=True)
class ClosureInfo:
    """Result of scanning one complet's closure."""

    #: The anchor the scan started from.
    anchor: Anchor
    #: Serialized size of the closure in bytes (outgoing refs excluded).
    size_bytes: int = 0
    #: Approximate number of distinct objects in the closure.
    object_count: int = 0
    #: Outgoing complet references found at the boundary, in discovery
    #: order, de-duplicated by stub identity.
    outgoing: list[Stub] = field(default_factory=list)


class _ClosureScanner(pickle.Pickler):
    """Pickler that records boundary crossings instead of serializing them."""

    def __init__(self, buffer: io.BytesIO, root: Anchor) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._root = root
        self.outgoing: list[Stub] = []
        self._seen_stub_ids: set[int] = set()
        #: Bulk buffers met, by id: counted, not copied into the scan.
        self.bulk: dict[int, bytes] = {}

    def persistent_id(self, obj: object) -> object | None:
        if obj is self._root:
            return None
        if type(obj) is bytes and len(obj) >= BULK_BYTES:
            self.bulk[id(obj)] = obj
            return "closure-bulk"
        if isinstance(obj, Stub):
            if id(obj) not in self._seen_stub_ids:
                self._seen_stub_ids.add(id(obj))
                self.outgoing.append(obj)
            return ("closure-stub", len(self._seen_stub_ids))
        if isinstance(obj, Anchor):
            raise CompletBoundaryError(
                f"closure of {self._root!r} reaches the anchor of another complet "
                f"({obj!r}) without going through a stub; inter-complet references "
                "must be complet references"
            )
        return None


def compute_closure(anchor: Anchor) -> ClosureInfo:
    """Scan ``anchor``'s complet closure and return what was found.

    Raises :class:`CompletBoundaryError` for boundary violations and
    :class:`SerializationError` when the closure holds an object the
    wire format cannot carry (open files, sockets, threads, ...).
    """
    buffer = io.BytesIO()
    scanner = _ClosureScanner(buffer, anchor)
    try:
        scanner.dump(anchor)
    except CompletBoundaryError:
        raise
    except Exception as exc:  # noqa: BLE001 - pickle raises many types
        raise SerializationError(
            f"closure of {anchor!r} cannot be marshaled: {exc}"
        ) from exc
    info = ClosureInfo(anchor=anchor)
    info.size_bytes = buffer.tell() + sum(map(len, scanner.bulk.values()))
    # The pickle memo holds every memoized object the traversal visited;
    # it slightly undercounts (small immutables are not memoized) but is
    # a stable, cheap proxy for closure population.
    info.object_count = len(scanner.memo.copy())
    info.outgoing = scanner.outgoing
    return info
