"""Class introspection helpers used by the stub compiler."""

from __future__ import annotations

import inspect
from collections.abc import Iterator


def public_methods(cls: type, *, stop_at: type | None = None) -> Iterator[tuple[str, object]]:
    """Yield ``(name, function)`` for the public methods of ``cls``.

    A method is public when its name does not start with an underscore.
    Methods inherited from ``stop_at`` (and above) are excluded, so the
    stub compiler can mirror the anchor's own interface without also
    mirroring the :class:`~repro.complet.anchor.Anchor` machinery or
    ``object`` itself.  Names are yielded in method-resolution order with
    duplicates suppressed (an override is yielded once, from the most
    derived class).
    """
    seen: set[str] = set()
    for klass in cls.__mro__:
        if klass is object or (stop_at is not None and issubclass(stop_at, klass)):
            continue
        for name, member in vars(klass).items():
            if name.startswith("_") or name in seen:
                continue
            if inspect.isfunction(member):
                seen.add(name)
                yield name, member
