"""Identifiers for complets and trackers.

Complets are globally identified by the Core that created them plus a
sequence number per life of that Core; the identity is immutable and
travels with the complet as it migrates.  Trackers are identified per
hosting Core, numbered per life alike.  Using deterministic counters
(rather than UUIDs) keeps test output and traces reproducible.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from repro.errors import SerialsExhaustedError

#: Serials of one Core life: a respawned Core is a new life, and life ``n``
#: mints from ``n * LIFE_SPAN + 1``, never a number an earlier life handed
#: out.  4096 lives fill the unsigned 32-bit serial of an INVOKE header.
LIFE_SPAN = 1 << 20


class IdGenerator:
    """Thread-safe monotonically increasing integer id source, below ``stop``."""

    def __init__(self, start: int = 1, stop: int = 1 << 32) -> None:
        self._counter = itertools.count(start)
        self._stop = stop
        self._lock = threading.Lock()

    @classmethod
    def for_life(cls, life: int) -> IdGenerator:
        """The serials of a Core's ``life`` (0 for its first: 1, 2, ...)."""
        return cls(life * LIFE_SPAN + 1, min((life + 1) * LIFE_SPAN + 1, 1 << 32))

    def next(self) -> int:
        with self._lock:
            value = next(self._counter)
        if value >= self._stop:
            raise SerialsExhaustedError(f"serial {value} is past this range's end {self._stop}")
        return value


@dataclass(frozen=True, slots=True)
class CompletId:
    """Global, immutable identity of a complet instance.

    ``birth_core`` is the name of the Core on which the complet was
    instantiated; it never changes, even after the complet migrates.
    """

    birth_core: str
    serial: int
    type_name: str = ""

    def __str__(self) -> str:
        suffix = f":{self.type_name}" if self.type_name else ""
        return f"{self.birth_core}/c{self.serial}{suffix}"

    def short(self) -> str:
        """Compact display form used by the viewer and shell."""
        base = self.type_name or "complet"
        return f"{base}#{self.serial}@{self.birth_core}"


@dataclass(frozen=True, slots=True)
class TrackerId:
    """Identity of a tracker within the Core that hosts it."""

    core: str
    serial: int

    def __str__(self) -> str:
        return f"{self.core}/t{self.serial}"
