"""Anchor classes used across the test suite.

Defined at module level (not inside test functions) so they are
importable — and therefore marshalable — at any Core.
"""

from __future__ import annotations

import zlib

from repro.complet.anchor import Anchor
from repro.complet.relocators import Link, Relocator
from repro.complet.stub import compile_complet


class Probe_(Anchor):
    """Records its movement-callback history."""

    def __init__(self) -> None:
        self.history: list[str] = []
        self.payload = {"k": [1, 2, 3]}

    def pre_departure(self, destination: str) -> None:
        self.history.append(f"pre_departure:{destination}")

    def abort_departure(self, destination: str) -> None:
        self.history.append(f"abort_departure:{destination}")

    def pre_arrival(self) -> None:
        self.history.append("pre_arrival")

    def post_arrival(self) -> None:
        self.history.append(f"post_arrival:{self.core.name}")

    def post_departure(self) -> None:
        self.history.append("post_departure")

    def get_history(self) -> list[str]:
        return self.history

    def note(self, entry: str) -> None:
        self.history.append(entry)


class Holder_(Anchor):
    """Holds one complet reference, exposes it for retyping."""

    def __init__(self, ref=None) -> None:
        self.ref = ref

    def call_ref(self, *args):
        return self.ref.echo(*args) if args else self.ref.ping()

    def get_ref(self):
        """Return the held reference (passes a complet ref as a result)."""
        return self.ref

    def set_ref(self, ref) -> None:
        self.ref = ref

    def has_ref(self) -> bool:
        return self.ref is not None


class Pair_(Anchor):
    """Holds two references (group-movement topology tests)."""

    def __init__(self, left=None, right=None) -> None:
        self.left = left
        self.right = right

    def touch(self) -> str:
        return "pair"


class SelfRef_(Anchor):
    """Keeps a complet reference to *itself* inside its own closure."""

    def __init__(self) -> None:
        self.me = None

    def adopt_self(self, me) -> None:
        self.me = me

    def through_self(self, value):
        return self.me.identity(value)

    def identity(self, value):
        return value


class Propertied_(Anchor):
    """Anchor with a public property, mirrored by the stub compiler."""

    def __init__(self, value: int = 41) -> None:
        self._value = value

    @property
    def answer(self) -> int:
        """The current answer."""
        return self._value + 1

    def bump(self) -> None:
        self._value += 1


class Failing_(Anchor):
    """Raises application exceptions (by-value exception propagation)."""

    def boom(self) -> None:
        raise ValueError("boom from complet")

    def custom(self) -> None:
        raise KeyError("missing-key")

    def refuse(self, *args) -> None:
        """Raises after its arguments arrived (whatever they were)."""
        raise ValueError(f"refused {len(args)} arguments")


class Chatty_(Anchor):
    """Calls a collaborator repeatedly (application profiling tests)."""

    def __init__(self, other) -> None:
        self.other = other

    def chat(self, rounds: int) -> int:
        total = 0
        for i in range(rounds):
            total += len(self.other.echo(f"m{i}"))
        return total


class Listener_(Anchor):
    """Complet event listener: records events delivered through its ref."""

    def __init__(self) -> None:
        self.seen: list[str] = []

    def on_event(self, event) -> None:
        self.seen.append(event.name)

    def events_seen(self) -> list[str]:
        return self.seen


class Spawner_(Anchor):
    """Instantiates other complets from inside complet code."""

    def spawn_echo(self, tag: str):
        from repro.cluster.workload import Echo

        return Echo(tag)

    def spawn_remote_echo(self, tag: str, at: str):
        from repro.cluster.workload import Echo

        return Echo(tag, _at=at)


class Roamer_(Anchor):
    """Moves itself with a continuation (Figure 3's programming style)."""

    def __init__(self) -> None:
        self.visited: list[str] = []

    def start(self) -> None:
        self.visited.append(self.core.name)

    def roam(self, dest: str) -> None:
        from repro.core.carrier import Carrier

        Carrier.move(self, dest, "start", ())

    def path(self) -> list[str]:
        return self.visited


class Leaf_(Anchor):
    """One pulled member of the realpath benchmark's group: a blob of state."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def where(self) -> tuple[str, int]:
        return self.core.name, zlib.crc32(self.blob)


class Root_(Anchor):
    """The moved complet of that group; tests retype its references to ``pull``."""

    def __init__(self, leaves: list) -> None:
        self.leaves = leaves

    def report(self) -> tuple[str, list[tuple[str, int]]]:
        return self.core.name, [leaf.where() for leaf in self.leaves]


class SizeBound_(Relocator):
    """User-defined relocator: pull small targets, link big ones.

    Demonstrates §3.3's extension mechanism: a new reference type built
    by combining the built-in behaviours under a size policy.
    """

    type_name = "sizebound"

    def __init__(self, max_bytes: int = 4_096) -> None:
        self.max_bytes = max_bytes

    def plan(self, stub, planner) -> None:
        from repro.complet.closure import compute_closure

        tracker = stub._fargo_tracker
        if tracker.is_local and tracker.local_anchor is not None:
            if compute_closure(tracker.local_anchor).size_bytes <= self.max_bytes:
                planner.pull(stub)

    def degraded_for_parameter(self) -> Relocator:
        return Link()


Probe = compile_complet(Probe_)
Holder = compile_complet(Holder_)
Pair = compile_complet(Pair_)
SelfRef = compile_complet(SelfRef_)
Propertied = compile_complet(Propertied_)
Failing = compile_complet(Failing_)
Chatty = compile_complet(Chatty_)
Listener = compile_complet(Listener_)
Spawner = compile_complet(Spawner_)
Roamer = compile_complet(Roamer_)
Leaf = compile_complet(Leaf_)
Root = compile_complet(Root_)
