"""The checkpoint store: complet snapshots that outlive their host Core.

A checkpoint is a :class:`~repro.core.persistence.Snapshot` — exactly
what would have moved — plus the Core that hosted the complet when it
was taken (recovery restores the complets whose last known host died)
and the pull-group it was captured with.

The marshaled closure (``Snapshot.stream``) goes into a content-keyed,
refcounted :mod:`repro.store` object store, so an unchanged complet
re-checkpoints to the *same* blob; the rest is a small per-complet
**generation manifest**.  ``CheckpointStore()`` holds both in memory: it
survives simulated Core crashes (the harness outlives them) but not the
process.  ``CheckpointStore(root)`` is durable and cross-process::

    root/blobs/                     FileStore (marshaled closures)
    root/<id-digest>/MANIFEST.json  one manifest per complet
    root/<id-digest>/LOCK           one writer of the slot at a time

Manifests are written through a temp file and :func:`os.replace`, so a
reader in another process — or the respawned successor of a SIGKILLed
writer — sees the previous manifest or the complete new one, never a
torn write; every read consults the disk, so a record is at once
visible to every handle on the directory.  A write reads the manifest
first, so writers of one slot take turns: each holds an exclusive
``flock`` on the slot's lock file (:meth:`CheckpointStore.locked`) from
its read to its rename, whatever handle or process it writes through.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import astuple, dataclass

from repro.core.persistence import Snapshot, check_version
from repro.errors import StoreMissError
from repro.store.store import FileStore, InMemoryStore, StoreKey
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path


@dataclass(frozen=True, slots=True)
class CheckpointRecord:
    """One checkpointed complet: its snapshot plus placement facts."""

    snapshot: Snapshot
    host: str
    #: Identities of the pull-group captured in the same pass (self included).
    group: tuple[CompletId, ...] = ()

    @property
    def complet_id(self) -> CompletId:
        return self.snapshot.original_id

    @property
    def taken_at(self) -> float:
        return self.snapshot.taken_at


def _slot(complet_id: CompletId) -> str:
    # The display form contains "/", so directories use a digest of it.
    return StoreKey.for_data(str(complet_id).encode()).digest[:16]


class CheckpointStore:
    """Generation manifests per complet identity over an object store."""

    MANIFEST = "MANIFEST.json"
    LOCK = "LOCK"
    #: Generations retained per complet; older ones give up their blob reference.
    keep_generations = 3

    def __init__(self, root: str | Path | None = None) -> None:
        self.root: Path | None = None
        if root is not None:
            # Imported here: pathlib brings urllib.parse, ipaddress and more,
            # about 0.6 MiB that a Core without a checkpoint directory never uses.
            import pathlib

            self.root = pathlib.Path(root)
        #: slot -> manifest: the whole manifest table when there is no directory.
        self._memory: dict[str, dict] = {}
        self._blobs = InMemoryStore() if self.root is None else FileStore(self.root / "blobs")
        #: The slots whose lock this thread holds, so that it nests.
        self._held = threading.local()

    # -- the manifest seam: nothing below it knows where manifests live -----

    def _read(self, slot: str) -> dict | None:
        """The manifest in ``slot``; ``None`` when absent, emptied or corrupt."""
        if self.root is None:
            manifest = self._memory.get(slot)
        else:
            try:
                manifest = json.loads((self.root / slot / self.MANIFEST).read_text())
            except (OSError, ValueError):
                return None  # a corrupt slot heals on the next put
        return manifest if isinstance(manifest, dict) and manifest.get("generations") else None

    def _write(self, slot: str, manifest: dict) -> None:
        if self.root is None:
            self._memory[slot] = manifest
            return
        directory = self.root / slot
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f"{self.MANIFEST}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        os.replace(tmp, directory / self.MANIFEST)

    @contextlib.contextmanager
    def locked(self, complet_id: CompletId):
        """Hold ``complet_id``'s slot while the block runs: no other writer,
        through any handle in any process, reads or writes its manifest
        until it ends.  Re-entrant in one thread; in memory the callers are
        the one process's, which serialize on their own."""
        slot = _slot(complet_id)
        held = vars(self._held)
        if self.root is None or slot in held:
            yield
            return
        import fcntl  # a directory's first write: no Core without one pays for it

        directory = self.root / slot
        directory.mkdir(parents=True, exist_ok=True)
        held[slot] = os.open(directory / self.LOCK, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(held[slot], fcntl.LOCK_EX)
            yield
        finally:
            os.close(held.pop(slot))  # closing the file releases its lock

    def _manifests(self) -> list[dict]:
        """Every live manifest, ordered by complet id."""
        slots = self._memory if self.root is None else [
            path.parent.name for path in self.root.glob(f"*/{self.MANIFEST}")
        ]
        found = [manifest for slot in slots if (manifest := self._read(slot)) is not None]
        return sorted(found, key=lambda manifest: manifest["display"])

    def _record(self, manifest: dict) -> CheckpointRecord | None:
        """The newest generation of ``manifest`` as a record."""
        last = manifest["generations"][-1]
        complet_id = CompletId(*manifest["complet_id"])
        # Refused from the manifest alone: the blob is never unpickled.
        check_version(last.get("version"), f"checkpoint of {complet_id}")
        try:
            stream = self._blobs.get(StoreKey(*last["blob"]))
        except StoreMissError:
            return None
        snap = Snapshot(complet_id, last["anchor_ref"], stream, last["taken_at"], last["version"])
        group = tuple(CompletId(*fields) for fields in last["group"])
        return CheckpointRecord(snap, last["host"], group)

    def put(self, record: CheckpointRecord) -> None:
        """Append a generation; an unchanged closure costs no new blob."""
        snap = record.snapshot
        slot = _slot(snap.original_id)
        with self.locked(snap.original_id):
            manifest = self._read(slot) or {
                "complet_id": astuple(snap.original_id),
                "display": str(snap.original_id),
                "generations": [],
            }
            generations = manifest["generations"]
            generations.append(
                {
                    "gen": generations[-1]["gen"] + 1 if generations else 1,
                    "blob": astuple(self._blobs.put(snap.stream)),
                    "anchor_ref": snap.anchor_ref,
                    "version": snap.version,
                    "taken_at": snap.taken_at,
                    "host": record.host,
                    "group": [astuple(member) for member in record.group],
                }
            )
            while len(generations) > self.keep_generations:
                self._blobs.evict(StoreKey(*generations.pop(0)["blob"]))
            self._write(slot, manifest)

    def get(self, complet_id: CompletId) -> CheckpointRecord | None:
        manifest = self._read(_slot(complet_id))
        return self._record(manifest) if manifest is not None else None

    def by_str(self, complet_id_str: str) -> CheckpointRecord | None:
        """Resolve a record from the display form of its complet id."""
        for complet_id in self.ids():
            if complet_id_str in (str(complet_id), complet_id.short()):
                return self.get(complet_id)
        return None

    def ids(self) -> list[CompletId]:
        return [CompletId(*manifest["complet_id"]) for manifest in self._manifests()]

    def hosted_at(self, core_name: str) -> list[CheckpointRecord]:
        """Records whose complet last checkpointed while hosted at ``core_name``."""
        records = [
            self._record(manifest)
            for manifest in self._manifests()
            if manifest["generations"][-1]["host"] == core_name
        ]
        return [record for record in records if record is not None]

    def generations(self, complet_id: CompletId) -> list[dict]:
        """Retained generation metadata, oldest first (admin surface)."""
        manifest = self._read(_slot(complet_id))
        return list(manifest["generations"]) if manifest is not None else []

    def discard(self, complet_id: CompletId) -> None:
        slot = _slot(complet_id)
        with self.locked(complet_id):
            manifest = self._read(slot)
            if manifest is None:
                return
            for generation in manifest["generations"]:
                self._blobs.evict(StoreKey(*generation["blob"]))
            self._write(slot, {**manifest, "generations": []})

    def __len__(self) -> int:
        return len(self._manifests())

    def __contains__(self, complet_id: CompletId) -> bool:
        return self._read(_slot(complet_id)) is not None

    def __repr__(self) -> str:
        return f"<CheckpointStore {self.root or 'memory'} ({len(self)} records)>"
