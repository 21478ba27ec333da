"""Content-keyed object stores: the shared substrate below payload proxies.

Cross-Core traffic historically shipped every payload — marshaled
movement groups, clone streams, bulky invocation arguments — through the
transport in full.  An :class:`ObjectStore` decouples *placement* from
*transfer*: the sender ``put``s the bytes once and ships a tiny
:class:`~repro.store.proxy.StoreProxy` naming the entry; readers ``get``
the bytes out of band and ``evict`` their reference when done.

Entries are **content-keyed**: the :class:`StoreKey` is a BLAKE2b-256
digest of the bytes plus their length, so putting the same payload twice
lands on one entry (with its reference count tracking how many shipped
proxies are still outstanding).  Content keying is also what gives
``duplicate`` / ``stamp`` relocation semantics their copy-on-first-read
behaviour — an *unchanged* complet marshals to the same bytes, hence the
same key, so a destination that already resolved the entry hits its
local cache; any mutation bumps the anchor's state version, invalidates
the clone-stream cache, and the fresh marshal lands under a *new* key
(version-stamped invalidation without any coordination).

Two backends ship:

- :class:`InMemoryStore` — one shared dict, for the in-process backends
  (the simulated network, the loopback TCP hub of one process).
- :class:`FileStore` — a directory of blob files (and sidecar counts above
  one), readable across OS processes (the multi-process launcher's shape).
"""

from __future__ import annotations

import os
import threading
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import StoreError, StoreMissError

#: Locator tags carried by proxies (see :meth:`ObjectStore.locator`).
MEMORY_BACKEND = "memory"
FILE_BACKEND = "file"


@dataclass(frozen=True, slots=True)
class StoreKey:
    """Content address of one store entry: payload digest plus length.

    The digest is BLAKE2b-256 from CPython's builtin ``_blake2``, never
    ``hashlib``, whose OpenSSL probe maps libcrypto (~3.5 MiB resident).
    """

    digest: str
    size: int

    @classmethod
    def for_data(cls, data: bytes) -> "StoreKey":
        # Imported at first use: a Core with neither a store nor a
        # checkpoint directory never hashes anything.
        from _blake2 import blake2b

        return cls(blake2b(data, digest_size=32).hexdigest(), len(data))

    def short(self) -> str:
        return self.digest[:10]


@dataclass(slots=True)
class StoreEntryInfo:
    """Administrative view of one entry (shell ``store`` command)."""

    key: StoreKey
    refcount: int
    hits: int

    def to_dict(self) -> dict:
        return {
            "digest": self.key.digest,
            "size": self.key.size,
            "refcount": self.refcount,
            "hits": self.hits,
        }


class StoreStats:
    """Cumulative counters for one store instance."""

    __slots__ = ("puts", "dedup_puts", "gets", "misses", "evictions",
                 "bytes_put", "bytes_served", "bytes_hashed")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.puts = 0
        self.dedup_puts = 0
        self.gets = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_put = 0
        self.bytes_served = 0
        self.bytes_hashed = 0  # by ``put``; none when the key came with the data

    def snapshot(self) -> dict[str, int]:
        return {
            "puts": self.puts,
            "dedup_puts": self.dedup_puts,
            "gets": self.gets,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes_put": self.bytes_put,
            "bytes_served": self.bytes_served,
            "bytes_hashed": self.bytes_hashed,
        }


class ObjectStore(ABC):
    """Shared payload store with ``put`` / ``get`` / ``evict``.

    ``put`` is idempotent per content (a repeat put increments the
    entry's reference count instead of storing a second copy); ``evict``
    decrements and removes the entry when the count reaches zero, so a
    balanced put-per-proxy / evict-per-read protocol leaves nothing
    behind.  ``get`` never consumes.
    """

    stats: StoreStats
    _lock: threading.Lock  # guards ``stats`` and the backend's own tables

    @abstractmethod
    def put(self, data: bytes, key: StoreKey | None = None) -> StoreKey:
        """Store ``data`` (or bump its refcount) and return its key; ``key`` is
        that key, when :meth:`StoreClient.offload` knows it of this very object."""

    def _key_for(self, data: bytes, key: StoreKey | None) -> StoreKey:
        if key is None:
            key = StoreKey.for_data(data)  # outside the lock: BLAKE2b lets other threads run
            with self._lock:
                self.stats.bytes_hashed += key.size
        return key

    @abstractmethod
    def get(self, key: StoreKey) -> bytes:
        """The entry's bytes; raises :class:`StoreMissError` when absent."""

    @abstractmethod
    def evict(self, key: StoreKey) -> bool:
        """Drop one reference; True when the entry was fully removed."""

    @abstractmethod
    def contains(self, key: StoreKey) -> bool:
        """Whether the entry is currently resolvable here."""

    @abstractmethod
    def entries(self) -> list[StoreEntryInfo]:
        """Administrative listing of live entries, insertion-ordered."""

    @abstractmethod
    def locator(self) -> tuple:
        """Backend descriptor a proxy carries to self-resolve remotely."""

    def __len__(self) -> int:
        return len(self.entries())

    def snapshot(self) -> dict:
        """Stats plus the entry listing, for admin surfaces."""
        return {
            "backend": self.locator()[0],
            "entries": [info.to_dict() for info in self.entries()],
            "stats": self.stats.snapshot(),
        }

    def close(self) -> None:
        """Release backend resources."""


# -- in-memory backend ---------------------------------------------------------

#: Live in-memory stores by id, so proxies resolve within the process
#: even at a Core whose own client is bound to a different store.
_MEMORY_STORES: "weakref.WeakValueDictionary[str, InMemoryStore]" = (
    weakref.WeakValueDictionary()
)
_MEMORY_IDS_LOCK = threading.Lock()


class InMemoryStore(ObjectStore):
    """One shared dict of entries: the in-process backend.

    Every Core of a simulated (or loopback-TCP) cluster shares the same
    instance, so a ``get`` at the destination is a local dict read — the
    transport only ever carries the proxy.  Its id is the lowest number no
    open store holds: the id travels in every proxy, so a process that
    opens and closes stores in turn sends the same bytes each time.
    """

    def __init__(self) -> None:
        self.stats = StoreStats()
        #: digest -> [data, refcount, hits]
        self._entries: dict[str, list] = {}
        self._lock = threading.Lock()
        with _MEMORY_IDS_LOCK:
            number = 1
            while f"mem-{number}" in _MEMORY_STORES:
                number += 1
            self.store_id = f"mem-{number}"
            _MEMORY_STORES[self.store_id] = self

    def put(self, data: bytes, key: StoreKey | None = None) -> StoreKey:
        key = self._key_for(data, key)
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                self._entries[key.digest] = [data, 1, 0]
                self.stats.puts += 1
                self.stats.bytes_put += key.size
            else:
                entry[1] += 1
                self.stats.dedup_puts += 1
        return key

    def get(self, key: StoreKey) -> bytes:
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                self.stats.misses += 1
                raise StoreMissError(
                    f"store entry {key.short()} ({key.size}B) is not present"
                )
            entry[2] += 1
            self.stats.gets += 1
            self.stats.bytes_served += key.size
            return entry[0]

    def evict(self, key: StoreKey) -> bool:
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                return False
            entry[1] -= 1
            if entry[1] > 0:
                return False
            del self._entries[key.digest]
            self.stats.evictions += 1
            return True

    def contains(self, key: StoreKey) -> bool:
        return key.digest in self._entries

    def entries(self) -> list[StoreEntryInfo]:
        with self._lock:
            return [
                StoreEntryInfo(StoreKey(digest, len(data)), refcount, hits)
                for digest, (data, refcount, hits) in self._entries.items()
            ]

    def locator(self) -> tuple:
        return (MEMORY_BACKEND, self.store_id)

    def close(self) -> None:
        """Give the id back: its proxies stop resolving, a new store may take it."""
        with _MEMORY_IDS_LOCK:
            if _MEMORY_STORES.get(self.store_id) is self:
                del _MEMORY_STORES[self.store_id]

    def __repr__(self) -> str:
        return f"<InMemoryStore {self.store_id} ({len(self._entries)} entries)>"


# -- file-backed backend -------------------------------------------------------


class FileStore(ObjectStore):
    """A directory of content-addressed blobs, shared across processes.

    An entry is one ``<digest>.blob`` file, so any process pointed at the
    same directory (``CoreProcesses(store_dir=...)``) resolves proxies
    written by any other.  A blob is written under a ``*.tmp.*`` name and
    published with :func:`os.replace`: under its digest it is whole or
    absent, whichever writer was killed when.  ``get`` still serves it
    only at its key's length; a put that finds another length replaces it.

    A ``<digest>.ref`` sidecar holds the reference count only while that
    is above one: no sidecar means one reference, so a transient
    put/evict pair is one create, one rename and one unlink.  A count
    that changes above two is overwritten in place, space-padded.  Counts are
    read-modify-write without inter-process locking: the protocol's
    put-then-evict pairs are serialized per entry by the protocol itself.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._prefix = os.path.join(self.root, "")
        self.stats = StoreStats()
        self._lock = threading.Lock()
        #: digest -> hits (local accounting only; blobs are shared).
        self._hits: dict[str, int] = {}

    @staticmethod
    def _write(path: str, data: bytes, truncate: int = os.O_TRUNC) -> None:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | truncate, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)

    @staticmethod
    def _read(path: str, size: int | None = None) -> bytes | None:
        """The file's bytes; ``None`` when it is absent or, given ``size``, not that long."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None
        try:
            held = os.fstat(fd).st_size
            if size is not None and held != size:
                return None
            data = os.read(fd, held)
            while len(data) < held and (more := os.read(fd, held - len(data))):
                data += more
            return data if len(data) == held else None
        finally:
            os.close(fd)

    def _set_refs(self, ref: str, count: int) -> None:
        """Overwrite the count in sidecar ``ref`` in place, padded (``int`` strips it):
        truncating a non-empty file has ext4 flush it on close, 190 us against 3."""
        self._write(ref, b"%-20d" % count, truncate=0)

    def _refs(self, ref: str) -> int | None:
        """The count in sidecar ``ref``; ``None`` without one, which means one."""
        text = self._read(ref)
        try:
            return int(text) if text is not None else None
        except ValueError:
            return 1

    def put(self, data: bytes, key: StoreKey | None = None) -> StoreKey:
        key = self._key_for(data, key)
        stem = self._prefix + key.digest
        blob = stem + ".blob"
        with self._lock:
            try:
                held = os.stat(blob).st_size
            except OSError:
                held = None
            if held == key.size:
                ref = stem + ".ref"
                refs = self._refs(ref)
                if refs is None:
                    self._write(ref, b"2")
                else:
                    self._set_refs(ref, refs + 1)
                self.stats.dedup_puts += 1
            else:
                tmp = f"{blob}.tmp.{os.getpid()}.{threading.get_ident()}"
                self._write(tmp, data)
                os.replace(tmp, blob)
                if held is not None:  # took a torn blob's place, and its count's
                    _unlink(stem + ".ref")
                self.stats.puts += 1
                self.stats.bytes_put += key.size
        return key

    def get(self, key: StoreKey) -> bytes:
        with self._lock:
            data = self._read(f"{self._prefix}{key.digest}.blob", key.size)
            if data is None:
                self.stats.misses += 1
                raise StoreMissError(
                    f"store entry {key.short()} is not present at {key.size}B under {self.root}"
                )
            self._hits[key.digest] = self._hits.get(key.digest, 0) + 1
            self.stats.gets += 1
            self.stats.bytes_served += key.size
            return data

    def evict(self, key: StoreKey) -> bool:
        stem = self._prefix + key.digest
        ref = stem + ".ref"
        with self._lock:
            refs = self._refs(ref)
            if refs is not None and refs > 1:
                if refs > 2:
                    self._set_refs(ref, refs - 1)
                else:
                    _unlink(ref)
                return False
            if not _unlink(stem + ".blob"):
                return False
            if refs is not None:  # an explicit count of one, as older directories hold
                _unlink(ref)
            self._hits.pop(key.digest, None)
            self.stats.evictions += 1
            return True

    def contains(self, key: StoreKey) -> bool:
        return os.path.exists(f"{self._prefix}{key.digest}.blob")

    def entries(self) -> list[StoreEntryInfo]:
        with self._lock:
            infos = []
            for name in sorted(os.listdir(self.root)):
                digest, extension = os.path.splitext(name)
                if extension != ".blob":
                    continue  # sidecars, and temporaries a killed writer left
                try:
                    size = os.stat(self._prefix + name).st_size
                except OSError:
                    continue  # evicted by another process since the listing
                infos.append(
                    StoreEntryInfo(
                        StoreKey(digest, size),
                        self._refs(f"{self._prefix}{digest}.ref") or 1,
                        self._hits.get(digest, 0),
                    )
                )
            return infos

    def locator(self) -> tuple:
        return (FILE_BACKEND, self.root)

    def close(self) -> None:
        """Forget the handle; the directory (shared) is left in place."""

    def __repr__(self) -> str:
        return f"<FileStore {self.root}>"


def _unlink(path: str) -> bool:
    """Remove ``path``; False when it was not there."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


# -- locator resolution --------------------------------------------------------

#: FileStores opened to resolve foreign locators, one per directory.
_FILE_STORES: dict[str, FileStore] = {}


def store_for_locator(locator: tuple) -> ObjectStore:
    """The store a proxy's locator names, opened/bound in this process."""
    backend = locator[0]
    if backend == MEMORY_BACKEND:
        store = _MEMORY_STORES.get(locator[1])
        if store is None:
            raise StoreMissError(
                f"in-memory store {locator[1]!r} is gone from this process"
            )
        return store
    if backend == FILE_BACKEND:
        path = str(locator[1])
        store = _FILE_STORES.get(path)
        if store is None:
            store = _FILE_STORES[path] = FileStore(path)
        return store
    raise StoreError(f"unknown store backend in locator {locator!r}")
