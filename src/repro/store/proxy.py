"""Lazy-resolving payload proxies and the per-Core store client.

A :class:`StoreProxy` is what actually crosses the transport in place of
an offloaded payload: a content key plus a backend locator, a few dozen
bytes regardless of the payload's size.  The marshal layer substitutes
proxies for streams above the client's ``offload_threshold`` and
resolves them back on the receiving side (see
:mod:`repro.complet.marshal`).

The :class:`StoreClient` is one Core's seat at the store: it applies the
threshold, keeps a small LRU cache of key <-> bytes so repeat readers of
an unchanged payload (the ``duplicate``/``stamp`` copy-on-first-read
case) pay store-hit latency at most once and a buffer sent on unchanged
is not hashed again, and feeds hit/miss/bytes-saved counters into the
Core's :class:`~repro.metrics.registry.MetricsRegistry` and its tracer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.store.store import ObjectStore, StoreKey, store_for_locator

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

#: Payloads at or above this many bytes are shipped as proxies.
DEFAULT_OFFLOAD_THRESHOLD = 64 * 1024

#: Entries kept in a client's resolve cache.
DEFAULT_RESOLVE_CACHE_CAPACITY = 32


@dataclass(frozen=True, slots=True)
class StoreProxy:
    """A payload travelling by reference: content key + backend locator.

    Proxies are plain picklable values; resolving one goes through the
    receiving Core's :class:`StoreClient` when it has one (cache,
    metrics), or directly through :meth:`fetch` otherwise.
    """

    key: StoreKey
    locator: tuple

    def fetch(self) -> bytes:
        """Resolve directly against the backend the locator names."""
        return store_for_locator(self.locator).get(self.key)

    def release(self) -> None:
        """Drop this proxy's store reference (after a successful read)."""
        store_for_locator(self.locator).evict(self.key)

    def __repr__(self) -> str:
        return f"<StoreProxy {self.key.short()} {self.key.size}B @{self.locator[0]}>"


class StoreClient:
    """One Core's interface to an :class:`ObjectStore`.

    ``offload`` turns large payload bytes into proxies on the sending
    side; ``resolve`` turns proxies back into bytes on the receiving
    side, consulting the LRU cache first.  With ``release=True`` (the
    movement/invocation protocol's mode) a resolve also drops the
    proxy's store reference, balancing the sender's put so transient
    payloads never accumulate.

    The cache holds what was resolved *and* what was offloaded (exact
    ``bytes`` only), and ``_ids`` maps ``id(buffer)`` to the key of every
    cached buffer, so ``offload`` of the very object this Core resolved or
    offloaded before passes ``put`` the known key instead of hashing
    again.  That is sound while ``cache[key] is buffer``: the cache's
    reference keeps the id from being reused, ``bytes`` cannot change,
    and an id entry goes when its cache entry goes.  An equal but
    distinct object is hashed like any new one and takes over the entry.
    """

    def __init__(
        self,
        store: ObjectStore,
        *,
        threshold: int = DEFAULT_OFFLOAD_THRESHOLD,
        cache_capacity: int = DEFAULT_RESOLVE_CACHE_CAPACITY,
        metrics: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.store = store
        self.threshold = threshold
        self.cache_capacity = cache_capacity
        self.tracer = tracer
        self._cache: OrderedDict[StoreKey, bytes] = OrderedDict()
        self._ids: dict[int, StoreKey] = {}
        self._lock = threading.Lock()  # for writes to both; never held across store I/O

        class _LocalCounter:
            """Standalone accumulator when no registry is attached."""

            __slots__ = ("value",)

            def __init__(self) -> None:
                self.value = 0.0

            def inc(self, amount: float = 1.0) -> None:
                self.value += amount

        if metrics is not None:
            counter = metrics.counter
        else:
            counter = lambda name: _LocalCounter()  # noqa: E731
        self._offloads = counter("store.offloads")
        self._bytes_saved = counter("store.bytes_saved")
        self._resolves = counter("store.resolves")
        self._cache_hits = counter("store.cache_hits")
        self._store_hits = counter("store.store_hits")
        self._misses = counter("store.misses")

    # -- sending side -------------------------------------------------------

    def offload(self, data: bytes, *, kind: str = "payload") -> "bytes | StoreProxy":
        """``data`` itself below the threshold, else a proxy for it."""
        if len(data) < self.threshold:
            return data
        # Unlocked reads: the cache holding this very object under ``key`` is
        # proof enough, whatever another thread does to either table next.
        key = self._ids.get(id(data))
        if key is not None and self._cache.get(key) is not data:
            key = None
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span(
                "store:offload", category="store", kind=kind, size=len(data)
            ):
                key = self.store.put(data, key)
        else:
            key = self.store.put(data, key)
        if type(data) is bytes:  # what can change, or is a view, is not cached
            self._remember(key, data)
        proxy = StoreProxy(key, self.store.locator())
        self._offloads.inc()
        # What the transport will not carry: the payload minus the proxy's
        # (approximately constant, ~100B pickled) wire footprint.
        self._bytes_saved.inc(max(0, len(data) - 128))
        return proxy

    # -- receiving side -----------------------------------------------------

    def resolve(self, obj: "bytes | StoreProxy", *, release: bool = False) -> bytes:
        """Payload bytes for ``obj`` (a pass-through for inline bytes)."""
        if not isinstance(obj, StoreProxy):
            return obj
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span(
                "store:resolve", category="store",
                key=obj.key.short(), size=obj.key.size,
            ):
                return self._resolve_proxy(obj, release)
        return self._resolve_proxy(obj, release)

    def _resolve_proxy(self, proxy: StoreProxy, release: bool) -> bytes:
        self._resolves.inc()
        key = proxy.key
        data = self._cache.get(key)
        if data is not None:
            self._remember(key, data)
            self._cache_hits.inc()
        else:
            try:
                if self.store.contains(key):
                    data = self.store.get(key)
                else:
                    data = proxy.fetch()
            except Exception:
                self._misses.inc()
                raise
            self._store_hits.inc()
            self._remember(key, data)
        if release:
            self.release(proxy)
        return data

    def _remember(self, key: StoreKey, data: bytes) -> None:
        """Make ``data`` the newest cache entry, and the object ``key`` is known by."""
        cache, ids = self._cache, self._ids
        with self._lock:
            held = cache.get(key)
            if held is not data:
                if held is not None:
                    del ids[id(held)]
                cache[key] = data
                ids[id(data)] = key
            cache.move_to_end(key)
            while len(cache) > self.cache_capacity:
                del ids[id(cache.popitem(last=False)[1])]

    def release(self, proxy: StoreProxy) -> None:
        """Drop ``proxy``'s store reference (read accounting is settled)."""
        if self.store.contains(proxy.key):
            self.store.evict(proxy.key)
        else:
            try:
                proxy.release()
            except Exception:  # noqa: BLE001 - release is best-effort
                pass

    def clear_cache(self) -> None:
        """Let go of every cached buffer at once."""
        with self._lock:
            self._cache.clear()
            self._ids.clear()

    # -- introspection ------------------------------------------------------

    def cache_len(self) -> int:
        return len(self._cache)

    def stats_snapshot(self) -> dict:
        """Client-side counters, for admin surfaces and benches."""
        return {
            "threshold": self.threshold,
            "offloads": int(self._offloads.value),
            "bytes_saved": int(self._bytes_saved.value),
            "resolves": int(self._resolves.value),
            "cache_hits": int(self._cache_hits.value),
            "store_hits": int(self._store_hits.value),
            "misses": int(self._misses.value),
            "cache_entries": len(self._cache),
        }
