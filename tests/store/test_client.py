"""The per-Core StoreClient: threshold, resolve cache, release balance."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import StoreMissError
from repro.metrics.registry import MetricsRegistry
from repro.store import InMemoryStore, StoreClient, StoreKey, StoreProxy


@pytest.fixture
def backend():
    return InMemoryStore()


@pytest.fixture
def client(backend):
    return StoreClient(backend, threshold=1_024, cache_capacity=2)


@pytest.fixture
def receiver(backend):
    """A second Core's client on the same store: it has cached nothing yet."""
    return StoreClient(backend, threshold=1_024, cache_capacity=2)


class TestOffload:
    def test_below_threshold_passes_bytes_through(self, client, backend):
        data = b"small"
        assert client.offload(data) is data
        assert backend.stats.puts == 0

    def test_at_threshold_returns_proxy(self, client, backend):
        data = b"p" * 1_024
        proxy = client.offload(data)
        assert isinstance(proxy, StoreProxy)
        assert proxy.key.size == len(data)
        assert proxy.locator == backend.locator()
        assert backend.stats.puts == 1

    def test_offload_counts_bytes_saved(self, backend):
        metrics = MetricsRegistry()
        client = StoreClient(backend, threshold=1_024, metrics=metrics)
        client.offload(b"x" * 10_000)
        assert metrics.counter_value("store.offloads") == 1
        # Saved bytes discount the proxy's own wire footprint.
        assert 0 < metrics.counter_value("store.bytes_saved") <= 10_000


class TestResolve:
    def test_inline_bytes_pass_through(self, client):
        assert client.resolve(b"inline") == b"inline"

    def test_proxy_resolves_to_original_bytes(self, client, receiver):
        data = b"r" * 5_000
        proxy = client.offload(data)
        assert receiver.resolve(proxy) == data
        snap = receiver.stats_snapshot()
        assert snap["store_hits"] == 1
        assert snap["cache_hits"] == 0

    def test_repeat_resolve_hits_cache(self, client, receiver):
        proxy = client.offload(b"c" * 5_000)
        receiver.resolve(proxy)
        receiver.resolve(proxy)
        snap = receiver.stats_snapshot()
        assert snap["store_hits"] == 1
        assert snap["cache_hits"] == 1

    def test_release_evicts_store_entry(self, client, backend):
        proxy = client.offload(b"e" * 5_000)
        client.resolve(proxy, release=True)
        assert not backend.contains(proxy.key)
        assert backend.stats.evictions == 1

    def test_fresh_client_misses_after_release(self, backend):
        sender = StoreClient(backend, threshold=1_024)
        proxy = sender.offload(b"m" * 5_000)
        sender.resolve(proxy, release=True)
        receiver = StoreClient(backend, threshold=1_024)
        with pytest.raises(StoreMissError):
            receiver.resolve(proxy)
        assert receiver.stats_snapshot()["misses"] == 1

    def test_cache_is_lru_bounded(self, client):
        proxies = [client.offload(bytes([i]) * 2_000) for i in range(3)]
        for proxy in proxies:
            client.resolve(proxy)
        assert client.cache_len() == 2
        # The oldest entry was evicted: resolving it is a store hit again.
        client.resolve(proxies[0])
        snap = client.stats_snapshot()
        assert snap["store_hits"] == 4
        assert snap["cache_hits"] == 0

    def test_resolve_via_foreign_locator(self, backend):
        # A proxy made elsewhere self-resolves through store_for_locator.
        sender = StoreClient(backend, threshold=1_024)
        proxy = sender.offload(b"f" * 4_096)
        other_client = StoreClient(InMemoryStore(), threshold=1_024)
        assert other_client.resolve(proxy) == b"f" * 4_096

    def test_release_via_foreign_locator(self, backend):
        sender = StoreClient(backend, threshold=1_024)
        proxy = sender.offload(b"g" * 4_096)
        other_client = StoreClient(InMemoryStore(), threshold=1_024)
        other_client.resolve(proxy, release=True)
        assert not backend.contains(proxy.key)


def assert_cache_consistent(client: StoreClient) -> None:
    """The id table and the cache hold the same entries, each under its own key."""
    assert {id(data): key for key, data in client._cache.items()} == client._ids
    for key, data in client._cache.items():
        assert StoreKey.for_data(data) == key
    assert len(client._cache) <= client.cache_capacity


class TestKeptKey:
    """A buffer the client still caches keeps its key: no second hash."""

    def test_offloaded_buffer_is_not_hashed_again(self, client, backend):
        data = b"k" * 5_000
        first = client.offload(data)
        assert backend.stats.bytes_hashed == len(data)
        assert client.offload(data) == first
        assert backend.stats.bytes_hashed == len(data)
        assert backend.stats.dedup_puts == 1
        assert_cache_consistent(client)

    def test_resolved_buffer_is_not_hashed_when_forwarded(self, client, receiver, backend):
        proxy = client.offload(b"f" * 5_000)
        data = receiver.resolve(proxy, release=True)
        hashed = backend.stats.bytes_hashed
        assert receiver.offload(data) == proxy
        assert backend.stats.bytes_hashed == hashed
        assert backend.get(proxy.key) == data
        assert_cache_consistent(receiver)

    def test_equal_but_distinct_buffer_is_hashed_onto_the_same_key(self, client, backend):
        data = b"e" * 5_000
        twin = bytes(bytearray(data))
        assert twin is not data
        first = client.offload(data)
        assert client.offload(twin) == first
        assert backend.stats.bytes_hashed == 2 * len(data)
        assert_cache_consistent(client)
        assert client._cache[first.key] is twin  # the newest object holds the entry

    def test_buffer_pushed_out_of_the_cache_is_hashed_again(self, client, backend):
        data = b"a" * 2_000
        client.offload(data)
        for filler in (b"b" * 2_000, b"c" * 2_000):  # capacity is two
            client.offload(filler)
        hashed = backend.stats.bytes_hashed
        client.offload(data)
        assert backend.stats.bytes_hashed == hashed + len(data)
        assert_cache_consistent(client)

    def test_mutable_buffer_is_hashed_every_time_and_never_cached(self, client, backend):
        data = bytearray(b"m" * 2_000)
        first = client.offload(data)
        data[0] = 0
        second = client.offload(data)
        assert first.key != second.key
        assert backend.stats.bytes_hashed == 2 * len(data)
        assert client.cache_len() == 0

    def test_concurrent_offload_and_resolve_keep_the_tables_in_step(self, backend):
        """More threads than cores on a two-entry cache, switching every 10 us."""
        client = StoreClient(backend, threshold=1_024, cache_capacity=2)
        buffers = [bytes([value]) * 2_000 for value in range(6)]
        failures: list[BaseException] = []

        def churn(offset: int) -> None:
            try:
                for step in range(300):
                    data = buffers[(offset + step) % len(buffers)]
                    assert client.resolve(client.offload(data), release=True) == data
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert_cache_consistent(client)
        assert len(backend) == 0  # every put met its evict


class TestSnapshot:
    def test_stats_snapshot_keys(self, client):
        snap = client.stats_snapshot()
        assert set(snap) == {
            "threshold",
            "offloads",
            "bytes_saved",
            "resolves",
            "cache_hits",
            "store_hits",
            "misses",
            "cache_entries",
        }
        assert snap["threshold"] == 1_024
