"""Content-keyed object-store backends: keys, refcounts, locators."""

from __future__ import annotations

import gc
import hashlib
import os

import pytest

from repro.errors import StoreError, StoreMissError
from repro.store import FileStore, InMemoryStore, StoreKey
from repro.store.store import store_for_locator


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = InMemoryStore()
    else:
        backend = FileStore(tmp_path / "blobs")
    yield backend
    backend.close()


class TestStoreKey:
    def test_key_is_blake2b_256_plus_length(self):
        data = b"some payload bytes"
        key = StoreKey.for_data(data)
        assert key.digest == hashlib.blake2b(data, digest_size=32).hexdigest()
        assert key.size == len(data)
        # The published BLAKE2b-256 of "abc": a swapped algorithm fails here.
        assert StoreKey.for_data(b"abc").digest == (
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
        )

    def test_same_content_same_key(self):
        assert StoreKey.for_data(b"x" * 100) == StoreKey.for_data(b"x" * 100)
        assert StoreKey.for_data(b"x" * 100) != StoreKey.for_data(b"y" * 100)

    def test_short_form(self):
        key = StoreKey.for_data(b"abc")
        assert key.short() == key.digest[:10]


class TestBackends:
    def test_put_get_roundtrip(self, store):
        data = b"payload" * 1_000
        key = store.put(data)
        assert store.get(key) == data
        assert store.contains(key)
        assert store.stats.puts == 1
        assert store.stats.gets == 1
        assert store.stats.bytes_put == len(data)
        assert store.stats.bytes_served == len(data)

    def test_get_missing_raises_and_counts(self, store):
        ghost = StoreKey.for_data(b"never stored")
        with pytest.raises(StoreMissError):
            store.get(ghost)
        assert store.stats.misses == 1
        assert not store.contains(ghost)

    def test_duplicate_put_dedups_to_one_entry(self, store):
        data = b"d" * 4_096
        k1 = store.put(data)
        k2 = store.put(data)
        assert k1 == k2
        assert store.stats.puts == 1
        assert store.stats.dedup_puts == 1
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0].refcount == 2

    def test_put_given_the_key_hashes_nothing(self, store):
        data = b"k" * 4_096
        key = store.put(data)
        assert store.stats.bytes_hashed == len(data)
        assert store.put(data, key) == key
        assert store.stats.bytes_hashed == len(data)
        assert store.entries()[0].refcount == 2

    def test_evict_balances_refcount(self, store):
        data = b"e" * 2_048
        key = store.put(data)
        store.put(data)
        assert store.evict(key) is False  # one reference remains
        assert store.contains(key)
        assert store.evict(key) is True  # last reference removes it
        assert not store.contains(key)
        assert store.stats.evictions == 1
        with pytest.raises(StoreMissError):
            store.get(key)

    def test_evict_of_absent_entry_is_noop(self, store):
        assert store.evict(StoreKey.for_data(b"nothing")) is False
        assert store.stats.evictions == 0

    def test_entries_report_hits(self, store):
        key = store.put(b"h" * 512)
        store.get(key)
        store.get(key)
        [info] = store.entries()
        assert info.key == key
        assert info.hits == 2
        assert info.refcount == 1

    def test_len_counts_distinct_entries(self, store):
        store.put(b"a" * 256)
        store.put(b"b" * 256)
        store.put(b"a" * 256)  # dedup
        assert len(store) == 2

    def test_snapshot_shape(self, store):
        key = store.put(b"s" * 128)
        snap = store.snapshot()
        assert snap["backend"] in ("memory", "file")
        assert snap["stats"]["puts"] == 1
        [entry] = snap["entries"]
        assert entry["digest"] == key.digest
        assert entry["size"] == 128
        assert entry["refcount"] == 1

    def test_locator_resolves_back_to_served_bytes(self, store):
        data = b"locate me" * 300
        key = store.put(data)
        resolved = store_for_locator(store.locator())
        assert resolved.get(key) == data


class TestFileStoreSharing:
    def test_second_handle_on_same_directory_sees_entries(self, tmp_path):
        writer = FileStore(tmp_path / "shared")
        data = b"cross-process blob" * 100
        key = writer.put(data)
        reader = FileStore(tmp_path / "shared")
        assert reader.get(key) == data
        assert reader.evict(key) is True
        assert not writer.contains(key)

    def test_refcount_survives_reopen(self, tmp_path):
        writer = FileStore(tmp_path / "shared")
        key = writer.put(b"r" * 64)
        writer.put(b"r" * 64)
        reader = FileStore(tmp_path / "shared")
        assert reader.evict(key) is False
        assert reader.evict(key) is True


class TestFileStoreLayout:
    """What a put, a repeat put and an evict leave in the directory."""

    def test_single_reference_is_one_file(self, tmp_path):
        store = FileStore(tmp_path)
        data = b"one reference" * 100
        key = store.put(data)
        assert os.listdir(tmp_path) == [f"{key.digest}.blob"]
        store.put(data)
        assert sorted(os.listdir(tmp_path)) == [f"{key.digest}.blob", f"{key.digest}.ref"]
        assert (tmp_path / f"{key.digest}.ref").read_text() == "2"
        assert store.evict(key) is False
        assert os.listdir(tmp_path) == [f"{key.digest}.blob"]  # the sidecar went
        assert store.evict(key) is True
        assert os.listdir(tmp_path) == []

    def test_counts_above_two_leave_one_sidecar_and_then_nothing(self, tmp_path):
        store = FileStore(tmp_path)
        data = b"four references" * 100
        key = store.put(data)
        blob, ref = f"{key.digest}.blob", f"{key.digest}.ref"
        for count in (2, 3, 4):
            store.put(data)
            assert sorted(os.listdir(tmp_path)) == [blob, ref]
            assert store.entries()[0].refcount == count
            assert int((tmp_path / ref).read_text()) == count
        for count in (3, 2):
            assert store.evict(key) is False
            assert store.entries()[0].refcount == count
        assert store.evict(key) is False
        assert os.listdir(tmp_path) == [blob]
        assert store.evict(key) is True
        assert os.listdir(tmp_path) == []
        assert store.stats.snapshot()["dedup_puts"] == 3

    @pytest.mark.parametrize("text", [b"3", b"%-20d" % 3], ids=["bare", "padded"])
    def test_a_count_reads_the_same_bare_or_padded(self, tmp_path, text):
        """Bare is how a count above two was written before it was overwritten in place."""
        store = FileStore(tmp_path)
        key = store.put(b"either form" * 50)
        (tmp_path / f"{key.digest}.ref").write_bytes(text)
        assert store.entries()[0].refcount == 3
        store.put(b"either form" * 50)
        assert store.entries()[0].refcount == 4

    def test_a_bare_ten_overwritten_in_place_reads_nine(self, tmp_path):
        store = FileStore(tmp_path)
        key = store.put(b"one digit fewer" * 50)
        (tmp_path / f"{key.digest}.ref").write_bytes(b"10")
        assert store.evict(key) is False
        assert store.entries()[0].refcount == 9  # not 90: the field is wider than any count

    def test_sidecar_saying_one_still_reads(self, tmp_path):
        """The layout before the sidecar became optional."""
        store = FileStore(tmp_path)
        key = store.put(b"old layout" * 50)
        (tmp_path / f"{key.digest}.ref").write_text("1")
        assert store.entries()[0].refcount == 1
        store.put(b"old layout" * 50)
        assert store.entries()[0].refcount == 2
        assert store.evict(key) is False
        (tmp_path / f"{key.digest}.ref").write_text("1")
        assert store.evict(key) is True
        assert os.listdir(tmp_path) == []


class TestTornBlob:
    """A blob shorter than its key says: a writer killed mid-write, before
    blobs were written aside and renamed, leaves exactly that."""

    def test_truncated_blob_misses_and_the_next_put_replaces_it(self, tmp_path):
        store = FileStore(tmp_path)
        data = bytes(range(256)) * 64
        key = store.put(data)
        blob = tmp_path / f"{key.digest}.blob"
        blob.write_bytes(data[:1000])
        with pytest.raises(StoreMissError):
            store.get(key)
        assert store.stats.misses == 1
        assert store.put(data) == key
        assert store.stats.puts == 2 and store.stats.dedup_puts == 0
        assert store.get(key) == data
        assert store.entries()[0].refcount == 1

    def test_replacing_a_torn_blob_voids_its_count(self, tmp_path):
        store = FileStore(tmp_path)
        data = b"t" * 5_000
        key = store.put(data)
        store.put(data)
        (tmp_path / f"{key.digest}.blob").write_bytes(data + b"trailing")
        store.put(data)
        assert store.get(key) == data
        assert store.evict(key) is True
        assert os.listdir(tmp_path) == []

    def test_temporaries_are_neither_listed_nor_served(self, tmp_path):
        store = FileStore(tmp_path)
        data = b"whole" * 1_000
        key = StoreKey.for_data(data)
        (tmp_path / f"{key.digest}.blob.tmp.4242.1").write_bytes(data)
        assert store.entries() == []
        assert not store.contains(key)
        with pytest.raises(StoreMissError):
            store.get(key)
        store.put(data)
        assert [info.key for info in store.entries()] == [key]


class TestLocatorResolution:
    def test_memory_locator_resolves_to_same_instance(self):
        backend = InMemoryStore()
        assert store_for_locator(backend.locator()) is backend

    def test_memory_locator_of_dead_store_misses(self):
        backend = InMemoryStore()
        locator = backend.locator()
        del backend
        gc.collect()
        with pytest.raises(StoreMissError):
            store_for_locator(locator)

    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError):
            store_for_locator(("carrier-pigeon", "coop-7"))
