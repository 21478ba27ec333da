"""Unit tests for the one checkpoint store, in memory and in a directory.

:class:`CheckpointStore` keeps per-complet generation manifests over a
content-keyed object store.  The same suite runs against
``CheckpointStore()`` and ``CheckpointStore(tmp_path)``: round trips,
generation retention and blob GC, the query surface.  The directory-only
tests cover what a second OS process relies on: fresh-handle reads and
tolerance of torn or corrupt manifests.  The last class pins the defect
this store replaced: on a real clock an unchanged complet must dedupe to
one blob however often it is swept.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.recovery import Checkpointer
from repro.cluster.workload import Counter
from repro.core.core import Core
from repro.core.persistence import SNAPSHOT_VERSION, Snapshot
from repro.errors import CompletError
from repro.net.simnet import SimTransport
from repro.recovery import CheckpointRecord, CheckpointStore
from repro.recovery.store import _slot
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler
from repro.util.ids import CompletId

ANCHOR_REF = "tests.anchors:Probe_"


def cid(serial: int = 1, type_name: str = "Probe") -> CompletId:
    return CompletId(birth_core="alpha", serial=serial, type_name=type_name)


def record(
    serial: int = 1, stream: bytes = b"closure-bytes", host: str = "alpha"
) -> CheckpointRecord:
    identity = cid(serial)
    snap = Snapshot(identity, ANCHOR_REF, stream, taken_at=1.5)
    return CheckpointRecord(snap, host=host, group=(identity,))


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path if request.param == "directory" else None)


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        store.put(record(stream=b"hello"))
        got = store.get(cid())
        assert got is not None
        assert got.snapshot == Snapshot(cid(), ANCHOR_REF, b"hello", 1.5, SNAPSHOT_VERSION)
        assert got.host == "alpha"
        assert got.taken_at == 1.5
        assert got.complet_id == cid()
        assert got.group == (cid(),)

    def test_missing_id_returns_none(self, store):
        assert store.get(cid(99)) is None
        assert store.by_str("alpha/c99:Probe") is None
        assert store.generations(cid(99)) == []
        assert cid(99) not in store

    def test_latest_generation_wins(self, store):
        for stream in (b"v1", b"v2", b"v3"):
            store.put(record(stream=stream))
        assert store.get(cid()).snapshot.stream == b"v3"

    def test_query_surface(self, store):
        store.put(record(1))
        store.put(record(2, host="beta"))
        assert len(store) == 2
        assert cid(1) in store
        assert store.ids() == [cid(1), cid(2)]
        assert [r.complet_id for r in store.hosted_at("beta")] == [cid(2)]
        assert store.hosted_at("gamma") == []
        assert store.by_str("alpha/c1:Probe").complet_id == cid(1)
        assert store.by_str(cid(2).short()).complet_id == cid(2)

    def test_discard(self, store):
        store.put(record(1))
        store.put(record(2))
        store.discard(cid(1))
        store.discard(cid(99))  # unknown ids are ignored
        assert store.get(cid(1)) is None
        assert cid(1) not in store
        assert store.get(cid(2)) is not None
        assert len(store) == 1
        assert len(store._blobs) == 1  # the discarded complet's blob went too
        # A discarded slot starts over.
        store.put(record(1, stream=b"again"))
        assert [g["gen"] for g in store.generations(cid(1))] == [1]


class TestGenerations:
    def test_retention_window_evicts_old_blobs(self, store):
        store.keep_generations = 2
        for stream in (b"v1", b"v2", b"v3", b"v4"):
            store.put(record(stream=stream))
        assert [g["gen"] for g in store.generations(cid())] == [3, 4]
        # The evicted generations' blobs are gone from the blob store.
        assert len(store._blobs) == 2

    def test_identical_closure_dedupes_to_one_blob(self, store):
        """An unchanged complet re-checkpoints to the same blob."""
        store.put(record(stream=b"same"))
        store.put(record(stream=b"same"))
        first, second = store.generations(cid())
        assert first["blob"] == second["blob"]
        assert len(store._blobs) == 1
        assert store._blobs.stats.puts == 1
        assert store._blobs.stats.dedup_puts == 1

    def test_shared_blob_survives_until_its_last_generation_goes(self, store):
        store.keep_generations = 2
        for stream in (b"same", b"same", b"other"):
            store.put(record(stream=stream))
        assert len(store._blobs) == 2  # gen 1 gone, gen 2 still holds "same"
        store.put(record(stream=b"other"))
        assert len(store._blobs) == 1


class TestManifestVersion:
    def test_other_version_is_refused_before_the_blob_is_read(self, store):
        relic = record(stream=b"\x80not a pickle this runtime could load")
        relic = CheckpointRecord(
            Snapshot(cid(), ANCHOR_REF, relic.snapshot.stream, 1.5, SNAPSHOT_VERSION + 1),
            host="alpha",
        )
        store.put(relic)
        for read in (
            lambda: store.get(cid()),
            lambda: store.by_str(str(cid())),
            lambda: store.hosted_at("alpha"),
        ):
            with pytest.raises(CompletError, match="version"):
                read()
        assert store._blobs.stats.gets == 0  # refused from the manifest alone
        assert cid() in store  # still listed; only reading it is refused


class TestDirectory:
    def test_layout(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put(record(stream=b"closure"))
        manifest = json.loads((tmp_path / _slot(cid()) / store.MANIFEST).read_text())
        assert manifest["display"] == "alpha/c1:Probe"
        (generation,) = manifest["generations"]
        assert generation["anchor_ref"] == ANCHOR_REF
        assert generation["host"] == "alpha"
        assert generation["version"] == SNAPSHOT_VERSION
        assert "stream" not in generation  # the closure lives in blobs/ only
        digest, size = generation["blob"]
        assert (tmp_path / "blobs" / f"{digest}.blob").read_bytes() == b"closure"
        assert size == len(b"closure")

    def test_fresh_handle_reads_previous_writes(self, tmp_path):
        """A second handle on the directory — the respawned-process
        shape — sees everything the first one wrote."""
        writer = CheckpointStore(tmp_path)
        writer.put(record(1, stream=b"one"))
        writer.put(record(2, stream=b"two", host="beta"))
        reader = CheckpointStore(tmp_path)
        assert reader.get(cid(1)).snapshot.stream == b"one"
        assert [r.snapshot.stream for r in reader.hosted_at("beta")] == [b"two"]
        assert len(reader) == 2

    def test_writes_are_visible_without_reopen(self, tmp_path):
        """Reads always consult the disk, so two live handles stay
        coherent — the parent/child sharing pattern."""
        left, right = CheckpointStore(tmp_path), CheckpointStore(tmp_path)
        left.put(record(stream=b"from-left"))
        assert right.get(cid()).snapshot.stream == b"from-left"
        right.put(record(stream=b"from-right"))
        assert left.get(cid()).snapshot.stream == b"from-right"

    @pytest.mark.parametrize("garbage", ["{ not json", "{}"])
    def test_corrupt_manifest_tolerated(self, tmp_path, garbage):
        store = CheckpointStore(tmp_path)
        store.put(record(1))
        (tmp_path / _slot(cid(1)) / store.MANIFEST).write_text(garbage)
        assert store.get(cid(1)) is None
        assert len(store) == 0
        # The slot heals on the next put.
        store.put(record(1, stream=b"healed"))
        assert store.get(cid(1)).snapshot.stream == b"healed"

    def test_stale_tmp_file_ignored(self, tmp_path):
        """A writer SIGKILLed mid-write leaves only a tmp file behind;
        readers never see it."""
        store = CheckpointStore(tmp_path)
        store.put(record(1, stream=b"good"))
        slot = tmp_path / _slot(cid(1))
        torn = json.loads((slot / store.MANIFEST).read_text())
        torn["generations"][-1]["host"] = "nowhere"
        (slot / f"{store.MANIFEST}.tmp.12345").write_text(json.dumps(torn))
        assert store.get(cid(1)).host == "alpha"
        assert len(store) == 1

    def test_missing_blob_reads_as_absent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put(record(1))
        for blob in (tmp_path / "blobs").glob("*.blob"):
            blob.unlink()
        assert store.get(cid(1)) is None
        assert store.hosted_at("alpha") == []


    def test_torn_blob_reads_as_absent_and_the_next_put_heals_it(self, tmp_path):
        """A blob cut short (a writer SIGKILLed mid-write, before blobs were
        renamed into place) is never unpickled, and the successor's put of
        the same closure writes it again instead of deduplicating onto it."""
        store = CheckpointStore(tmp_path)
        stream = bytes(range(256)) * 40
        store.put(record(1, stream=stream))
        (blob,) = (tmp_path / "blobs").glob("*.blob")
        blob.write_bytes(stream[:4_000])
        assert store.get(cid(1)) is None
        assert store.hosted_at("alpha") == []
        successor = CheckpointStore(tmp_path)
        successor.put(record(1, stream=stream))
        assert successor.get(cid(1)).snapshot.stream == stream
        assert blob.read_bytes() == stream


class TestTwoWriters:
    def test_a_put_between_anothers_read_and_rename_waits_for_it(self, tmp_path):
        """Two handles on one directory, the shape of two processes: a put
        by the second while the first is between its manifest read and its
        rename waits for that rename, so no generation is lost, and a
        reborn ``a`` cannot take the newest record for its own."""
        first, second = CheckpointStore(tmp_path), CheckpointStore(tmp_path)
        first.put(record(host="a"))
        meanwhile = threading.Thread(target=second.put, args=(record(host="b"),))
        read = first._read

        def read_then_let_the_other_write(slot: str) -> dict | None:
            manifest = read(slot)
            meanwhile.start()
            meanwhile.join(timeout=0.5)  # it runs to the end here, unless it waits
            return manifest

        first._read = read_then_let_the_other_write
        first.put(record(host="a"))
        meanwhile.join(timeout=10.0)
        assert not meanwhile.is_alive()
        hosts = [(generation["gen"], generation["host"]) for generation in second.generations(cid())]
        assert hosts == [(1, "a"), (2, "a"), (3, "b")]

    def test_concurrent_writers_lose_no_generation(self, tmp_path):
        """Eight handles, a thread each, five puts apiece on one complet:
        every put numbers the generation after the newest, so a lost
        update would leave the last below 40."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(
                    target=lambda handle: [handle.put(record(host=f"h{n}")) for n in range(5)],
                    args=(CheckpointStore(tmp_path),),
                )
                for _ in range(8)
            ]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert CheckpointStore(tmp_path).generations(cid())[-1]["gen"] == 40


class TestRealClockSweep:
    """The child-process sweep, on the clock it really runs on.

    ``taken_at`` differs on every sweep of a real clock; it must stay out
    of the content key, or an unchanged complet is rewritten every sweep.
    """

    def test_unchanged_complet_costs_one_blob(self, tmp_path):
        scheduler = Scheduler(RealClock())
        core = Core("w1", SimTransport(scheduler), scheduler)
        counter = Counter(7, _core=core)
        store = CheckpointStore(tmp_path)
        sweeper = Checkpointer(core, store)
        for _ in range(3):
            assert sweeper.sweep() == 1
        complet_id = counter._fargo_target_id
        generations = store.generations(complet_id)
        assert [g["gen"] for g in generations] == [1, 2, 3]
        assert len({g["taken_at"] for g in generations}) == 3
        assert len({tuple(g["blob"]) for g in generations}) == 1
        assert store._blobs.stats.puts == 1
        assert store._blobs.stats.dedup_puts == 2
        assert len(list((tmp_path / "blobs").glob("*.blob"))) == 1

        counter.increment()
        sweeper.sweep()
        changed = store.generations(complet_id)[-1]["blob"]
        assert changed != generations[-1]["blob"]
        assert store._blobs.stats.puts == 2
