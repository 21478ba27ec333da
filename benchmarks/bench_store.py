"""Experiment S1 — large-payload offloading and envelope batching.

The object store claims move traffic for heavy complets drops from
O(state) to O(reference), that content keying gives `duplicate`
references copy-on-first-read behaviour, and that batching coalesces
one-way envelope storms into a few wire transfers.  Measured here under
the virtual clock (real clocks are forbidden — determinism is the whole
point of the bench baselines):

- transport bytes for a 1 MiB complet move, eager vs store-backed;
- resolve-cache hits when several holders duplicate one unchanged
  original;
- wire messages for a 64-envelope one-way storm, raw vs batched.

One case is wall-clock, on a real directory: what a ``FileStore`` put and
evict cost on an entry that two other references hold.
"""

import os

from repro.cluster.cluster import Cluster
from repro.cluster.workload import DataSource, Echo
from repro.net import BatchPolicy, BatchingTransport, Envelope, MessageKind, SimTransport
from repro.sim.clock import VirtualClock, forbid_real_clocks
from repro.sim.scheduler import Scheduler
from repro.store import FileStore
from benchmarks.conftest import print_table

PAYLOAD = 1_048_576  # 1 MiB: ×16 the default offload threshold


def _move_bytes(store) -> int:
    with forbid_real_clocks():
        cluster = Cluster(["a", "b"], store=store)
        try:
            source = DataSource(PAYLOAD, _core=cluster["a"])
            base = cluster.stats.bytes
            cluster.move(source, "b")
            return cluster.stats.bytes - base
        finally:
            cluster.close()


def test_move_offload_byte_ratio(benchmark):
    """A store-backed 1 MiB move ships ≥80% fewer transport bytes."""
    eager = _move_bytes(store=None)
    offloaded = _move_bytes(store="memory")
    print_table(
        "S1: 1 MiB move, transport bytes",
        ["mode", "bytes", "% of eager"],
        [
            ("eager", eager, 100.0),
            ("store", offloaded, round(100.0 * offloaded / eager, 3)),
        ],
    )
    assert offloaded < eager / 5
    benchmark(lambda: None)


def test_invoke_offload(benchmark):
    """Bulk invocation bodies offload in both directions."""
    with forbid_real_clocks():
        cluster = Cluster(["a", "b"], store="memory")
        try:
            echo = Echo("e", _core=cluster["a"])
            cluster.move(echo, "b")
            payload = "z" * (256 * 1024)
            base = cluster.stats.bytes
            assert echo.echo(payload) == payload
            shipped = cluster.stats.bytes - base
        finally:
            cluster.close()
    assert shipped < 2 * len(payload) / 5
    benchmark(lambda: None)


def test_copy_on_first_read(benchmark):
    """Holders duplicating one unchanged original share a resolve-cache line."""
    from repro.complet.relocators import Duplicate
    from repro.core.core import Core

    with forbid_real_clocks():
        cluster = Cluster(["a", "b", "c"], store="memory")
        try:
            original = DataSource(256 * 1024, _core=cluster["a"], _at="c")
            holders = []
            for i in range(4):
                holder = Echo(f"h{i}", _core=cluster["a"])
                anchor = cluster["a"].repository.get(holder._fargo_target_id)
                anchor.payload_ref = cluster.stub_at("a", original)
                Core.get_meta_ref(anchor.payload_ref).set_relocator(Duplicate())
                holders.append(holder)
            for holder in holders:
                cluster.move(holder, "b")
            hits = sum(
                view["client"]["cache_hits"]
                for view in cluster.store_snapshot()["cores"].values()
            )
        finally:
            cluster.close()
    assert hits >= 3, "second and later duplicates must hit the resolve cache"
    benchmark(lambda: None)


def test_batching_message_count(benchmark):
    """64 one-way envelopes coalesce into a handful of wire transfers."""
    with forbid_real_clocks():
        scheduler = Scheduler(VirtualClock())
        raw = SimTransport(scheduler)
        raw.register("a", lambda env: b"")
        raw.register("b", lambda env: b"")
        for _ in range(64):
            raw.post(
                Envelope(src="b", dst="a", kind=MessageKind.EVENT_NOTIFY, payload=b"e" * 96)
            )
        unbatched = raw.stats.messages

        batch_scheduler = Scheduler(VirtualClock())
        inner = SimTransport(batch_scheduler)
        transport = BatchingTransport(inner, BatchPolicy(max_messages=16, max_delay=0.005))
        delivered = []

        def _deliver(env):
            delivered.append(env)
            return b""

        transport.register("a", _deliver)
        transport.register("b", lambda env: b"")
        for _ in range(64):
            transport.post(
                Envelope(src="b", dst="a", kind=MessageKind.EVENT_NOTIFY, payload=b"e" * 96)
            )
        batch_scheduler.advance(0.1)
        batched = inner.stats.messages

    print_table(
        "S1: one-way storm, wire messages",
        ["mode", "wire msgs", "logical msgs"],
        [("raw", unbatched, 64), ("batched", batched, len(delivered))],
    )
    assert len(delivered) == 64, "batching must not lose messages"
    assert batched <= unbatched / 8
    benchmark(lambda: None)


def test_dedup_put_refcount3(benchmark, tmp_path):
    """A put and an evict that take a count 2 -> 3 -> 2: the sidecar stays, and is
    overwritten in place (a truncating rewrite costs an ext4 flush each time)."""
    store = FileStore(tmp_path)
    data = b"third reference" * 1_000
    key = store.put(data)
    store.put(data, key)

    def third_reference_comes_and_goes():
        store.put(data, key)
        store.evict(key)

    benchmark(third_reference_comes_and_goes)
    assert store.entries()[0].refcount == 2
    assert sorted(os.listdir(tmp_path)) == [f"{key.digest}.blob", f"{key.digest}.ref"]
