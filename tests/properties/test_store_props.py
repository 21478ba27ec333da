"""Property-based tests for store offloading and envelope batching.

Four invariants the ISSUEs pin down:

- a proxied payload resolves to *byte-identical* content vs the eager
  marshal, for any payload;
- a store client's id table names exactly the buffers its cache holds,
  each under the key its content hashes to, after any sequence of
  offloads, resolves and releases;
- copy-on-first-read is version-stamped: an unchanged complet marshals
  under one content key, and any mutation (or reference retarget) lands
  the next marshal under a new key;
- batching preserves per-link FIFO order under arbitrary interleavings
  of posts, sends, and clock advances.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.workload import DataSource
from repro.complet.marshal import _resolve_stream, marshal_clone
from repro.complet.stub import stub_target_id
from repro.net import BatchPolicy, BatchingTransport, Envelope, MessageKind, SimTransport
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler
from repro.store import InMemoryStore, StoreClient, StoreKey, StoreProxy

THRESHOLD = 1_024


class TestProxyRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(min_size=0, max_size=8_192))
    def test_offload_resolve_is_byte_identical(self, data):
        client = StoreClient(InMemoryStore(), threshold=THRESHOLD)
        wire = client.offload(data)
        assert isinstance(wire, StoreProxy) == (len(data) >= THRESHOLD)
        assert client.resolve(wire, release=True) == data

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(min_value=0, max_value=300_000))
    def test_offloaded_clone_stream_matches_eager_marshal(self, size):
        cluster = Cluster(["a", "b"], store="memory")
        try:
            core = cluster["a"]
            stub = DataSource(max(size, 1), _core=core)
            anchor = core.repository.get(stub_target_id(stub))
            eager = marshal_clone(core, anchor, anchor.complet_id, offload=False)
            offloaded = marshal_clone(core, anchor, anchor.complet_id, offload=True)
            assert _resolve_stream(core, offloaded.stream) == eager.stream
        finally:
            cluster.close()


# One client step: (action, which of five contents, a fresh equal object or the shared one)
_client_steps = st.lists(
    st.tuples(
        st.sampled_from(["offload", "offload", "resolve", "release"]),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    ),
    max_size=40,
)


class TestKeptKeys:
    @settings(max_examples=60, deadline=None)
    @given(steps=_client_steps)
    def test_id_table_and_cache_agree_after_any_sequence(self, steps):
        """Whatever is offloaded, resolved and released in whatever order, on a
        cache small enough to overflow: the id table names exactly the cached
        objects, every cached object hashes to its key, and every proxy handed
        out stands for the bytes it was made from."""
        backend = InMemoryStore()
        clients = [
            StoreClient(backend, threshold=THRESHOLD, cache_capacity=3) for _ in range(2)
        ]
        shared = [bytes([value]) * (THRESHOLD + value) for value in range(5)]
        outstanding: list[tuple[StoreProxy, bytes]] = []
        for turn, (action, which, fresh) in enumerate(steps):
            client = clients[turn % 2]
            if action == "offload":
                data = bytes(bytearray(shared[which])) if fresh else shared[which]
                proxy = client.offload(data)
                assert proxy.key == StoreKey.for_data(data)
                outstanding.append((proxy, data))
            elif outstanding:
                proxy, data = outstanding[which % len(outstanding)]
                if action == "resolve":
                    assert client.resolve(proxy) == data
                else:
                    outstanding.remove((proxy, data))
                    assert client.resolve(proxy, release=True) == data
            for each in clients:
                assert {id(held): key for key, held in each._cache.items()} == each._ids
                assert all(StoreKey.for_data(held) == key for key, held in each._cache.items())
                assert len(each._cache) <= 3
        assert backend.stats.puts + backend.stats.dedup_puts == sum(
            action == "offload" for action, _, _ in steps
        )


class TestVersionStampedInvalidation:
    @settings(max_examples=15, deadline=None)
    @given(script=st.lists(st.booleans(), min_size=2, max_size=8))
    def test_key_changes_exactly_on_mutation(self, script):
        """``script`` is a list of marshal steps; True mutates first."""
        cluster = Cluster(["a", "b"], store="memory", store_threshold=256)
        try:
            core = cluster["a"]
            stub = DataSource(2_048, _core=core)
            anchor = core.repository.get(stub_target_id(stub))
            previous_key = None
            for mutate in script:
                if mutate:
                    # Any attribute write bumps the anchor's state version.
                    anchor.blob = bytes(reversed(anchor.blob))
                entry = marshal_clone(core, anchor, anchor.complet_id, offload=True)
                assert isinstance(entry.stream, StoreProxy)
                key = entry.stream.key
                if previous_key is not None:
                    if mutate:
                        assert key != previous_key
                    else:
                        assert key == previous_key
                _resolve_stream(core, entry.stream)
                previous_key = key
        finally:
            cluster.close()


    def test_retarget_invalidates_the_key(self):
        from tests.anchors import Holder

        cluster = Cluster(["a", "b"], store="memory", store_threshold=64)
        try:
            core = cluster["a"]
            first = DataSource(128, _core=core)
            second = DataSource(128, seed=11, _core=core)
            holder = Holder(first, _core=core)
            anchor = core.repository.get(stub_target_id(holder))

            def marshal_key():
                entry = marshal_clone(core, anchor, anchor.complet_id, offload=True)
                assert isinstance(entry.stream, StoreProxy)
                _resolve_stream(core, entry.stream)
                return entry.stream.key

            original = marshal_key()
            assert marshal_key() == original  # unchanged holder: stable key
            holder.set_ref(second)
            retargeted = marshal_key()
            assert retargeted != original  # retarget is a state change
            assert retargeted.size == original.size  # only the token differs
        finally:
            cluster.close()


def _one_way(dst: str, payload: bytes) -> Envelope:
    return Envelope(src="src", dst=dst, kind=MessageKind.EVENT_NOTIFY, payload=payload)


# One schedule step: (action, destination index, payload seed)
_steps = st.lists(
    st.tuples(
        st.sampled_from(["post", "post", "post", "send", "advance", "flush"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=40,
)


class TestBatchOrdering:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=_steps,
        max_messages=st.integers(min_value=1, max_value=6),
        max_bytes=st.integers(min_value=1, max_value=512),
    )
    def test_per_link_fifo_under_random_schedules(self, steps, max_messages, max_bytes):
        sim = SimTransport(Scheduler(VirtualClock()))
        transport = BatchingTransport(
            sim, BatchPolicy(max_messages=max_messages, max_bytes=max_bytes, max_delay=0.01)
        )
        destinations = ["d0", "d1", "d2"]
        received: dict[str, list[bytes]] = {d: [] for d in destinations}
        posted: dict[str, list[bytes]] = {d: [] for d in destinations}

        def recorder(dst: str):
            def handler(envelope: Envelope) -> bytes:
                received[dst].append(envelope.payload)
                return b"ok"

            return handler

        transport.register("src", lambda e: b"")
        for dst in destinations:
            transport.register(dst, recorder(dst))

        sequence = 0
        for action, dst_idx, seed in steps:
            dst = destinations[dst_idx]
            if action == "post":
                payload = bytes([seed]) * (seed % 7 + 1) + str(sequence).encode()
                sequence += 1
                posted[dst].append(payload)
                transport.post(_one_way(dst, payload))
            elif action == "send":
                payload = b"rpc" + str(sequence).encode()
                sequence += 1
                posted[dst].append(payload)
                transport.send(
                    Envelope(
                        src="src", dst=dst, kind=MessageKind.ADMIN_QUERY, payload=payload
                    )
                )
            elif action == "advance":
                sim.scheduler.advance(0.02)
            else:
                transport.flush_all()

        transport.flush_all()
        for dst in destinations:
            assert received[dst] == posted[dst]
