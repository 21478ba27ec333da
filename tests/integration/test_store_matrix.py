"""Store offloading across transport backends (sim, real TCP, child processes).

The proxy protocol must behave identically whether envelopes travel the
simulated network or real sockets: large movement payloads and bulky
invocation arguments ship as ~100 B proxies, resolve to identical state
at the destination, and balance their store references afterwards.
The ``procs`` leg is the one place two OS processes share a
:class:`~repro.store.FileStore` directory.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.bench.scenarios import bulk_bytes_echoes
from repro.cluster import CoreProcesses
from repro.cluster.cluster import Cluster
from repro.cluster.workload import DataSource, Echo
from repro.store import FileStore
from tests.anchors import Failing

PAYLOAD = 256 * 1024  # four times the default offload threshold

BACKENDS = [
    pytest.param("sim", id="sim"),
    pytest.param("tcp", id="tcp", marks=pytest.mark.tcp),
]


@pytest.fixture(params=BACKENDS)
def cluster(request):
    cluster = Cluster(["alpha", "beta", "gamma"], transport=request.param, store="memory")
    yield cluster
    cluster.close()


class TestHeavyMove:
    def test_move_ships_proxy_not_payload(self, cluster):
        source = DataSource(PAYLOAD, _core=cluster["alpha"])
        before_checksum = source.checksum()
        base = cluster.stats.bytes
        cluster.move(source, "beta")
        moved_bytes = cluster.stats.bytes - base
        # ISSUE acceptance: at least 80% fewer transport bytes than the
        # payload the move would otherwise carry inline.
        assert moved_bytes < PAYLOAD / 5
        assert source.checksum() == before_checksum

    def test_store_is_drained_after_move(self, cluster):
        source = DataSource(PAYLOAD, _core=cluster["alpha"])
        cluster.move(source, "beta")
        snapshot = cluster.store_snapshot()
        assert snapshot["enabled"]
        assert snapshot["store"]["entries"] == []  # put/evict balanced

    def test_client_counters_visible_via_admin(self, cluster):
        source = DataSource(PAYLOAD, _core=cluster["alpha"])
        cluster.move(source, "beta")
        sender = cluster.admin("alpha").store()
        receiver = cluster.admin("beta").store()
        assert sender["enabled"] and receiver["enabled"]
        assert sender["client"]["offloads"] >= 1
        assert receiver["client"]["resolves"] >= 1


class TestHeavyInvocation:
    def test_bulk_argument_ships_as_proxy(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        payload = "z" * PAYLOAD
        base = cluster.stats.bytes
        assert echo.echo(payload) == payload
        invoke_bytes = cluster.stats.bytes - base
        # Request argument and reply result both offload.
        assert invoke_bytes < 2 * PAYLOAD / 5

    def test_small_arguments_stay_inline(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        before = cluster.store_snapshot()["store"]["stats"]["puts"]
        assert echo.echo("tiny") == "tiny"
        after = cluster.store_snapshot()["store"]["stats"]["puts"]
        assert after == before


def _store_stats(cluster) -> dict:
    return cluster.store_snapshot()["store"]["stats"]


class _BulkParts:
    """Each bulk ``bytes`` of a call is one store entry of its own; whatever
    happens to the call, the entries are gone when it is over."""

    def test_two_buffers_one_passed_twice_make_two_puts(self, bulk_cluster):
        echo = Echo("e", _core=bulk_cluster["alpha"], _at="beta")
        first, second = os.urandom(PAYLOAD), os.urandom(PAYLOAD)
        puts, base = _store_stats(bulk_cluster)["puts"], bulk_cluster.stats.bytes
        echo.ping()  # the callee only counts; the reply is small
        assert _store_stats(bulk_cluster)["puts"] == puts
        returned = echo.echo((first, second, first))
        assert returned == (first, second, first) and returned[0] is returned[2]
        # Two on the way out, and the same two buffers on the way back.
        assert _store_stats(bulk_cluster)["puts"] == puts + 4
        assert bulk_cluster.stats.bytes - base < 4_096
        assert bulk_cluster.store_snapshot()["store"]["entries"] == []

    def test_store_drains_when_the_callee_raises(self, bulk_cluster):
        failing = Failing(_core=bulk_cluster["alpha"], _at="beta")
        first, second = os.urandom(PAYLOAD), os.urandom(PAYLOAD)
        puts = _store_stats(bulk_cluster)["puts"]
        with pytest.raises(ValueError, match="refused 3 arguments"):
            failing.refuse(first, second, first)
        assert _store_stats(bulk_cluster)["puts"] == puts + 2
        assert bulk_cluster.store_snapshot()["store"]["entries"] == []

    def test_bytearray_argument_arrives_as_a_copy(self, bulk_cluster):
        echo = Echo("e", _core=bulk_cluster["alpha"], _at="beta")
        argument = bytearray(os.urandom(PAYLOAD))
        before = bytes(argument)
        returned = echo.echo(argument)
        assert type(returned) is bytearray and returned == before
        returned[0] ^= 0xFF  # what came back is the caller's to change ...
        assert bytes(argument) == before  # ... and not what it sent
        assert bulk_cluster.store_snapshot()["store"]["entries"] == []

    def test_bulk_str_ships_as_one_proxy_each_way(self, bulk_cluster):
        echo = Echo("e", _core=bulk_cluster["alpha"], _at="beta")
        puts = _store_stats(bulk_cluster)["puts"]
        text = "z" * PAYLOAD
        assert echo.echo(text) == text
        assert _store_stats(bulk_cluster)["puts"] == puts + 2
        assert bulk_cluster.store_snapshot()["store"]["entries"] == []


class TestBulkPartsMemoryStore(_BulkParts):
    @pytest.fixture
    def bulk_cluster(self, cluster):
        return cluster


class TestHashedOnce:
    def test_only_the_first_echo_of_a_buffer_hashes_and_it_hashes_once(self):
        """The count behind BENCH_store.json's ``bulk_bytes_hashed``: at the
        parent of PR 18 every one of the eight echoes hashed 512 KiB."""
        hashed, net_bytes = bulk_bytes_echoes(8)
        assert hashed == [PAYLOAD] + [0] * 7
        assert net_bytes < 8 * 1_024


class TestFileBackend(_BulkParts):
    @pytest.fixture(params=BACKENDS)
    def file_cluster(self, request, tmp_path):
        cluster = Cluster(
            ["alpha", "beta"],
            transport=request.param,
            store=FileStore(tmp_path / "blobs"),
        )
        yield cluster
        cluster.close()

    @pytest.fixture
    def bulk_cluster(self, file_cluster):
        return file_cluster

    def test_move_through_file_store(self, file_cluster):
        source = DataSource(PAYLOAD, _core=file_cluster["alpha"])
        checksum = source.checksum()
        base = file_cluster.stats.bytes
        file_cluster.move(source, "beta")
        assert file_cluster.stats.bytes - base < PAYLOAD / 5
        assert source.checksum() == checksum


@pytest.mark.tcp
class TestChildProcesses:
    """``CoreProcesses(store_dir=...)``: driver and child in two OS processes, one directory."""

    def test_procs_bulk_echo_ships_proxies_through_the_shared_directory(self, tmp_path):
        store_dir = tmp_path / "store"
        with CoreProcesses(["child"], store_dir=str(store_dir)) as procs:
            echo = Echo("e", _core=procs.driver, _at="child")
            buffers = [os.urandom(PAYLOAD) for _ in range(3)]
            echo.echo(buffers[0])  # connections and caches exist from here on
            for buffer in (*buffers, buffers[0]):
                base = procs.transport.stats.bytes
                returned = echo.echo(buffer)
                assert procs.transport.stats.bytes - base < 1_024
                assert zlib.crc32(returned) == zlib.crc32(buffer)
                assert os.listdir(store_dir) == []
            child = procs.driver.admin("child", "store")
            assert child["enabled"] and child["store"]["backend"] == "file"
            assert child["client"]["resolves"] == 5 and child["client"]["offloads"] == 5
            # What it resolved it still cached when it sent it back: never hashed there.
            assert child["store"]["stats"]["bytes_hashed"] == 0
        assert os.listdir(store_dir) == []

    def test_procs_cluster_with_the_file_store_ships_proxies(self):
        """The same through the handle: the cluster makes the directory and removes it."""
        cluster = Cluster(["alpha", "beta"], transport="procs", store="file")
        try:
            store_dir = cluster.processes.store_dir
            echo = Echo("e", _core=cluster.seat, _at="beta")
            buffer = os.urandom(PAYLOAD)
            echo.echo(buffer)  # connections and caches exist from here on
            base = cluster.stats.bytes
            assert zlib.crc32(echo.echo(buffer)) == zlib.crc32(buffer)
            assert cluster.stats.bytes - base < 2_048  # over the driver's hub
            assert cluster.admin("beta").store()["enabled"]
            snapshot = cluster.store_snapshot()
            assert snapshot["enabled"] and snapshot["store"]["backend"] == "file"
            assert sorted(snapshot["cores"]) == ["alpha", "beta", "driver"]
            assert snapshot["store"]["entries"] == [] and os.listdir(store_dir) == []
        finally:
            cluster.close()
        assert not os.path.exists(store_dir)

    def test_procs_without_a_store_dir_build_store_less_cores(self):
        with CoreProcesses(["child"]) as procs:
            assert procs.driver.store_client is None
            assert procs.driver.admin("child", "store") == {"enabled": False}
