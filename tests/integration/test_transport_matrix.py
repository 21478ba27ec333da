"""Integration: the same application scenarios over all three deployments.

Every test here is parametrized over the deployment shape — the
deterministic simnet, the real TCP hub (in-process, a listener per Core,
real sockets on loopback), and Cores in OS processes of their own with a
driver Core in this one.  The application code is byte-for-byte
identical; only the ``transport=`` knob differs, which is the point of
the one deployment handle.  The program sits at ``cluster.seat`` (the
first Core by name, or the driver) and places its complets with ``_at=``,
so nothing below knows which side of a process boundary a Core is on.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro import Carrier, Cluster
from repro.complet.relocators import Pull
from repro.core.core import Core
from repro.errors import CoreError, RelocationError
from repro.shell.shell import FarGoShell
from repro.viewer.timeline import MovementTimeline
from tests.anchors import Failing, Holder, Leaf, Probe, Root

BACKENDS = [
    pytest.param("sim", id="sim"),
    pytest.param("tcp", id="tcp", marks=pytest.mark.tcp),
    pytest.param("procs", id="procs", marks=pytest.mark.tcp),
]


@pytest.fixture(params=BACKENDS)
def cluster(request):
    cluster = Cluster(["alpha", "beta", "gamma"], transport=request.param)
    yield cluster
    cluster.close()


class TestRpc:
    def test_remote_invocation(self, cluster):
        probe = Probe(_core=cluster.seat, _at="alpha")
        Carrier.move(probe, "beta")
        probe.note("over-the-wire")
        assert "over-the-wire" in probe.get_history()

    def test_application_exception_propagates_by_value(self, cluster):
        failing = Failing(_core=cluster.seat, _at="beta")
        with pytest.raises(ValueError, match="boom"):
            failing.boom()

    def test_complet_reference_as_argument_and_result(self, cluster):
        probe = Probe(_core=cluster.seat, _at="beta")
        holder = Holder(_core=cluster.seat, _at="alpha")
        holder.set_ref(probe)
        Carrier.move(holder, "gamma")
        returned = holder.get_ref()
        returned.note("via-returned-ref")
        assert "via-returned-ref" in probe.get_history()


class TestMovement:
    def test_move_then_invoke(self, cluster):
        probe = Probe(_core=cluster.seat, _at="alpha")
        identity = str(probe._fargo_target_id)
        Carrier.move(probe, "beta")
        assert cluster.locate(probe) == "beta"
        assert identity in cluster.complets_at("beta")
        assert identity not in cluster.complets_at("alpha")
        Carrier.move(probe, "gamma")
        assert cluster.locate(probe) == "gamma"
        history = probe.get_history()
        assert history.count("pre_departure:beta") == 1
        assert "post_arrival:gamma" in history

    def test_move_to_unknown_core_is_refused(self, cluster):
        probe = Probe(_core=cluster.seat, _at="alpha")
        with pytest.raises((RelocationError, CoreError)):
            Carrier.move(probe, "nowhere")
        assert cluster.locate(probe) == "alpha"


class TestRemoteInstantiation:
    def test_instantiate_at(self, cluster):
        probe = Probe(_core=cluster.seat, _at="gamma")
        assert cluster.locate(probe) == "gamma"
        assert str(probe._fargo_target_id) in cluster.complets_at("gamma")
        assert "post_arrival:gamma" not in probe.get_history()  # born there

    def test_state_survives_round_trip(self, cluster):
        probe = Probe(_core=cluster.seat, _at="beta")
        probe.note("first")
        Carrier.move(probe, "alpha")
        Carrier.move(probe, "beta")
        assert "first" in probe.get_history()


class TestNaming:
    def test_locate_tracks_movement(self, cluster):
        probe = Probe(_core=cluster.seat, _at="alpha")
        assert cluster.locate(probe) == "alpha"
        Carrier.move(probe, "beta")
        assert cluster.locate(probe) == "beta"

    def test_stale_tracker_chases_forwarding_pointers(self, cluster):
        """A reference held at gamma keeps working as the target roams."""
        probe = Probe(_core=cluster.seat, _at="alpha")
        holder = Holder(_core=cluster.seat, _at="gamma")
        holder.set_ref(probe)
        Carrier.move(probe, "beta")
        holder.get_ref().note("chased")
        assert "chased" in probe.get_history()
        assert cluster.locate(probe) == "beta"


class TestAccounting:
    def test_traffic_is_metered_on_both_backends(self, cluster):
        probe = Probe(_core=cluster.seat, _at="beta")
        cluster.reset_stats()
        probe.note("metered")
        stats = cluster.stats
        assert stats.messages >= 2  # at least request + reply
        assert stats.bytes > 0

    def test_tracing_is_identical_surface(self, cluster):
        probe = Probe(_core=cluster.seat, _at="beta")
        probe.note("traced")
        trace = list(cluster.transport.trace)
        assert any(cluster.seat.name in line and "beta" in line for line in trace)


class TestAdministration:
    def test_admin_snapshot_names_the_core_that_answered(self, cluster):
        assert cluster.admin("alpha").snapshot()["core"] == "alpha"
        assert cluster.admin(cluster.seat.name).snapshot()["core"] == cluster.seat.name


class TestTools:
    """Shell, layout monitor, timeline and script engine speak to Cores by name."""

    def test_shell_administers_the_deployment(self, cluster):
        shell = FarGoShell(cluster)
        timeline = MovementTimeline(cluster)
        timeline.watch_all()
        probe = Probe(_core=cluster.seat, _at="alpha")
        identity = str(probe._fargo_target_id)
        timeline.track(identity, "Probe", "alpha")

        listed = shell.execute("cores")
        assert all(f"{name:<14} up" in listed for name in cluster.core_names())
        assert f"alpha          {identity}" in shell.execute("complets")
        assert "completLoad" in shell.execute("services alpha")
        assert "script active: 1 rules" in shell.execute(
            'script on completArrived listenAt [beta] do log "arrived" end'
        )

        assert shell.execute(f"move {identity} beta") == f"moved {identity} from alpha to beta"
        for _ in range(100):  # a child's events reach the seat in their own time
            if shell.engine.log and timeline.move_count(identity) and len(shell.monitor.feed) >= 2:
                break
            cluster.advance(0.05)
        assert cluster.locate(probe) == "beta"
        assert shell.engine.log == ["arrived"]
        feed = shell.execute("feed")
        assert "completDeparted" in feed and "completArrived" in feed
        stays = timeline.residencies(identity)
        assert [stay.core for stay in stays] == ["alpha", "beta"] and stays[0].until is not None

        hosted = {
            snapshot["core"]: [row["id"] for row in snapshot["complets"]]
            for snapshot in shell.monitor.snapshots()
        }
        assert list(hosted) == sorted(cluster.running_names())
        assert identity in hosted["beta"] and identity not in hosted["alpha"]
        assert identity in shell.execute("layout")


    def test_shell_lints_files_against_the_live_topology(self, cluster, tmp_path):
        """``lint @path`` reads the topology through the handle: a child's
        complets and Cores resolve, unknown names are findings."""
        probe = Probe(_core=cluster.seat, _at="beta")
        identity = probe._fargo_target_id
        known = tmp_path / "known.fgs"
        known.write_text(
            f'on timer(5) do\n move "{identity}" to "gamma"\nend\n'
            f'on timer(7) do\n move "{identity.short()}" to "beta"\nend\n'
        )
        unknown = tmp_path / "unknown.fgs"
        unknown.write_text('on timer(5) do\n move "ghost" to "nowhere"\nend\n')
        shell = FarGoShell(cluster)
        assert shell.execute(f"lint @{known}") == "no diagnostics"
        report = shell.execute(f"lint @{unknown}")
        assert "error FG104: unknown Core 'nowhere'" in report
        assert "warning FG105: no complet 'ghost'" in report


def move_realpath_group(backend: str) -> dict:
    """realpath's ``move_group`` op: a root pulling three 256 KiB leaves, moved once."""
    rng = random.Random(1999)
    blobs = [rng.randbytes(256 * 1024) for _ in range(3)]
    cluster = Cluster(["alpha", "beta", "gamma"], transport=backend)
    try:
        leaves = [Leaf(blob, _core=cluster["alpha"], _at="beta") for blob in blobs]
        root = Root(leaves, _core=cluster["alpha"], _at="beta")
        anchor = cluster["beta"].repository.get(root._fargo_target_id)
        for stub in anchor.leaves:
            Core.get_meta_ref(stub).set_relocator(Pull())
        cluster.reset_stats()
        cluster["alpha"].move(root, "gamma")
        moved = cluster.stats  # live on sim: read before the checks add traffic
        outcome = {
            "messages": moved.messages, "bytes": moved.bytes, "kinds": dict(moved.by_kind),
        }
        outcome["report"] = root.report()
        outcome["hosts"] = [cluster.locate(stub) for stub in (root, *leaves)]
    finally:
        cluster.close()
    assert outcome["report"] == ("gamma", [("gamma", zlib.crc32(blob)) for blob in blobs])
    return outcome


@pytest.mark.tcp
def test_group_move_with_bulk_is_the_same_on_both_backends():
    """Members, CRC-32s, message counts and metered bytes agree, sim against TCP.

    The metered bytes are payload bytes on either backend (the TCP frame
    header is not charged), so the two may differ only by what the
    payloads themselves encode differently: nothing.
    """
    sim = move_realpath_group("sim")
    tcp = move_realpath_group("tcp")
    assert sim["report"] == tcp["report"] and sim["hosts"] == tcp["hosts"] == ["gamma"] * 4
    assert sim["messages"] == tcp["messages"] and sim["kinds"] == tcp["kinds"]
    assert sim["bytes"] == tcp["bytes"]
    assert 3 * 256 * 1024 < sim["bytes"] < 3 * 256 * 1024 + 4_096  # one copy on the wire
