"""Integration: the §4.1 in-application relocation policy, via the API.

The paper's motivating policy: "move two disparate complets to the same
site only if the bandwidth between the sites is below some threshold
value and the invocationRate is above some threshold value.  Otherwise
keep them apart to spread the load."  This module encodes that policy
with the monitoring API (no scripts) and shows it reacting to changing
link conditions.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Client, Server


@pytest.fixture
def rig():
    cluster = Cluster(["site1", "site2"], bandwidth=1_000_000.0, latency=0.01)
    server = Server(_core=cluster["site2"], _at="site2")
    client = Client(server, _core=cluster["site1"])
    return cluster, client, server


class ColocationPolicy:
    """The §4.1 policy, in-application: API-only relocation programming."""

    def __init__(self, cluster, client, server, *, bw_threshold, rate_threshold):
        self.cluster = cluster
        self.client = client
        self.server = server
        self.bw_threshold = bw_threshold
        self.rate_threshold = rate_threshold
        self.decisions: list[str] = []
        core = cluster.core(cluster.locate(client))
        self.core = core
        self.cid = str(client._fargo_target_id)
        self.sid = str(server._fargo_target_id)
        core.profile("invocationRate", interval=1.0, src=self.cid, dst=self.sid)

    def evaluate(self):
        server_site = self.cluster.locate(self.server)
        client_site = self.cluster.locate(self.client)
        if client_site == server_site:
            return
        bandwidth = self.core.profile_instant("bandwidth", peer=server_site)
        rate = self.core.profile_get("invocationRate", src=self.cid, dst=self.sid)
        if bandwidth < self.bw_threshold and rate > self.rate_threshold:
            self.cluster.move(self.client, server_site)
            self.decisions.append(f"colocate@{server_site}")


class TestPolicy:
    def test_colocates_when_slow_link_and_chatty(self, rig):
        cluster, client, server = rig
        policy = ColocationPolicy(
            cluster, client, server, bw_threshold=500_000.0, rate_threshold=3.0
        )
        cluster.set_link("site1", "site2", bandwidth=100_000.0)  # degrade
        for _ in range(5):
            client.run(10)
            cluster.advance(1.0)
            policy.evaluate()
        assert cluster.locate(client) == "site2"
        assert policy.decisions == ["colocate@site2"]

    def test_stays_apart_on_fast_link(self, rig):
        cluster, client, server = rig
        policy = ColocationPolicy(
            cluster, client, server, bw_threshold=500_000.0, rate_threshold=3.0
        )
        for _ in range(5):
            client.run(10)
            cluster.advance(1.0)
            policy.evaluate()
        assert cluster.locate(client) == "site1"  # bandwidth is fine

    def test_stays_apart_when_quiet(self, rig):
        cluster, client, server = rig
        policy = ColocationPolicy(
            cluster, client, server, bw_threshold=500_000.0, rate_threshold=3.0
        )
        cluster.set_link("site1", "site2", bandwidth=100_000.0)
        for _ in range(5):
            client.run(1)  # low rate
            cluster.advance(1.0)
            policy.evaluate()
        assert cluster.locate(client) == "site1"

    def test_colocation_reduces_network_usage(self, rig):
        cluster, client, server = rig
        client.run(10)
        cluster.reset_stats()
        client.run(10)
        remote_bytes = cluster.stats.bytes
        cluster.move(client, "site2")
        cluster.reset_stats()
        client_colocated = cluster.stub_at("site2", client)
        client_colocated.run(10)
        local_bytes = cluster.stats.bytes
        assert local_bytes == 0
        assert remote_bytes > 5_000  # 10 calls, ~256 B each way + framing


class TestEventDrivenVariant:
    def test_threshold_events_drive_the_policy(self, rig):
        """Same policy, but asynchronous: no polling loop in the app."""
        cluster, client, server = rig
        core = cluster["site1"]
        cid = str(client._fargo_target_id)
        sid = str(server._fargo_target_id)

        def on_chatty(event):
            site = cluster.locate(server)
            bandwidth = core.profile_instant("bandwidth", peer=site)
            if bandwidth < 500_000.0:
                cluster.move(client, site)

        core.events.subscribe("invocationRate>3", on_chatty)
        core.monitor.watch("invocationRate", ">", 3.0, interval=1.0, src=cid, dst=sid)
        cluster.set_link("site1", "site2", bandwidth=100_000.0)
        for _ in range(5):
            client.run(10)
            cluster.advance(1.0)
        assert cluster.locate(client) == "site2"
